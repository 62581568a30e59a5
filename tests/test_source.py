"""The package source parses as the oldest Python that pyproject.toml
declares, so syntax newer than ``requires-python`` fails here even when the
suite runs on a later interpreter. (``feature_version`` is the parser's best
effort: it rejects, for one, ``except*`` and ``match`` below their versions.)"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "equilib").glob("*.py"))


def oldest_python() -> tuple[int, int]:
    (spec,) = re.findall(r'^requires-python = ">=(\d+)\.(\d+)"$',
                         (ROOT / "pyproject.toml").read_text(), flags=re.M)
    return int(spec[0]), int(spec[1])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=oldest_python())
