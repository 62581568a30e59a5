"""Checks on the package source itself.

It parses as the oldest Python that pyproject.toml declares, so syntax newer
than ``requires-python`` fails here even when the suite runs on a later
interpreter. (``feature_version`` is the parser's best effort: it rejects,
for one, ``except*`` and ``match`` below their versions.) And
``core.typed_array`` is its one converter of outside numbers."""

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


def numeric_casts(tree: ast.AST) -> list[int]:
    """Lines of the ``np.array`` and ``np.asarray`` calls with
    ``dtype=float`` or ``dtype=complex``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("array", "asarray")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
            and any(kw.arg == "dtype" and isinstance(kw.value, ast.Name)
                    and kw.value.id in ("float", "complex") for kw in node.keywords)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_typed_array_is_the_one_numeric_cast(path):
    # such a cast reads a string, a boolean or a NaN as a number; typed_array
    # refuses each, so a value read from outside goes through it alone
    assert numeric_casts(ast.parse(path.read_text())) == []


def test_the_cast_check_sees_a_cast():
    source = "x = np.asarray(v, dtype=float)\ny = np.array(\n    v, dtype=complex)\nz = np.array(v)\n"
    assert numeric_casts(ast.parse(source)) == [1, 2]
