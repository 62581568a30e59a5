"""The README's examples run as written: the API tour prints what its comments
say, the scenario config loads and equilibrates, and each `equilib bounds`
line runs, or prints the refusal quoted beside it."""

import contextlib
import inspect
import io
import json
import math
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from equilib import bench, classical, cli, core, quantum
from equilib.bench import STATUS_SATISFIED, load_scenario, run_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def test_api_tour_prints_its_commented_values():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    # a print's expected output is the comment that ends its last line:
    # "~0.318 (...)" means it rounds to 0.318, a bare word is printed verbatim
    expected = re.findall(r"\)\s+# (.+)$", block, flags=re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(expected) == len(printed) == 3
    for text, comment in zip(printed, expected):
        if comment.startswith("~"):
            value = comment[1:].split()[0]
            assert round(float(text), len(value.split(".")[1])) == float(value), comment
        else:
            assert text == comment
    # the qubit example: the sampled mean estimates 1/pi, and the bound is
    # (1/2) sqrt((N - 1) D_G / d_eff) with N = 2, D_G = 1, d_eff = 2
    assert abs(float(printed[0]) - 1 / math.pi) < 5e-3
    assert math.isclose(float(printed[1]), 0.5 * math.sqrt(0.5), rel_tol=1e-15)


def test_scenario_example_equilibrates():
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    (record,) = run_scenario(load_scenario(json.loads(block)))
    assert record.error is None
    assert record.report.verdict == "equilibrates"
    assert record.bounds["thm5-spectral"].status == STATUS_SATISFIED


def bounds_lines(text: str) -> list:
    """The arguments of each `equilib bounds` line of the CLI block."""
    (block,) = re.findall(r"## CLI\n\n```sh\n(.*?)```", text, flags=re.S)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("equilib bounds")]


def test_every_bounds_line_runs():
    lines = bounds_lines(README.read_text())
    assert [args[:3] for args in lines] == [["bounds", "-n", "5"], ["bounds", "-n", "4"]]
    for args in lines:
        result = CliRunner().invoke(cli.main, args)
        assert result.exit_code == 0, result.output


def quoted_refusals(text: str) -> dict:
    """Each refusal the README quotes as "`equilib bounds ...` prints
    `Error: ...`", by command, its line breaks read as spaces."""
    return {" ".join(command.split()): " ".join(message.split()) for command, message in
            re.findall(r"`(equilib bounds [^`]*)` prints `(Error: [^`]*)`", text)}


def misquoted_refusals(text: str) -> list:
    """The quoted commands that do not exit 1 printing, last, what the
    README quotes."""
    wrong = []
    for command, message in quoted_refusals(text).items():
        result = CliRunner().invoke(cli.main, shlex.split(command)[1:])
        if result.exit_code != 1 or result.output.splitlines()[-1] != message:
            wrong.append(command)
    return wrong


def test_every_quoted_refusal_is_printed():
    assert quoted_refusals(README.read_text()) == {
        "equilib bounds -n 0 --delta 0.1":
            "Error: --outcomes: cell_count must be an integer >= 1, got 0",
        "equilib bounds -n 2 --eigenvalues a,1":
            "Error: --eigenvalues: could not convert string to float: 'a'",
    }
    assert misquoted_refusals(README.read_text()) == []


def test_the_refusal_check_sees_a_drift():
    text = README.read_text().replace("got 0`", "got 1`")
    assert misquoted_refusals(text) == ["equilib bounds -n 0 --delta 0.1"]


def test_every_cited_name_exists():
    # a deleted name cannot stay documented: `core.X`, `bench.X`,
    # `quantum.X` and `classical.X` name attributes of those modules, and a
    # bare `MAX_...` one of any of them
    modules = {"core": core, "bench": bench, "quantum": quantum, "classical": classical}
    text = README.read_text()
    cited = re.findall(r"`(core|bench|quantum|classical)\.(\w+)", text)
    assert cited
    for module, name in cited:
        assert hasattr(modules[module], name), f"{module}.{name}"
    for name in re.findall(r"`(MAX_\w+)", text):
        assert any(hasattr(m, name) for m in modules.values()), name
    # and every map name offered for `system.map` loads
    assert offered_map_names(text) == ["rotation", "cat-map"]
    assert unknown_map_names(text) == []


def offered_map_names(text: str) -> list:
    """The names the `kind: classical-pure` bullet offers for `system.map`:
    the first code span of each ";"-separated clause of the parenthesis
    that follows it."""
    start = text.index("(", text.index("`kind: classical-pure` takes `system.map`"))
    depth = 0
    for end, char in enumerate(text[start:], start):
        depth += {"(": 1, ")": -1}.get(char, 0)
        if depth == 0:
            break
    return [re.search(r"`([\w-]+)`", clause)[1] for clause in text[start + 1 : end].split(";")]


def unknown_map_names(text: str) -> list:
    """The offered map names that ``bench._map_node`` does not load."""
    unknown = []
    for name in offered_map_names(text):
        try:
            bench._map_node(bench._Node({"name": name, "angles": [0.25]}, "map"))
        except core.ConfigError:
            unknown.append(name)
    return unknown


def test_the_map_check_sees_a_withdrawn_name():
    text = README.read_text().replace("loses some k)", "loses some k; or `baker-map`)")
    assert unknown_map_names(text) == ["baker-map"]


# the library function that takes each scenario field the README gives a
# default for
DEFAULT_TAKERS = {
    "lattice": classical.contaminated_cat_ensemble,
    "mode_count": core.synthetic_probe,
    "amplitude": core.synthetic_probe,
}


def stated_defaults(text: str) -> dict:
    """Each "by default" value the README states for a field, as
    "`field` ... 3 by default", by field."""
    return {name: float(value) for name, value in
            re.findall(r"`(\w+)`[^`]*?\b(\d+(?:\.\d+)?) by default", text)}


def drifted_defaults(text: str) -> list:
    """The fields whose stated default differs from the default of the
    library argument that takes them."""
    stated = stated_defaults(text)
    assert set(stated) == set(DEFAULT_TAKERS)
    return [name for name, value in stated.items()
            if inspect.signature(DEFAULT_TAKERS[name]).parameters[name].default != value]


def test_every_stated_default_is_the_library_default():
    # bench passes only the fields a scenario gives, so the signature's
    # default is the one that applies
    assert stated_defaults(README.read_text()) == {"lattice": 4, "mode_count": 3,
                                                   "amplitude": 0.6}
    assert drifted_defaults(README.read_text()) == []


def test_the_default_check_sees_a_drift():
    text = README.read_text().replace("(3 by default)", "(4 by default)")
    assert drifted_defaults(text) == ["mode_count"]
