"""Checks on the package source itself.

It parses as the oldest Python that pyproject.toml declares, so syntax newer
than ``requires-python`` fails here even when the suite runs on a later
interpreter. (``feature_version`` is the parser's best effort: it rejects,
for one, ``except*`` and ``match`` below their versions.)
``core.typed_array`` is its one converter of outside numbers, and
``core.typed_scalar`` beside it, on the same table, its one type and range
rule of outside scalars, so no module writes a range out: each range is the
bounds that the function taking the argument passes to it. A matrix enters
the energy basis in
``quantum._energy_coefficients`` and ``quantum.dephase`` alone, and the
coefficient tensor is built in two places."""

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


def range_rules(tree: ast.AST) -> list[int]:
    """Lines of the range rules written out: a comparison with a
    ``typed_scalar(...)`` call among its operands, such as
    ``typed_scalar(n, "n", int) < 2``, and a chained comparison with two
    numeric constants among its operands, such as ``0.0 <= x < 1.0``.
    ``typed_scalar``'s own body, which holds the one rule, is exempt."""
    def numeric(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) in (int, float)

    def reads_a_scalar(node: ast.expr) -> bool:
        func = getattr(node, "func", None)
        return (isinstance(node, ast.Call)
                and getattr(func, "id", getattr(func, "attr", None)) == "typed_scalar")

    exempt = {id(node) for owner in ast.walk(tree)
              if isinstance(owner, ast.FunctionDef) and owner.name == "typed_scalar"
              for node in ast.walk(owner)}
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and id(node) not in exempt:
            operands = [node.left, *node.comparators]
            if (any(map(reads_a_scalar, operands))
                    or len(node.ops) > 1 and sum(map(numeric, operands)) >= 2):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_range_rule_is_written_out(path):
    # each range lives in the bounds that its constructor passes to
    # typed_scalar, whose DomainError names the argument; a rule written
    # out beside it gives its own message or none, and a copy in bench
    # drifts from the constructor's
    assert range_rules(ast.parse(path.read_text())) == []


def test_the_range_check_sees_a_range():
    source = ("a = 0.0 <= x < 1.0\nb = -1 < y <= +2\nc = 0 <= x\nd = lo < x < hi\n"
              "e = 0 < x < hi\nf = (0.5 < x <\n     1)\n"
              "if not 0.0 < typed_scalar(x, \"x\") <= 1.0:\n    pass\n"
              "if typed_scalar(n, \"n\", int) < 2:\n    pass\n"
              "g = core.typed_scalar(x, \"x\") > lo\nh = typed_scalar(x, \"x\", least=0.0)\n"
              "def typed_scalar(value, name, least):\n    return 0.0 <= value < 1.0\n")
    assert range_rules(ast.parse(source)) == [1, 2, 6, 8, 10, 12]


def energy_basis_callers(tree: ast.AST) -> list[str]:
    """The innermost function around each ``.to_energy_basis(`` call, in
    source order; a call outside every function counts as ``<module>``."""
    callers = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "to_energy_basis"):
            callers.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return callers


def test_a_matrix_enters_the_energy_basis_in_two_places():
    # _energy_coefficients changes the basis of the state and of each
    # measurement element, dephase that of the state alone; the pure-state
    # route reads the elements as given, so a basis change anywhere else is
    # a second copy of the coefficient tensor's cost
    callers = {caller for path in SOURCES
               for caller in energy_basis_callers(ast.parse(path.read_text()))}
    assert callers == {"_energy_coefficients", "dephase"}


def test_the_basis_check_sees_a_stray_call():
    source = ("def _energy_coefficients(s, m):\n    return s.to_energy_basis(m)\n"
              "def probe(s, m):\n    def inner():\n        return s.to_energy_basis(m)\n"
              "    return inner\n"
              "x = spec.to_energy_basis(m)\ny = spec.from_energy_basis(m)\n")
    assert energy_basis_callers(ast.parse(source)) == ["_energy_coefficients", "inner", "<module>"]


def tensor_builders(tree: ast.AST) -> list[str]:
    """The module-level function or class around each ``_energy_coefficients``
    call, in source order, a closure counting as the function that holds it;
    a call outside every function and class counts as ``<module>``."""
    def builds(node: ast.AST) -> bool:
        func = getattr(node, "func", None)
        return (isinstance(node, ast.Call)
                and getattr(func, "id", getattr(func, "attr", None)) == "_energy_coefficients")

    return [getattr(owner, "name", "<module>")
            for owner in tree.body for node in ast.walk(owner) if builds(node)]


def test_the_coefficient_tensor_is_built_in_two_places():
    # a probe's first block that needs the tensor builds it inside
    # quantum_probe's closure, and the second moment reads it for one
    # element; a build anywhere else is a second build rule
    builders = {caller for path in SOURCES
                for caller in tensor_builders(ast.parse(path.read_text()))}
    assert builders == {"quantum_probe", "projector_second_moment"}


def test_the_build_check_sees_a_stray_build():
    source = ("def quantum_probe(r, s, e):\n    def block(t):\n"
              "        return _energy_coefficients(r, s, e)\n    return block\n"
              "class Probe:\n    def build(self):\n        return _energy_coefficients(*self.parts)\n"
              "def helper(r, s, e):\n    return _energy_coefficients(r, s, e)\n"
              "tensor = _energy_coefficients(r, s, e)\nother = quantum._energy_coefficients(r, s, e)\n")
    assert tensor_builders(ast.parse(source)) == ["quantum_probe", "Probe", "helper",
                                                  "<module>", "<module>"]


def type_tests(tree: ast.AST) -> list[int]:
    """Lines of the hand-written scalar type rules: an ``isinstance`` call
    whose types name ``bool``, and any ``bool_`` or ``Integral`` attribute,
    such as ``np.bool_`` or ``numbers.Integral``."""
    def names_bool(node: ast.AST) -> bool:
        return any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node))

    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                   and len(node.args) == 2 and names_bool(node.args[1])
                   or isinstance(node, ast.Attribute) and node.attr in ("bool_", "Integral")})


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "core.py"], ids=lambda p: p.name)
def test_scalars_are_typed_in_core_alone(path):
    # core.typed_scalar refuses a string, None and a boolean and tells an
    # int from a float, by typed_array's table; a second rule drifts from it
    assert type_tests(ast.parse(path.read_text())) == []


def test_the_type_check_sees_a_stray_rule():
    source = ("a = isinstance(x, bool)\nb = isinstance(x, (int, bool))\n"
              "c = isinstance(x, numbers.Integral)\nd = x.dtype == np.bool_\n"
              "e = isinstance(x, int)\nf = np.ones(3, dtype=bool)\ng = type(x) is bool\n")
    assert type_tests(ast.parse(source)) == [1, 2, 3, 4]
