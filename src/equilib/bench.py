"""Scenario-driven experiment runner.

A scenario is a single JSON document describing one system (quantum
matrices, a classical map plus partition, or a synthetic probe recipe), one
measurement, an epsilon and an averaging configuration, plus an optional
sweep grid of dotted-path overrides. Running a scenario produces one record
per sweep point, each carrying the measured equilibration report and the
status of every analytic bound: satisfied, violated, or not-applicable.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import classical, quantum
from .core import (
    ConfigError,
    OutcomeDistribution,
    EquilibrationReport,
    TimeAverageConfig,
    TrajectoryProbe,
    check_epsilon,
    check_sufficiency,
    equilibration_report,
    sample_times,
    synthetic_probe,
    typed_array,
    typed_scalar,
)

STATUS_SATISFIED = "satisfied"
STATUS_VIOLATED = "violated"
STATUS_NA = "not-applicable"

# The one size budget: each size is at most MAX_BYTES over the bytes a unit
# of it costs (a tracemalloc peak, beside its bound), given the sizes before
# it, so a larger one fails at load, naming its field, not as a MemoryError.
MAX_BYTES = 2**29

BOUND_NAMES = ("thm1-sufficiency", "thm2-necessity", "thm3-mixing", "thm5-spectral")

CSV_COLUMNS = [
    "scenario",
    "N",
    "d_eff",
    "D_G",
    "epsilon",
    "mean_D",
    "stderr",
    "bound_thm5",
    "bound_thm3",
    "suff_thm1",
    "nec_thm2",
    "verdict",
    "seed",
]


@dataclass(frozen=True)
class BoundCheck:
    value: float | None
    status: str

    def to_dict(self) -> dict:
        return {"value": self.value, "status": self.status}


@dataclass(frozen=True)
class RunRecord:
    """One executed sweep point: parameters and either its measurement or
    the error that stopped it. ``bounds`` and the report's verdict are
    derived from the report, so a record cannot contradict its numbers."""

    scenario: str
    params: dict
    report: EquilibrationReport | None
    wall_time: float
    seed: int
    error: str | None = None

    def __post_init__(self):
        if (self.report is None) == (self.error is None):
            raise ValueError("a record holds exactly one of a report and an error")

    @property
    def bounds(self) -> dict[str, BoundCheck]:
        """The check of every bound in ``BOUND_NAMES``, by its theorem's rule."""
        return _evaluate_bounds(self.report)

    def to_dict(self) -> dict:
        rep = None
        if self.report is not None:
            rep = {
                "mean_distinguishability": self.report.mean_distinguishability,
                "standard_error": self.report.standard_error,
                "equilibrium_distribution": [
                    float(v) for v in self.report.equilibrium_distribution.probs
                ],
                "epsilon": self.report.epsilon,
                "verdict": self.report.verdict,
                "bound_values": dict(self.report.bound_values),
            }
        return {
            "scenario": self.scenario,
            "params": self.params,
            "report": rep,
            "bounds": {name: chk.to_dict() for name, chk in self.bounds.items()},
            "wall_time": self.wall_time,
            "seed": self.seed,
            "error": self.error,
        }

    @staticmethod
    def from_dict(data: dict, path: str = "record") -> "RunRecord":
        """The record ``to_dict`` wrote; a missing, malformed or unknown field,
        or a verdict or bound entry other than the one the report gives, is a
        ConfigError naming it under ``path``. ``params`` is a free object."""
        record = _Node(data, path)
        rep = None
        if record.get("report") is not None:
            r = record.node("report")
            values = {key: r.number(key)
                      for key in ("mean_distinguishability", "standard_error", "epsilon")}
            bound = _bound_names(r.node("bound_values"))
            values["bound_values"] = {name: bound.number(name) for name in bound.data}
            omega = r.entries("equilibrium_distribution")
            with r.field("equilibrium_distribution"):
                omega = OutcomeDistribution(omega)
            with r.field():
                rep = EquilibrationReport(**values, equilibrium_distribution=omega)
            _check_derived(r, "verdict", rep.verdict)
            r.refuse_unread()
        checks = _bound_names(record.node("bounds"))
        for name, chk in _evaluate_bounds(rep).items():
            _check_derived(checks, name, chk.to_dict())
        with record.field():
            rec = RunRecord(
                scenario=record.string("scenario"),
                # a free object: its node is no child of the record's, so no tally sees it
                params=_Node(record.require("params"), f"{record.path}.params").data,
                report=rep, wall_time=record.number("wall_time"), seed=record.seed(),
                error=None if record.get("error") is None else record.string("error"))
        record.refuse_unread()
        return rec


def _bound_names(node: _Node) -> _Node:
    """``node``, an object keyed by names in ``BOUND_NAMES``."""
    for name in node.data:
        if name not in BOUND_NAMES:
            raise node.error(name, f"unknown bound, expected one of {BOUND_NAMES}")
    return node


def _check_derived(node: _Node, key: str, derived) -> None:
    """Refuse field ``key`` of ``node`` unless it is ``derived``, the value
    the record's report gives it."""
    if node.require(key) != derived:
        raise node.error(key, f"the report gives {derived!r}, got {node.data[key]!r}")


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: the raw config, the expanded sweep grid and, per
    point, its runtime or numeric build failure with the build's seconds."""

    name: str
    config: dict
    sweep_points: tuple[dict, ...]
    built: tuple[tuple[_Runtime | _Failure, float], ...] = field(compare=False, repr=False)


# --- config parsing ----------------------------------------------------------

class _Node:
    """A config object, its dotted path, that path as the tuple ``keys`` of
    the keys that lead to it, and the directory its file references are
    read from. Each reader takes the key of a field and names it as
    ``path.key`` in the ConfigError it raises; ``read`` holds the keys that
    readers of this node asked for, and ``children`` every node that
    ``child`` made from it, in order, a fresh one each call, so two nodes
    may hold one field. ``tally`` meets their reads by ``keys``."""

    def __init__(self, data, path: str, base: Path = Path()):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
        self.data, self.path, self.base, self.keys = data, path, base, (path,)
        self.read: set[str] = set()
        self.children: list[_Node] = []

    def __contains__(self, key: str) -> bool:
        return key in self.data

    def get(self, key: str, default=None):
        """Field ``key``, or ``default`` when it is absent or null."""
        self.read.add(key)
        value = self.data.get(key)
        return default if value is None else value

    def error(self, key: str | None, msg: str) -> ConfigError:
        """The ConfigError naming field ``key``, or this object when None."""
        return ConfigError(f"{self.path if key is None else f'{self.path}.{key}'}: {msg}")

    def child(self, data, key: str) -> _Node:
        """``data``, an object, as the field ``key`` of this one."""
        node = _Node(data, f"{self.path}.{key}", self.base)
        node.keys = (*self.keys, key)
        self.children.append(node)
        return node

    def node(self, key: str) -> _Node:
        return self.child(self.require(key), key)

    def tally(self, read: set[tuple], unread: dict) -> tuple[set[tuple], dict]:
        """``read`` and ``unread`` with this node's tree added: to ``read``
        the keys of each field that a reader of this node, or of a node that
        ``child`` made from it, asked for, and to ``unread``, in the order of
        the walk, those of each field given to one of them that its readers
        did not ask for, with the node and the key."""
        read.update((*self.keys, key) for key in self.read)
        unread.update(((*self.keys, k), (self, k)) for k in self.data if k not in self.read)
        for node in self.children:
            node.tally(read, unread)
        return read, unread

    def refuse_unread(self) -> None:
        """Refuse a field of this node's tree that no reader read."""
        _refuse(*self.tally(set(), {}))

    def require(self, key: str):
        self.read.add(key)
        if key not in self.data:
            raise self.error(key, "required")
        return self.data[key]

    def string(self, key: str) -> str:
        value = self.require(key)
        if not isinstance(value, str):
            raise self.error(key, f"expected a string, got {type(value).__name__}")
        return value

    def number(self, key: str) -> float:
        """Field ``key`` as the float ``typed_scalar`` reads."""
        value = self.require(key)
        with self.field(key):
            return typed_scalar(value, key)

    def integer(self, key: str, least: int | None = None, most: float = math.inf) -> int:
        """Field ``key`` as the integer ``typed_scalar`` reads, from ``least``
        to ``most``, the byte budget; JSON's integral float, such as 8.0, is
        an integer."""
        value = self.require(key)
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        with self.field(key):
            value = typed_scalar(value, key, int, least)
        if value > most:
            raise self.error(key, f"must be at most {most}, got {value}")
        return value

    def seed(self, key: str = "seed") -> int:
        """Field ``key``, an integer >= 0."""
        return self.integer(key, 0)

    def given(self, **readers) -> dict:
        """Each field named by a keyword that is given and not null, read by
        that keyword's reader (called with the key): the keyword arguments
        of a library call, so that for a field left out the default of the
        library's signature applies, and this module holds no copy of it.
        Every keyword counts as read, so a null field is no unknown one."""
        self.read.update(readers)
        return {key: read(key) for key, read in readers.items()
                if self.data.get(key) is not None}

    @contextlib.contextmanager
    def field(self, key: str | None = None):
        """Decode field ``key`` (this object when None): a TypeError,
        ValueError or OverflowError raised inside becomes a ConfigError
        naming the key of this object that its ``name`` gives (a library
        DomainError names its argument) when a reader has read that key,
        else ``key``; a ConfigError passes through."""
        try:
            yield
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            name = getattr(exc, "name", None)
            raise self.error(name if name in self.read else key, str(exc)) from None

    def entries(self, key: str, dtype: type = float) -> np.ndarray:
        """Field ``key``, a nested list of JSON numbers (or, for ``dtype``
        bool, JSON booleans), as the array ``typed_array`` reads, by its
        rule."""
        if self.get(key) is None:
            raise self.error(key, "required")
        with self.field(key):
            return typed_array(self.data[key], key, dtype)

    def pairs(self, key: str) -> np.ndarray:
        """Field ``key``, a list of [real, imag] number pairs, as a complex
        vector holding exactly ``complex(real, imag)`` of each pair, signed
        zeros included (``real + 1j * imag`` would not)."""
        parts = self.entries(key)
        if parts.ndim != 2 or parts.shape[1] != 2:
            raise self.error(key, "entries must be (real, imag) pairs")
        values = np.empty(len(parts), dtype=complex)
        values.real, values.imag = parts.T
        return values


def _refuse(read: set[tuple], unread: dict, spared=()) -> None:
    """Raise the first field of a tally's ``unread`` that is not in its
    ``read``, unless a path of ``spared``, a tuple of keys, runs through it.
    A key that holds a dot is one key, so it never spells a read or spared
    path. The hint is the nearest key read beside it."""
    for path, (node, key) in unread.items():
        if path not in read and not any(s[:len(path)] == path for s in spared):
            known = {p[-1] for p in read if p[:-1] == node.keys}
            raise node.error(key, "unknown field" + _nearest(key, known))


def _nearest(key: str, known: set[str]) -> str:
    """The hint naming the key of ``known`` nearest ``key``, if any is near."""
    import difflib  # an error path's import, kept out of every load

    match = difflib.get_close_matches(key, sorted(known), n=1)
    return f"; did you mean {match[0]!r}?" if match else ""


def _is_json(value) -> bool:
    """Whether ``value`` is a JSON value of the types ``json.loads`` makes,
    so a record holding it reads back equal: null, a boolean, an integer, a
    finite float, a string, or a list or string-keyed dict of such values."""
    if value is None or type(value) in (bool, int, str):
        return True
    if type(value) is float:
        return math.isfinite(value)
    if type(value) is list:
        return all(_is_json(v) for v in value)
    if type(value) is dict:
        return all(type(k) is str and _is_json(v) for k, v in value.items())
    return False


def _read_json(path: Path, field: str | None = None):
    """The JSON value in the UTF-8 file ``path``. A file that cannot be read,
    or holds no such value, is a ConfigError naming the file, after the
    scenario ``field`` that references it when one does."""
    lead = str(path) if field is None else f"{field}: {path}"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{lead}: cannot read ({exc})") from None
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ConfigError(f"{lead}: invalid JSON ({exc})") from None


def load_scenario(source: dict | str | Path, overrides: dict | None = None) -> Scenario:
    """Parse and validate a scenario from a dict or a JSON file path, named
    by its ``name`` field, else by the file's stem, else ``"scenario"``.

    ``overrides`` maps dotted config paths to values set on the raw config
    before validation, under any sweep grid; ``source`` is not modified. A
    relative matrix ``{"file": ...}`` is read from the file's directory,
    else from the working directory, and recorded as given.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        raw = _read_json(path)
        name, base = path.stem, path.parent
    else:
        raw, name, base = source, "scenario", Path()
    if not isinstance(raw, dict):
        raise ConfigError("scenario: expected a JSON object")
    if overrides:
        raw = _apply_overrides(raw, overrides)
    root = _Node(raw, "scenario")
    name = name if root.get("name") is None else root.string("name")
    kind = root.require("kind")
    if kind not in KINDS:
        raise root.error("kind", f"unknown kind {kind!r}, expected one of {KINDS}")
    # the base epsilon must be there, but only the epsilon a point is built
    # with is checked, in _build: a sweep may replace the base's
    for key in ("epsilon", "average", "system"):
        root.require(key)
    if kind != "synthetic-probe":
        root.require("measurement")
    sweep = root.get("sweep")
    points: list[dict] = [{}]
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise root.error("sweep", "expected an object of path -> value list")
        sweep = root.child(sweep, "sweep")
        keys = sorted(sweep.data)
        if "kind" in sweep:
            raise sweep.error("kind", "the scenario kind cannot be swept")
        for k in keys:
            if not isinstance(sweep.data[k], list):
                raise sweep.error(k, "expected a list of values")
            # the values go into the records' params as given
            if not _is_json(sweep.data[k]):
                raise sweep.error(k, "expected JSON values: null, booleans, finite numbers, "
                                     "strings, lists and string-keyed objects")
        points = [dict(zip(keys, combo))
                  for combo in itertools.product(*(sweep.data[k] for k in keys))]
    # every sweep point is built once, before any run starts, and checks the
    # epsilon it is built with; numeric failures are kept for run_scenario to
    # record. An empty grid still validates the base config. A point that
    # builds must have read the last key of every path it sweeps to a value,
    # else the path sweeps nothing, and every other field it holds but those
    # on a swept path, which may be null, or on the path of an override,
    # which a CLI flag sets on every kind, whether it reads the field or not;
    # the name and the sweep grid are read off the base config
    spared = [(root.path, *path.split(".")) for path in ("name", "sweep", *(overrides or {}))]
    built = []
    for point in points or [{}]:
        resolved = _Node(_apply_overrides(raw, point), root.path, base)
        start = time.perf_counter()
        try:
            rt = _build(resolved)
        except ConfigError:
            raise
        except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
            avg = resolved.node("average")
            seed = avg.given(seed=avg.seed).get("seed", TimeAverageConfig.seed)
            rt = _Failure(f"{type(exc).__name__}: {exc}", seed)
        else:
            read, unread = resolved.tally(set(), {})
            for dotted, value in point.items():
                if value is not None and (root.path, *dotted.split(".")) not in read:
                    raise sweep.error(dotted, "the build reads no such field" + _nearest(
                        dotted, {".".join(path[1:]) for path in read}))
            _refuse(read, unread, [*spared, *((root.path, *path.split(".")) for path in point)])
        built.append((rt, time.perf_counter() - start))
    return Scenario(name=name, config=raw, sweep_points=tuple(points),
                    built=tuple(built[:len(points)]))


def _apply_overrides(raw: dict, overrides: dict) -> dict:
    """A copy of ``raw`` with each dotted path set to its value; an absent or
    null node on the way is created, any other non-object one is an error."""
    cfg = copy.deepcopy(raw)
    for dotted, value in overrides.items():
        node = _Node(cfg, "scenario")
        *parents, key = dotted.split(".")
        for part in parents:
            if node.get(part) is None:
                node.data[part] = {}
            node = node.node(part)
        node.data[key] = value
    return cfg


def _average_config(root: _Node, outcomes: int, spectrum=None) -> TimeAverageConfig:
    """A sample time costs 24 (N + 3) bytes with N ``outcomes`` whatever the kind,
    for the estimator's rows and the time (tracemalloc: 24-25 N + 16-56)."""
    avg = root.node("average")
    samples = avg.integer("samples", most=MAX_BYTES // (24 * (outcomes + 3)))
    given = avg.given(seed=avg.seed, scheme=avg.require)
    horizon = avg.get("horizon", "auto")
    if horizon == "auto":
        if spectrum is None:
            raise avg.error("horizon", "'auto' is only available for quantum scenarios")
        # a smallest gap so small that the horizon overflows is this field's error
        with avg.field("horizon"):
            horizon = quantum.default_average_config(spectrum).horizon
    else:
        horizon = avg.number("horizon")
    with avg.field():
        return TimeAverageConfig(horizon=horizon, samples=samples, **given)


@dataclass(frozen=True)
class _Runtime:
    """Everything needed to execute one resolved sweep point.

    ``params`` go into the point's record. ``bound_values`` holds the value
    of every bound that applies to the point, by name; universal sufficiency
    applies to all and comes first.
    """

    probe: TrajectoryProbe
    cfg: TimeAverageConfig
    epsilon: float
    params: dict
    bound_values: dict[str, float]

    def __post_init__(self):
        universal = {"thm1-sufficiency": 1.0 - self.epsilon / 2.0}
        object.__setattr__(self, "bound_values", {**universal, **self.bound_values})


@dataclass(frozen=True)
class _Failure:
    """A sweep point whose build failed numerically, as its record shows it."""

    error: str
    seed: int


def _dim_bound() -> int:
    # 8 complex d x d matrices beside the outcomes' (tracemalloc: 9.1 in all at N = 1)
    return math.isqrt(MAX_BYTES // 128)


def _matrix_node(node: _Node) -> np.ndarray:
    """A matrix given as {"rows", "cols", "data"}, its entries [real, imag]
    pairs in row-major order; inline, or in the JSON file {"file": ...}."""
    if "file" in node:
        with node.field("file"):
            ref = node.base / node.require("file")
        node = _Node(_read_json(ref, f"{node.path}.file"), node.path)
    rows, cols = (node.integer(key, 1, _dim_bound()) for key in ("rows", "cols"))
    data = node.pairs("data")
    if data.size != rows * cols:
        raise node.error("data", f"expected {rows * cols} pairs, got {data.size}")
    # a file's node is no child of the scenario's, so it refuses its own strays
    node.refuse_unread()
    return data.reshape(rows, cols)


def _map_node(node: _Node) -> classical.InvertibleMap:
    """A catalogue map: {"name": "rotation", "angles": [...]} or {"name":
    "cat-map", "lattice": q} (lattice optional)."""
    name = node.get("name")
    if name == "rotation":
        angles = node.require("angles")
        with node.field("angles"):
            return classical.rotation_map(angles)
    if name == "cat-map":
        with node.field("lattice"):
            return classical.cat_map(**node.given(lattice=node.integer))
    raise node.error("name", f"unknown map {name!r}")


def _partition_node(node: _Node) -> classical.Partition:
    """A box partition: {"kind": "interval", "edges": [...]} on the circle,
    or {"kind": "grid", "edges": [[...], ...]} with one edge list per
    coordinate, the lists that ``Partition.edges`` holds as arrays."""
    kind = node.get("kind")
    if kind not in ("interval", "grid"):
        raise node.error("kind", f"unknown partition kind {kind!r}")
    edges = node.require("edges")
    with node.field("edges"):
        if kind == "interval":
            return classical.interval_partition(edges)
        return classical.grid_partition(edges)


def _build_quantum(root: _Node, epsilon: float) -> _Runtime:
    system, meas = root.node("system"), root.node("measurement")
    gap_tol = root.given(gap_tol=root.number)
    most_dim = _dim_bound()
    if "sampler" in system:
        s = system.node("sampler")
        dim = s.integer("dim", most=most_dim)
        seed = s.seed()
        given = s.given(spectrum=s.require, spacing=s.number)
        # random_spectrum names the spectrum field's argument "kind", which
        # is no key read here, so the field names its own error
        if "spectrum" in given:
            given["kind"] = given.pop("spectrum")
        with s.field("spectrum"):
            spectrum = quantum.random_spectrum(dim, seed, **given)
        state_kind = s.get("state", "pure")
        if state_kind == "pure":
            rho = quantum.random_pure_state(dim, seed + 1)
        elif state_kind == "mixed":
            rho = quantum.random_mixed_state(dim, seed + 1)
        else:
            raise s.error("state", "expected 'pure' or 'mixed'")
    else:
        ham = system.node("hamiltonian")
        if "eigenvalues" in ham:
            vals = ham.entries("eigenvalues")
            if vals.size > most_dim:
                raise ham.error("eigenvalues", f"must be at most {most_dim}, got {vals.size}")
            vecs = ham.get("eigenvectors")
            vecs = None if vecs is None else _matrix_node(ham.node("eigenvectors"))
            with ham.field():
                spectrum = quantum.HamiltonianSpectrum(vals, vecs)
        else:
            mat = _matrix_node(ham.node("matrix"))
            with ham.field("matrix"):
                spectrum = quantum.HamiltonianSpectrum.from_matrix(mat)
        state = system.node("state")
        with state.field():
            if "vector" in state:
                psi = state.pairs("vector")
                if psi.size > most_dim:
                    raise state.error("vector", f"must be at most {most_dim}, got {psi.size}")
                rho = quantum.DensityMatrix.from_vector(psi)
            else:
                rho = quantum.DensityMatrix(_matrix_node(state.node("matrix")))

    # 2 complex d x (d + 3) matrices an outcome (tracemalloc: 2.0-2.46 d x d, 3.38 at d 2)
    most = MAX_BYTES // (32 * spectrum.dim * (spectrum.dim + 3))
    if "sampler" in meas:
        s = meas.node("sampler")
        name = s.get("name", "random")
        outcomes = s.integer("outcomes", most=most)
        seed = s.seed()
        with s.field():
            if name == "random":
                povm = quantum.random_povm(spectrum.dim, outcomes, seed)
            elif name == "projective":
                povm = quantum.projective_povm(spectrum.dim, outcomes, seed)
            elif name == "uneven":
                povm = quantum.uneven_povm(spectrum.dim, outcomes, s.number("leak"), seed)
            else:
                raise s.error("name", f"unknown sampler {name!r}")
    else:
        elements = meas.require("povm")
        if not isinstance(elements, list) or not elements:
            raise meas.error("povm", "expected a nonempty list of matrices")
        if len(elements) > most:
            raise meas.error("povm", f"must be at most {most}, got {len(elements)}")
        with meas.field("povm"):
            povm = quantum.POVM([_matrix_node(meas.child(el, f"povm[{k}]"))
                                 for k, el in enumerate(elements)])

    with root.field():
        probe = quantum.quantum_probe(rho, spectrum, povm)
    avg = _average_config(root, povm.outcome_count, spectrum)
    d_eff = quantum.effective_dimension(rho, spectrum)
    with root.field("gap_tol"):
        table = quantum.gap_table(spectrum, **gap_tol)
    params = {
        "N": povm.outcome_count,
        "d": spectrum.dim,
        "d_eff": d_eff,
        "D_G": table.max_degeneracy,
        "gap_tolerance": table.tolerance,
        "D_G_sensitivity": {
            f"{f:g}x": deg for f, deg in quantum.gap_degeneracy_sensitivity(table).items()
        },
        "single_eigenspace": spectrum.eigenspace_count < 2,
    }
    bound = quantum.equilibration_bound(povm.outcome_count, table.max_degeneracy, d_eff)
    return _Runtime(probe, avg, epsilon, params, {"thm5-spectral": bound})


def _orbit_average_config(root: _Node, cell_count: int) -> TimeAverageConfig:
    """The averaging of a classical point on ``cell_count`` cells, whose
    orbit must reach the step of its last sample time within the cap."""
    avg = _average_config(root, cell_count)
    with root.node("average").field("horizon"):
        classical.check_orbit_steps(np.rint(sample_times(avg)[[0, -1]]))
    return avg


def _map_and_partition(root: _Node) -> tuple[_Node, classical.InvertibleMap, classical.Partition]:
    system, meas = root.node("system"), root.node("measurement")
    mapping = _map_node(system.node("map"))
    cells = meas.node("partition")
    partition = _partition_node(cells)
    if partition.dim != mapping.dim:
        raise cells.error(None, f"{partition.dim}-d partition for {mapping.dim}-d map")
    return system, mapping, partition


def _build_classical_pure(root: _Node, epsilon: float) -> _Runtime:
    system, mapping, partition = _map_and_partition(root)
    point = system.entries("point")
    with system.field("point"):
        probe = classical.classical_probe(point, mapping, partition)
    params = {"N": partition.cell_count, "map": mapping.name}
    return _Runtime(probe, _orbit_average_config(root, partition.cell_count), epsilon, params,
                    {"thm2-necessity": 1.0 - epsilon})


def _build_classical_ensemble(root: _Node, epsilon: float) -> _Runtime:
    system, mapping, partition = _map_and_partition(root)
    ens = system.node("ensemble")
    if "sampler" in ens:
        s = ens.node("sampler")
        if s.get("name", "contaminated-cat") != "contaminated-cat":
            raise s.error("name", f"unknown sampler {s.get('name')!r}")
        # 128 bytes a point (tracemalloc: 84 at build, 105 through a run)
        count, delta = s.integer("count", most=MAX_BYTES // 128), s.number("delta")
        seed, given = s.seed(), s.given(lattice=s.integer)
        with s.field():
            ensemble = classical.contaminated_cat_ensemble(count, delta, seed, **given)
    else:
        points = ens.entries("points")
        given = ens.given(weights=ens.entries,
                          chaotic_flags=lambda key: ens.entries(key, bool))
        with ens.field():
            ensemble = classical.ClassicalEnsemble(points, **given)
    with ens.field():
        probe = classical.ensemble_probe(ensemble, mapping, partition)
    delta = ensemble.periodic_weight
    params = {
        "N": partition.cell_count,
        "map": mapping.name,
        "delta": delta,
        "ensemble_size": ensemble.size,
    }
    # the mixing bound covers mostly chaotic mixtures only
    bounds = {}
    if delta <= 0.5:
        bounds["thm3-mixing"] = classical.mixed_equilibration_bound(partition.cell_count, delta)
    return _Runtime(probe, _orbit_average_config(root, partition.cell_count), epsilon, params,
                    bounds)


def _build_synthetic(root: _Node, epsilon: float) -> _Runtime:
    recipe = root.node("system").node("probe")
    # build: 32 B an outcome, + 2 sample rows, 16 an outcome-mode (tracemalloc: 24-32, 14-17)
    outcomes = recipe.integer("outcomes", most=MAX_BYTES // (32 + 2 * 24))
    seed = recipe.seed()
    # synthetic_probe refuses outcomes below 1, which cost no bytes here
    most_modes = MAX_BYTES // (16 * (max(outcomes, 0) + 1))
    given = recipe.given(mode_count=lambda key: recipe.integer(key, most=most_modes),
                         dominant_weight=recipe.number, amplitude=recipe.number)
    with recipe.field():
        probe = synthetic_probe(outcomes=outcomes, seed=seed, **given)
    avg = _average_config(root, outcomes)
    return _Runtime(probe, avg, epsilon, {"N": probe.outcome_count}, {})


_BUILDERS = {
    "quantum": _build_quantum,
    "classical-pure": _build_classical_pure,
    "classical-ensemble": _build_classical_ensemble,
    "synthetic-probe": _build_synthetic,
}
KINDS = tuple(_BUILDERS)


def _build(root: _Node) -> _Runtime:
    """Build the point ``root`` holds; its epsilon is decoded here, once, as
    a float."""
    epsilon = root.number("epsilon")
    with root.field("epsilon"):
        check_epsilon(epsilon)
    return _BUILDERS[root.require("kind")](root, epsilon)


# --- execution ---------------------------------------------------------------

def _evaluate_bounds(report: EquilibrationReport | None) -> dict[str, BoundCheck]:
    """Check each bound in ``report.bound_values`` by its theorem's rule;
    every other bound, and every bound of no report, is not-applicable."""
    checks = {name: BoundCheck(value=None, status=STATUS_NA) for name in BOUND_NAMES}
    if report is None:
        return checks
    mean = report.mean_distinguishability
    err = report.standard_error
    eps = report.epsilon
    omega = report.equilibrium_distribution
    for name, value in report.bound_values.items():
        if name == "thm1-sufficiency":
            if not check_sufficiency(omega, eps):
                status = STATUS_NA
            else:
                status = STATUS_SATISFIED if mean <= eps + 3.0 * err else STATUS_VIOLATED
        elif name == "thm2-necessity":
            statistically_equilibrated = mean <= eps - 3.0 * err
            if statistically_equilibrated and not classical.check_necessity(omega, eps):
                status = STATUS_VIOLATED
            else:
                status = STATUS_SATISFIED
        else:
            # every other bound is an upper bound on the mean distinguishability
            status = STATUS_VIOLATED if mean - 3.0 * err > value else STATUS_SATISFIED
        checks[name] = BoundCheck(value=value, status=status)
    return checks


def _measure(rt: _Runtime, overrides: dict) -> tuple[EquilibrationReport, dict]:
    """Sample one built point: its report and record params."""
    params = {**overrides, **rt.params}
    report = equilibration_report(rt.probe, rt.epsilon, rt.cfg, rt.bound_values)
    if "quadrature" in report.errors:
        params["quadrature_floor"] = report.errors["quadrature"]
    return report, params


def run_scenario(scenario: Scenario) -> list[RunRecord]:
    """Execute every sweep point of a scenario, in grid order, on the
    runtimes ``load_scenario`` built; a record's ``wall_time`` includes the
    build of its point.

    A numeric failure in one point, at build or while sampling, is recorded
    on its record (bounds all not-applicable) and the sweep continues.
    """
    records: list[RunRecord] = []
    for overrides, (rt, build_s) in zip(scenario.sweep_points, scenario.built, strict=True):
        start = time.perf_counter()
        params, report, error = dict(overrides), None, None
        if isinstance(rt, _Failure):
            seed, error = rt.seed, rt.error
        else:
            seed = rt.cfg.seed
            if "epsilon" in params:
                # the float the point was built with, not the swept JSON number
                params["epsilon"] = rt.epsilon
            try:
                report, params = _measure(rt, params)
            except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        records.append(
            RunRecord(
                scenario=scenario.name,
                params=params,
                report=report,
                wall_time=build_s + time.perf_counter() - start,
                seed=seed,
                error=error,
            )
        )
    return records


def any_violation(records: list[RunRecord]) -> bool:
    return any(
        chk.status == STATUS_VIOLATED for rec in records for chk in rec.bounds.values()
    )


# --- report emission ---------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_report(records: list[RunRecord], fmt: str, path) -> None:
    """Write records as plot-ready CSV (fixed column order, a field quoted
    only when it must be) or verbatim JSON."""
    if fmt == "json":
        Path(path).write_text(json.dumps([rec.to_dict() for rec in records], indent=2) + "\n")
        return
    if fmt != "csv":
        raise ConfigError(f"format: expected 'csv' or 'json', got {fmt!r}")
    rows = [CSV_COLUMNS]
    for rec in records:
        rep, checks = rec.report, rec.bounds
        rows.append([
            rec.scenario,
            _fmt(rec.params.get("N")),
            _fmt(rec.params.get("d_eff")),
            _fmt(rec.params.get("D_G")),
            _fmt(rep.epsilon if rep else None),
            _fmt(rep.mean_distinguishability if rep else None),
            _fmt(rep.standard_error if rep else None),
            _fmt(checks["thm5-spectral"].value),
            _fmt(checks["thm3-mixing"].value),
            checks["thm1-sufficiency"].status,
            checks["thm2-necessity"].status,
            rep.verdict if rep else "error",
            _fmt(rec.seed),
        ])
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def load_records(path) -> list[RunRecord]:
    """The records of a JSON report that ``emit_report`` wrote. A malformed
    file is a ConfigError naming the file, or the field of record k as
    ``records[k].<field>``."""
    data = _read_json(Path(path))
    if not isinstance(data, list):
        raise ConfigError(f"{path}: expected a JSON list of records, got {type(data).__name__}")
    return [RunRecord.from_dict(d, f"records[{k}]") for k, d in enumerate(data)]


# --- built-in verification suite ----------------------------------------------

def builtin_scenarios(overrides: dict | None = None) -> list[Scenario]:
    """Compact scenario suite touching every bound; used by `equilib verify`.
    ``overrides`` is applied to every scenario as in ``load_scenario``."""
    sigma_x_plus = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
    sigma_x_minus = [[[0.5, 0.0], [-0.5, 0.0]], [[-0.5, 0.0], [0.5, 0.0]]]

    def mat(rows):
        return {
            "rows": len(rows),
            "cols": len(rows),
            "data": [list(pair) for row in rows for pair in row],
        }

    configs = [
        {
            "name": "qubit-benchmark",
            "kind": "quantum",
            "epsilon": 0.35,
            "average": {"horizon": "auto", "samples": 10_000, "seed": 11},
            "system": {
                "hamiltonian": {"eigenvalues": [0.0, 1.0]},
                "state": {"matrix": mat(sigma_x_plus)},
            },
            "measurement": {"povm": [mat(sigma_x_plus), mat(sigma_x_minus)]},
        },
        {
            "name": "quantum-generic",
            "kind": "quantum",
            "epsilon": 0.4,
            "average": {"horizon": "auto", "samples": 3000, "seed": 5},
            "system": {"sampler": {"dim": 8, "seed": 21, "spectrum": "generic", "state": "pure"}},
            "measurement": {"sampler": {"name": "projective", "outcomes": 3, "seed": 22}},
            "sweep": {"system.sampler.seed": [21, 23, 25]},
        },
        {
            "name": "quantum-ladder-mixed",
            "kind": "quantum",
            "epsilon": 0.5,
            "average": {"horizon": "auto", "samples": 3000, "seed": 6},
            "system": {
                "sampler": {"dim": 6, "seed": 31, "spectrum": "equally-spaced", "state": "mixed"}
            },
            "measurement": {"sampler": {"name": "random", "outcomes": 4, "seed": 32}},
        },
        {
            "name": "classical-golden-rotation",
            "kind": "classical-pure",
            "epsilon": 0.3,
            "average": {"horizon": 4096, "samples": 4096, "scheme": "uniform-grid", "seed": 0},
            "system": {"map": {"name": "rotation", "angles": [0.6180339887498949]},
                       "point": [0.123]},
            "measurement": {"partition": {"kind": "interval", "edges": [0.0, 0.5, 1.0]}},
        },
        {
            "name": "classical-cat-pure",
            "kind": "classical-pure",
            "epsilon": 0.2,
            "average": {"horizon": 4096, "samples": 4096, "scheme": "uniform-grid", "seed": 0},
            "system": {"map": {"name": "cat-map"}, "point": [0.2137, 0.5821]},
            "measurement": {
                "partition": {"kind": "grid", "edges": [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]]}
            },
        },
        {
            "name": "classical-ensemble-cat",
            "kind": "classical-ensemble",
            "epsilon": 0.45,
            "average": {"horizon": 1024, "samples": 1024, "scheme": "uniform-grid", "seed": 0},
            "system": {
                "map": {"name": "cat-map"},
                "ensemble": {"sampler": {"name": "contaminated-cat", "count": 600,
                                          "delta": 0.1, "seed": 41, "lattice": 4}},
            },
            "measurement": {
                "partition": {"kind": "grid", "edges": [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]]}
            },
        },
        {
            "name": "synthetic-uneven",
            "kind": "synthetic-probe",
            "epsilon": 0.2,
            "average": {"horizon": 500.0, "samples": 2000, "seed": 9},
            "system": {"probe": {"outcomes": 5, "seed": 51, "dominant_weight": 0.95,
                                  "amplitude": 0.4}},
        },
    ]
    return [load_scenario(cfg, overrides=overrides) for cfg in configs]
