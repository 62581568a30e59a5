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
import itertools
import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import classical, quantum
from .core import (
    MAX_SAMPLES,
    ConfigError,
    OutcomeDistribution,
    EquilibrationReport,
    TimeAverageConfig,
    TrajectoryProbe,
    check_sufficiency,
    equilibration_report,
    sample_times,
    synthetic_probe,
    typed_array,
)

KINDS = ("quantum", "classical-pure", "classical-ensemble", "synthetic-probe")

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
    """One executed sweep point: parameters, measurement, bound statuses."""

    scenario: str
    params: dict
    report: EquilibrationReport | None
    bounds: dict[str, BoundCheck]
    wall_time: float
    seed: int
    error: str | None = None

    def __post_init__(self):
        missing = [name for name in BOUND_NAMES if name not in self.bounds]
        if missing:
            raise ConfigError(f"record is missing bound entries: {missing}")

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
        """The record ``to_dict`` wrote; a missing or malformed field is a
        ConfigError naming it under ``path``."""
        data = _obj(data, path)
        rep = None
        if data.get("report") is not None:
            rpath = f"{path}.report"
            r = _obj(data["report"], rpath)
            values = {key: _number(r, key, rpath)
                      for key in ("mean_distinguishability", "standard_error", "epsilon")}
            vpath = f"{rpath}.bound_values"
            bound = _obj(_require(r, "bound_values", rpath), vpath)
            values["bound_values"] = {name: _number(bound, name, vpath) for name in bound}
            omega = _entries(r, "equilibrium_distribution", rpath)
            with _field(f"{rpath}.equilibrium_distribution"):
                omega = OutcomeDistribution(omega)
            with _field(rpath):
                rep = EquilibrationReport(**values, equilibrium_distribution=omega,
                                          verdict=_require(r, "verdict", rpath))
        bpath = f"{path}.bounds"
        bounds = {}
        for name, chk in _obj(_require(data, "bounds", path), bpath).items():
            cpath = f"{bpath}.{name}"
            chk = _obj(chk, cpath)
            value = None if _require(chk, "value", cpath) is None else _number(chk, "value", cpath)
            bounds[name] = BoundCheck(value, _require(chk, "status", cpath))
        fields = {key: _require(data, key, path) for key in ("scenario", "params")}
        fields.update(wall_time=_number(data, "wall_time", path), seed=_seed(data, path))
        try:
            return RunRecord(report=rep, bounds=bounds, error=data.get("error"), **fields)
        except ConfigError as exc:
            raise ConfigError(f"{bpath}: {exc}") from None


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: the raw config, the expanded sweep grid and, per
    point, its runtime or numeric build failure with the build's seconds."""

    name: str
    kind: str
    config: dict
    sweep_points: tuple[dict, ...] = field(default_factory=tuple)
    built: tuple[tuple[_Runtime | _Failure, float], ...] = field(
        default=(), compare=False, repr=False)


# --- config parsing ----------------------------------------------------------

def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: required")
    return cfg[key]


def _obj(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, got {type(node).__name__}")
    return node


def _number(cfg: dict, key: str, path: str) -> float:
    value = _require(cfg, key, path)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected a number, got {type(value).__name__}")
    with _field(f"{path}.{key}"):
        if not math.isfinite(value):
            raise ValueError(f"must be finite, got {value!r}")
        return float(value)


def _integer(cfg: dict, key: str, path: str, least: float = -math.inf,
             most: float = math.inf, default: int | None = None) -> int:
    """``cfg[key]`` as an integer from ``least`` to ``most`` (an integral
    float counts); required when no default is given."""
    value = _require(cfg, key, path) if default is None else cfg.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{path}.{key}: must be at least {least}, got {value}")
    if value > most:
        raise ConfigError(f"{path}.{key}: must be at most {most}, got {value}")
    return value


def _seed(cfg: dict, path: str, default: int | None = None) -> int:
    """``cfg["seed"]``, an integer >= 0."""
    return _integer(cfg, "seed", path, 0, default=default)


@contextlib.contextmanager
def _field(path: str):
    """Decode the config field ``path``: a TypeError, ValueError or
    OverflowError raised inside becomes a ConfigError naming it; a
    ConfigError passes through."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _entries(
    cfg: dict, key: str, path: str, dtype: type = float, optional: bool = False
) -> np.ndarray | None:
    """``cfg[key]``, a nested list of JSON numbers (or, for ``dtype`` bool,
    JSON booleans), as the array ``typed_array`` reads, by its rule; absent
    or null, it is None when ``optional`` and an error otherwise."""
    if cfg.get(key) is None:
        if optional:
            return None
        raise ConfigError(f"{path}.{key}: required")
    with _field(f"{path}.{key}"):
        return typed_array(cfg[key], key, dtype)


def _pairs(cfg: dict, key: str, path: str) -> np.ndarray:
    """``cfg[key]``, a list of [real, imag] number pairs, as a complex vector
    holding exactly ``complex(real, imag)`` of each pair, signed zeros
    included (``real + 1j * imag`` would not)."""
    parts = _entries(cfg, key, path)
    if parts.ndim != 2 or parts.shape[1] != 2:
        raise ConfigError(f"{path}.{key}: entries must be (real, imag) pairs")
    values = np.empty(len(parts), dtype=complex)
    values.real, values.imag = parts.T
    return values


def _absolutize_file_refs(node, base_dir: Path) -> None:
    """Rewrite relative {"file": ...} matrix references against the config's
    own directory, in place."""
    if isinstance(node, dict):
        ref = node.get("file")
        if isinstance(ref, str) and not Path(ref).is_absolute():
            node["file"] = str(base_dir / ref)
        for value in node.values():
            _absolutize_file_refs(value, base_dir)
    elif isinstance(node, list):
        for value in node:
            _absolutize_file_refs(value, base_dir)


def load_scenario(
    source: dict | str | Path, name: str | None = None, overrides: dict | None = None
) -> Scenario:
    """Parse and validate a scenario from a dict or a JSON file path.

    ``overrides`` maps dotted config paths to values set on the raw config
    before validation, under any sweep grid; ``source`` is not modified.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        name = name or path.stem
        if isinstance(raw, dict):
            _absolutize_file_refs(raw, path.resolve().parent)
    else:
        raw = source
    if not isinstance(raw, dict):
        raise ConfigError("scenario: expected a JSON object")
    if overrides:
        raw = _apply_overrides(raw, overrides)
    name = raw.get("name", name or "scenario")
    if not isinstance(name, str):
        raise ConfigError(f"scenario.name: expected a string, got {type(name).__name__}")
    kind = _require(raw, "kind", "scenario")
    if kind not in KINDS:
        raise ConfigError(f"scenario.kind: unknown kind {kind!r}, expected one of {KINDS}")
    # the base epsilon must be there, but only the epsilon a point is built
    # with is checked, in _build_runtime: a sweep may replace the base's
    for key in ("epsilon", "average", "system"):
        _require(raw, key, "scenario")
    if kind != "synthetic-probe":
        _require(raw, "measurement", "scenario")
    sweep = raw.get("sweep", None)
    points: list[dict]
    if sweep is None:
        points = [{}]
    else:
        if not isinstance(sweep, dict):
            raise ConfigError("scenario.sweep: expected an object of path -> value list")
        keys = sorted(sweep)
        if "kind" in sweep:
            raise ConfigError("scenario.sweep.kind: the scenario kind cannot be swept")
        for k in keys:
            if not isinstance(sweep[k], list):
                raise ConfigError(f"scenario.sweep.{k}: expected a list of values")
        points = [
            dict(zip(keys, combo))
            for combo in itertools.product(*(sweep[k] for k in keys))
        ]
    # every sweep point is built once, before any run starts, and checks the
    # epsilon it is built with; numeric failures are kept for run_scenario to
    # record. An empty grid still validates the base config.
    built = []
    for point in points or [{}]:
        resolved = _apply_overrides(raw, point)
        start = time.perf_counter()
        try:
            rt = _build_runtime(resolved)
        except ConfigError:
            raise
        except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
            avg = _obj(resolved["average"], "scenario.average")
            seed = _seed(avg, "scenario.average", 0)
            rt = _Failure(f"{type(exc).__name__}: {exc}", seed)
        built.append((rt, time.perf_counter() - start))
    return Scenario(name=name, kind=kind, config=raw, sweep_points=tuple(points),
                    built=tuple(built[:len(points)]))


def _apply_overrides(raw: dict, overrides: dict) -> dict:
    """A copy of ``raw`` with each dotted path set to its value; an absent or
    null node on the way is created, any other non-object one is an error."""
    cfg = copy.deepcopy(raw)
    for dotted, value in overrides.items():
        node = cfg
        parts = dotted.split(".")
        for k, part in enumerate(parts[:-1]):
            if node.get(part) is None:
                node[part] = {}
            node = _obj(node[part], ".".join(["scenario", *parts[:k + 1]]))
        node[parts[-1]] = value
    return cfg


def _average_config(cfg: dict, sample_bytes: int, spectrum=None) -> TimeAverageConfig:
    """A sample time costs ``sample_bytes``: with N outcomes, 24 (N + 3) for
    the estimator's rows and the time (tracemalloc: 24-25 N + 16-56)."""
    path = "scenario.average"
    avg = _obj(cfg["average"], path)
    samples = _integer(avg, "samples", path, 2, min(MAX_SAMPLES, MAX_BYTES // sample_bytes))
    seed = _seed(avg, path, 0)
    scheme = avg.get("scheme", "stratified-random")
    horizon = avg.get("horizon", "auto")
    if horizon == "auto":
        if spectrum is None:
            raise ConfigError(f"{path}.horizon: 'auto' is only available for quantum scenarios")
        horizon = quantum.default_average_config(spectrum).horizon
    else:
        horizon = _number(avg, "horizon", path)
    with _field(path):
        return TimeAverageConfig(horizon=horizon, samples=samples, scheme=scheme, seed=seed)


@dataclass(frozen=True)
class _Runtime:
    """Everything needed to execute one resolved sweep point.

    ``params`` go into the point's record. ``bound_values`` holds the value
    of every bound that applies to the point, by name; universal sufficiency
    applies to all and comes first. ``quadrature_error_of`` maps the measured
    equilibrium distribution to the resolution floor of a
    quadrature-discretized probe (0 for exact probes); it is evaluated at run
    time, never at load.
    """

    probe: TrajectoryProbe
    cfg: TimeAverageConfig
    epsilon: float
    params: dict
    bound_values: dict[str, float]
    quadrature_error_of: Callable[[OutcomeDistribution], float] | None = None

    def __post_init__(self):
        universal = {"thm1-sufficiency": 1.0 - self.epsilon / 2.0}
        object.__setattr__(self, "bound_values", {**universal, **self.bound_values})


@dataclass(frozen=True)
class _Failure:
    """A sweep point whose build failed numerically, as its record shows it."""

    error: str
    seed: int


def _matrix_node(node, path: str) -> np.ndarray:
    """A matrix given as {"rows", "cols", "data"}, its entries [real, imag]
    pairs in row-major order; inline, or in the JSON file {"file": ...}."""
    node = _obj(node, path)
    if "file" in node:
        with _field(f"{path}.file"):
            ref = Path(node["file"])
        try:
            inner = json.loads(ref.read_text())
        except OSError as exc:
            raise ConfigError(f"{path}.file: cannot read {ref} ({exc})") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}.file: invalid JSON in {ref} ({exc})") from None
        node = _obj(inner, path)
    rows, cols = (_integer(node, key, path, 1) for key in ("rows", "cols"))
    data = _pairs(node, "data", path)
    if data.size != rows * cols:
        raise ConfigError(f"{path}.data: expected {rows * cols} pairs, got {data.size}")
    return data.reshape(rows, cols)


def _map_node(node, path: str) -> classical.InvertibleMap:
    """A catalogue map: {"name": "rotation", "angles": [...]}, {"name":
    "cat-map", "lattice": q} (lattice optional) or {"name": "baker-map"}."""
    node = _obj(node, path)
    name = node.get("name")
    if name == "baker-map":
        return classical.baker_map()
    if name == "rotation":
        angles = _require(node, "angles", path)
        with _field(f"{path}.angles"):
            return classical.rotation_map(angles)
    if name == "cat-map":
        with _field(f"{path}.lattice"):
            return classical.cat_map(node.get("lattice"))
    raise ConfigError(f"{path}.name: unknown map {name!r}")


def _partition_node(node, path: str) -> classical.Partition:
    """A box partition: {"kind": "interval", "edges": [...]} on the circle,
    or {"kind": "grid", "edges": [[...], ...]} with one edge list per
    coordinate, the lists that ``Partition.edges`` holds as arrays."""
    node = _obj(node, path)
    kind = node.get("kind")
    if kind not in ("interval", "grid"):
        raise ConfigError(f"{path}.kind: unknown partition kind {kind!r}")
    edges = _require(node, "edges", path)
    with _field(f"{path}.edges"):
        if kind == "interval":
            return classical.interval_partition(edges)
        return classical.grid_partition(edges)


def _build_quantum(cfg: dict, epsilon: float) -> _Runtime:
    system = _obj(cfg["system"], "scenario.system")
    meas = _obj(cfg["measurement"], "scenario.measurement")
    gap_tol = None if cfg.get("gap_tol") is None else _number(cfg, "gap_tol", "scenario")
    # 8 complex d x d matrices beside the outcomes' (tracemalloc: 9.1 in all at N = 1)
    most_dim = math.isqrt(MAX_BYTES // 128)
    path = "scenario.system"
    if "sampler" in system:
        s = _obj(system["sampler"], f"{path}.sampler")
        dim = _integer(s, "dim", f"{path}.sampler", 1, most_dim)
        seed = _seed(s, f"{path}.sampler")
        spec_kind = s.get("spectrum", "generic")
        spacing = _number(s, "spacing", f"{path}.sampler") if "spacing" in s else 1.0
        if not (spacing > 0 and math.isfinite(spacing * (dim - 1))):
            raise ConfigError(f"{path}.sampler.spacing: must be > 0 with a finite "
                              f"spacing * (dim - 1), got {spacing!r}")
        with _field(f"{path}.sampler.spectrum"):
            spectrum = quantum.random_spectrum(dim, seed, spec_kind, spacing)
        state_kind = s.get("state", "pure")
        if state_kind == "pure":
            rho = quantum.random_pure_state(dim, seed + 1)
        elif state_kind == "mixed":
            rho = quantum.random_mixed_state(dim, seed + 1)
        else:
            raise ConfigError(f"{path}.sampler.state: expected 'pure' or 'mixed'")
    else:
        ham = _obj(_require(system, "hamiltonian", path), f"{path}.hamiltonian")
        if "eigenvalues" in ham:
            vals = _entries(ham, "eigenvalues", f"{path}.hamiltonian")
            _integer({"eigenvalues": vals.size}, "eigenvalues", f"{path}.hamiltonian", 0, most_dim)
            vecs = None
            if "eigenvectors" in ham:
                vecs = _matrix_node(ham["eigenvectors"], f"{path}.hamiltonian.eigenvectors")
            with _field(f"{path}.hamiltonian"):
                spectrum = quantum.HamiltonianSpectrum(vals, vecs)
        else:
            mat = _matrix_node(_require(ham, "matrix", f"{path}.hamiltonian"),
                               f"{path}.hamiltonian.matrix")
            with _field(f"{path}.hamiltonian.matrix"):
                spectrum = quantum.HamiltonianSpectrum.from_matrix(mat)
        state = _obj(_require(system, "state", path), f"{path}.state")
        with _field(f"{path}.state"):
            if "vector" in state:
                psi = _pairs(state, "vector", f"{path}.state")
                _integer({"vector": psi.size}, "vector", f"{path}.state", 0, most_dim)
                rho = quantum.DensityMatrix.from_vector(psi)
            else:
                rho = quantum.DensityMatrix(
                    _matrix_node(_require(state, "matrix", f"{path}.state"), f"{path}.state.matrix")
                )

    mpath = "scenario.measurement"
    if "sampler" in meas:
        s = _obj(meas["sampler"], f"{mpath}.sampler")
        # 3 complex d x (d + 2) matrices an outcome (tracemalloc: 2.0-3.06 d x d, 5.25 at d 2)
        outcomes = _integer(s, "outcomes", f"{mpath}.sampler", 1,
                            MAX_BYTES // (48 * spectrum.dim * (spectrum.dim + 2)))
        seed = _seed(s, f"{mpath}.sampler")
        name = s.get("name", "random")
        with _field(f"{mpath}.sampler"):
            if name == "random":
                povm = quantum.random_povm(spectrum.dim, outcomes, seed)
            elif name == "projective":
                povm = quantum.projective_povm(spectrum.dim, outcomes, seed)
            elif name == "uneven":
                povm = quantum.uneven_povm(
                    spectrum.dim, outcomes, _number(s, "leak", f"{mpath}.sampler"), seed
                )
            else:
                raise ConfigError(f"{mpath}.sampler.name: unknown sampler {name!r}")
    else:
        elements = _require(meas, "povm", mpath)
        if not isinstance(elements, list) or not elements:
            raise ConfigError(f"{mpath}.povm: expected a nonempty list of matrices")
        with _field(f"{mpath}.povm"):
            povm = quantum.POVM(
                [_matrix_node(el, f"{mpath}.povm[{k}]") for k, el in enumerate(elements)]
            )

    if povm.dim != spectrum.dim or rho.dim != spectrum.dim:
        raise ConfigError(
            "scenario: inconsistent dimensions "
            f"(state {rho.dim}, hamiltonian {spectrum.dim}, measurement {povm.dim})"
        )
    probe = quantum.quantum_probe(rho, spectrum, povm)
    avg = _average_config(cfg, 24 * (povm.outcome_count + 3), spectrum)
    d_eff = quantum.effective_dimension(rho, spectrum)
    with _field("scenario.gap_tol"):
        table = quantum.gap_table(spectrum, gap_tol)
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


def _orbit_average_config(cfg: dict, cell_count: int) -> TimeAverageConfig:
    """The averaging of a classical point on ``cell_count`` cells, whose
    orbit must reach the step of its last sample time within the cap."""
    avg = _average_config(cfg, 24 * (cell_count + 3))
    with _field("scenario.average.horizon"):
        classical.check_orbit_steps(np.rint(sample_times(avg)[[0, -1]]))
    return avg


def _map_and_partition(cfg: dict) -> tuple[dict, classical.InvertibleMap, classical.Partition]:
    system = _obj(cfg["system"], "scenario.system")
    meas = _obj(cfg["measurement"], "scenario.measurement")
    mapping = _map_node(_require(system, "map", "scenario.system"), "scenario.system.map")
    path = "scenario.measurement.partition"
    partition = _partition_node(_require(meas, "partition", "scenario.measurement"), path)
    if partition.dim != mapping.dim:
        raise ConfigError(f"{path}: {partition.dim}-d partition for {mapping.dim}-d map")
    return system, mapping, partition


def _build_classical_pure(cfg: dict, epsilon: float) -> _Runtime:
    system, mapping, partition = _map_and_partition(cfg)
    point_cfg = _require(system, "point", "scenario.system")
    with _field("scenario.system.point"):
        point = classical.PhasePoint(point_cfg)
    if point.dim != mapping.dim:
        raise ConfigError(
            f"scenario.system.point: {point.dim}-d point for {mapping.dim}-d map"
        )
    probe = classical.classical_probe(point, mapping, partition)
    params = {"N": partition.cell_count, "map": mapping.name}
    return _Runtime(probe, _orbit_average_config(cfg, partition.cell_count), epsilon, params,
                    {"thm2-necessity": 1.0 - epsilon})


def _build_classical_ensemble(cfg: dict, epsilon: float) -> _Runtime:
    system, mapping, partition = _map_and_partition(cfg)
    ens_cfg = _obj(_require(system, "ensemble", "scenario.system"), "scenario.system.ensemble")
    path = "scenario.system.ensemble"
    with _field(path):
        if "sampler" in ens_cfg:
            sp = f"{path}.sampler"
            s = _obj(ens_cfg["sampler"], sp)
            if s.get("name", "contaminated-cat") != "contaminated-cat":
                raise ConfigError(f"{sp}.name: unknown sampler {s.get('name')!r}")
            # 128 bytes a point (tracemalloc: 84 at build, 105 through a run)
            count, delta = _integer(s, "count", sp, 1, MAX_BYTES // 128), _number(s, "delta", sp)
            seed, lattice = _seed(s, sp), _integer(s, "lattice", sp, default=4)
            if not 0.0 <= delta <= 1.0:
                raise ConfigError(f"{sp}.delta: must lie in [0, 1], got {delta!r}")
            if not classical.is_sampler_lattice(lattice):
                raise ConfigError(
                    f"{sp}.lattice: must be a power of two from 2 to 2**51, got {lattice!r}"
                )
            ensemble = classical.contaminated_cat_ensemble(count, delta, seed, lattice)
        else:
            ensemble = classical.ClassicalEnsemble(
                _entries(ens_cfg, "points", path),
                _entries(ens_cfg, "weights", path, optional=True),
                _entries(ens_cfg, "chaotic_flags", path, bool, optional=True),
            )
    if ensemble.dim != mapping.dim:
        raise ConfigError(f"{path}: {ensemble.dim}-d points for {mapping.dim}-d map")
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
    return _Runtime(
        probe,
        _orbit_average_config(cfg, partition.cell_count),
        epsilon,
        params,
        bounds,
        # the cloud resolves distinguishability only down to its own
        # sampling noise, which belongs in the reported standard error
        quadrature_error_of=lambda omega: classical.ensemble_noise_floor(ensemble, omega),
    )


def _build_synthetic(cfg: dict, epsilon: float) -> _Runtime:
    system = _obj(cfg["system"], "scenario.system")
    recipe = _obj(_require(system, "probe", "scenario.system"), "scenario.system.probe")
    path = "scenario.system.probe"
    # at build 32 bytes an outcome, 16 an outcome-mode (tracemalloc: 24-32, 14-17); + 2 rows
    outcomes = _integer(recipe, "outcomes", path, 1, MAX_BYTES // (32 + 2 * 24))
    seed = _seed(recipe, path)
    mode_count = _integer(recipe, "mode_count", path, 0,
                          MAX_BYTES // ((16 + 2 * 16) * (outcomes + 1)), default=3)
    dominant_weight = (
        None if recipe.get("dominant_weight") is None
        else _number(recipe, "dominant_weight", path)
    )
    amplitude = _number(recipe, "amplitude", path) if "amplitude" in recipe else 0.6
    with _field(path):
        probe = synthetic_probe(
            outcomes=outcomes,
            seed=seed,
            dominant_weight=dominant_weight,
            mode_count=mode_count,
            amplitude=amplitude,
        )
    # a time's phases and cosines add 16 bytes an outcome-mode (tracemalloc: 15-16)
    avg = _average_config(cfg, 24 * (outcomes + 3) + 16 * (outcomes + 1) * mode_count)
    return _Runtime(probe, avg, epsilon, {"N": probe.outcome_count}, {})


_BUILDERS = {
    "quantum": _build_quantum,
    "classical-pure": _build_classical_pure,
    "classical-ensemble": _build_classical_ensemble,
    "synthetic-probe": _build_synthetic,
}


def _build_runtime(cfg: dict) -> _Runtime:
    """Build one point; its epsilon is decoded here, once, as a float."""
    epsilon = _number(cfg, "epsilon", "scenario")
    if not 0.0 <= epsilon < 1.0:
        raise ConfigError(f"scenario.epsilon: must lie in [0, 1), got {epsilon!r}")
    return _BUILDERS[cfg["kind"]](cfg, epsilon)


# --- execution ---------------------------------------------------------------

def _evaluate_bounds(report: EquilibrationReport) -> dict[str, BoundCheck]:
    """Check each bound in ``report.bound_values`` by its theorem's rule;
    every other bound is not-applicable."""
    mean = report.mean_distinguishability
    err = report.standard_error
    eps = report.epsilon
    omega = report.equilibrium_distribution
    checks = {name: BoundCheck(value=None, status=STATUS_NA) for name in BOUND_NAMES}
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


def _measure(rt: _Runtime, overrides: dict) -> tuple[EquilibrationReport, dict, dict]:
    """Sample one built point: its report, bound checks and record params."""
    params = {**overrides, **rt.params}
    report = equilibration_report(rt.probe, rt.epsilon, rt.cfg, rt.bound_values,
                                  rt.quadrature_error_of)
    if rt.quadrature_error_of is not None:
        params["quadrature_floor"] = rt.quadrature_error_of(report.equilibrium_distribution)
    return report, _evaluate_bounds(report), params


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
        checks = {name: BoundCheck(None, STATUS_NA) for name in BOUND_NAMES}
        if isinstance(rt, _Failure):
            seed, error = rt.seed, rt.error
        else:
            seed = rt.cfg.seed
            if "epsilon" in params:
                # the float the point was built with, not the swept JSON number
                params["epsilon"] = rt.epsilon
            try:
                report, checks, params = _measure(rt, params)
            except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        records.append(
            RunRecord(
                scenario=scenario.name,
                params=_plain(params),
                report=report,
                bounds=checks,
                wall_time=build_s + time.perf_counter() - start,
                seed=seed,
                error=error,
            )
        )
    return records


def _plain(obj):
    """Recursively convert numpy scalars so records serialize and compare cleanly."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


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
    """Write records as plot-ready CSV (fixed column order) or verbatim JSON."""
    if fmt == "json":
        Path(path).write_text(json.dumps([rec.to_dict() for rec in records], indent=2) + "\n")
        return
    if fmt != "csv":
        raise ConfigError(f"format: expected 'csv' or 'json', got {fmt!r}")
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        rep = rec.report
        row = [
            rec.scenario,
            _fmt(rec.params.get("N")),
            _fmt(rec.params.get("d_eff")),
            _fmt(rec.params.get("D_G")),
            _fmt(rep.epsilon if rep else None),
            _fmt(rep.mean_distinguishability if rep else None),
            _fmt(rep.standard_error if rep else None),
            _fmt(rec.bounds["thm5-spectral"].value),
            _fmt(rec.bounds["thm3-mixing"].value),
            rec.bounds["thm1-sufficiency"].status,
            rec.bounds["thm2-necessity"].status,
            rep.verdict if rep else "error",
            _fmt(rec.seed),
        ]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_records(path) -> list[RunRecord]:
    """The records of a JSON report that ``emit_report`` wrote. A malformed
    file is a ConfigError naming the file, or the field of record k as
    ``records[k].<field>``."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
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
            "data": [pair for row in rows for pair in row],
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
