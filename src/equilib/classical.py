"""Classical dynamics on the unit torus with partition-valued measurements.

A classical system here is an invertible map on [0,1)^d, a partition of the
torus into cells (the measurement: each pure state deterministically hits
exactly one cell), and either a single phase point or a weighted point cloud
standing in for a smooth density. Time is discrete; the time average is the
orbit average over integer steps.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    DimensionError,
    DomainError,
    OutcomeDistribution,
    TimeAverageConfig,
    TrajectoryProbe,
    THRESHOLD_SLACK,
    sample_times,
)

ROUNDTRIP_TOL = 1e-9   # backward(forward(x)) must return within this, per coordinate
WEIGHT_TOL = 1e-9      # ensemble weights must sum to 1 within this


@dataclass(frozen=True)
class PhasePoint:
    """A pure classical state: coordinates on the unit torus [0, 1)^d."""

    coords: tuple[float, ...]

    def __init__(self, coords: Sequence[float] | float):
        if isinstance(coords, (int, float)):
            coords = (float(coords),)
        wrapped = tuple(float(c) % 1.0 for c in coords)
        if len(wrapped) == 0:
            raise DomainError("a phase point needs at least one coordinate")
        object.__setattr__(self, "coords", wrapped)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.array(self.coords)


def torus_distance(a: PhasePoint, b: PhasePoint) -> float:
    """Max over coordinates of the wrap-around distance."""
    if a.dim != b.dim:
        raise DimensionError("phase points of different dimension")
    diff = np.abs(a.as_array() - b.as_array())
    return float(np.minimum(diff, 1.0 - diff).max())


@dataclass(frozen=True)
class InvertibleMap:
    """Reversible discrete-time dynamics on the torus.

    ``forward``/``backward`` act on single points; ``forward_many`` /
    ``backward_many`` act on an (n, dim) array of points and exist for every
    catalogue map (ensemble evolution would be hopeless point by point).
    ``config`` is the serializable recipe for catalogue maps; compositions
    have none.
    """

    name: str
    dim: int
    forward_many: Callable[[np.ndarray], np.ndarray]
    backward_many: Callable[[np.ndarray], np.ndarray]
    config: dict | None = None

    def forward(self, x: PhasePoint) -> PhasePoint:
        self._check(x)
        return PhasePoint(tuple(self.forward_many(x.as_array()[None, :])[0]))

    def backward(self, x: PhasePoint) -> PhasePoint:
        self._check(x)
        return PhasePoint(tuple(self.backward_many(x.as_array()[None, :])[0]))

    def _check(self, x: PhasePoint) -> None:
        if x.dim != self.dim:
            raise DimensionError(f"map {self.name!r} is {self.dim}-d, point is {x.dim}-d")


def rotation_map(angles: Sequence[float] | float) -> InvertibleMap:
    """Rigid rotation of the torus: x -> x + angles (mod 1), per coordinate.

    Irrational angles give equidistributing (but never mixing) orbits;
    rational angles give periodic ones. The non-chaotic control case.
    """
    if isinstance(angles, (int, float)):
        angles = (float(angles),)
    shift = np.array([float(a) for a in angles])
    if shift.size == 0:
        raise DomainError("rotation needs at least one angle")

    def fwd(pts: np.ndarray) -> np.ndarray:
        return (pts + shift) % 1.0

    def bwd(pts: np.ndarray) -> np.ndarray:
        return (pts - shift) % 1.0

    label = ",".join(f"{a:g}" for a in shift)
    return InvertibleMap(
        f"rotation({label})",
        shift.size,
        fwd,
        bwd,
        config={"name": "rotation", "angles": [float(a) for a in shift]},
    )


_CAT = np.array([[2.0, 1.0], [1.0, 1.0]])
_CAT_INV = np.array([[1.0, -1.0], [-1.0, 2.0]])


def cat_map(lattice: int | None = None) -> InvertibleMap:
    """Arnold's cat map on the 2-torus: (x, y) -> (2x + y, x + y) mod 1.

    Hyperbolic and mixing, so double-precision orbits lose all memory of the
    initial point after ~50 steps; that is fine for statistics but not for
    exact periodicity. With ``lattice=q`` the map instead acts on the exact
    rational lattice (k/q, l/q) by integer arithmetic mod q, snapping inputs
    to the nearest lattice point; such orbits are exactly periodic, which is
    how short periodic (non-chaotic) trajectories are produced.
    """
    if lattice is None:

        def fwd(pts: np.ndarray) -> np.ndarray:
            return (pts @ _CAT.T) % 1.0

        def bwd(pts: np.ndarray) -> np.ndarray:
            return (pts @ _CAT_INV.T) % 1.0

        return InvertibleMap("cat-map", 2, fwd, bwd, config={"name": "cat-map"})

    if lattice < 1:
        raise DomainError(f"lattice denominator must be >= 1, got {lattice}")
    q = int(lattice)
    mat = np.array([[2, 1], [1, 1]], dtype=np.int64)
    inv = np.array([[1, -1], [-1, 2]], dtype=np.int64)

    def fwd(pts: np.ndarray) -> np.ndarray:
        k = np.rint(pts * q).astype(np.int64)
        return ((k @ mat.T) % q) / q

    def bwd(pts: np.ndarray) -> np.ndarray:
        k = np.rint(pts * q).astype(np.int64)
        return ((k @ inv.T) % q) / q

    return InvertibleMap(
        f"cat-map(lattice={q})", 2, fwd, bwd, config={"name": "cat-map", "lattice": q}
    )


def baker_map() -> InvertibleMap:
    """Baker's map on the 2-torus: stretch x by 2, stack the halves in y.

    Invertible away from the measure-zero cut lines.
    """

    def fwd(pts: np.ndarray) -> np.ndarray:
        x, y = pts[:, 0], pts[:, 1]
        half = np.floor(2.0 * x)
        return np.column_stack(((2.0 * x) % 1.0, (y + half) / 2.0 % 1.0))

    def bwd(pts: np.ndarray) -> np.ndarray:
        x, y = pts[:, 0], pts[:, 1]
        half = np.floor(2.0 * y)
        return np.column_stack(((x + half) / 2.0 % 1.0, (2.0 * y) % 1.0))

    return InvertibleMap("baker-map", 2, fwd, bwd, config={"name": "baker-map"})


def compose_maps(*maps: InvertibleMap, name: str | None = None) -> InvertibleMap:
    """Composition of catalogue maps, applied left to right."""
    if len(maps) == 0:
        raise DomainError("compose_maps needs at least one map")
    dim = maps[0].dim
    if any(m.dim != dim for m in maps):
        raise DimensionError("cannot compose maps of different dimension")

    def fwd(pts: np.ndarray) -> np.ndarray:
        for m in maps:
            pts = m.forward_many(pts)
        return pts

    def bwd(pts: np.ndarray) -> np.ndarray:
        for m in reversed(maps):
            pts = m.backward_many(pts)
        return pts

    label = name or "composed(" + ">".join(m.name for m in maps) + ")"
    return InvertibleMap(label, dim, fwd, bwd)


def evolve(x: PhasePoint, mapping: InvertibleMap, steps: int) -> PhasePoint:
    """Apply the map ``steps`` times (backward map for negative steps).

    Purity is preserved by construction: a reversible map sends points to
    points, never to mixtures.
    """
    arr = x.as_array()[None, :]
    step_fn = mapping.forward_many if steps >= 0 else mapping.backward_many
    for _ in range(abs(int(steps))):
        arr = step_fn(arr)
    return PhasePoint(tuple(arr[0]))


@dataclass(frozen=True)
class Partition:
    """Measurement that assigns every phase point to one of ``cell_count`` cells.

    ``cell_of`` maps a point to a 0-based cell index; ``cells_of_many`` is the
    array version used by orbit and ensemble evaluation. ``description``
    records the geometry for serialization.
    """

    cell_count: int
    description: dict
    cells_of_many: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.cell_count < 1:
            raise DomainError("a partition needs at least one cell")

    @property
    def dim(self) -> int:
        """Number of coordinates the partition reads."""
        return len(self.description["edges"]) if self.description["kind"] == "grid" else 1

    def cell_of(self, x: PhasePoint) -> int:
        return int(self.cells_of_many(x.as_array()[None, :])[0])


def _axis_index(values: np.ndarray, inner_edges: np.ndarray) -> np.ndarray:
    # searchsorted(..., 'left') sends a point exactly on an edge to the
    # lower-index cell, the fixed tie-breaking rule for box partitions.
    return np.searchsorted(inner_edges, values, side="left")


def interval_partition(edges: Sequence[float]) -> Partition:
    """Partition of the circle into half-open intervals given by ``edges``.

    ``edges`` must start at 0.0, end at 1.0 and increase strictly; cell j
    covers (edges[j], edges[j+1]], except cell 0 which also owns 0. Points
    exactly on an interior edge belong to the lower-index cell.
    """
    e = np.asarray(edges, dtype=float)
    if e.ndim != 1 or e.size < 2 or e[0] != 0.0 or e[-1] != 1.0 or np.any(np.diff(e) <= 0):
        raise DomainError("edges must increase strictly from 0.0 to 1.0")
    inner = e[1:-1]
    count = e.size - 1

    def cells(pts: np.ndarray) -> np.ndarray:
        if pts.shape[1] != 1:
            raise DimensionError(f"partition is 1-d, points are {pts.shape[1]}-d")
        return _axis_index(pts[:, 0], inner)

    return Partition(
        cell_count=count,
        description={"kind": "interval", "edges": [float(v) for v in e]},
        cells_of_many=cells,
    )


def grid_partition(edges_by_dim: Sequence[Sequence[float]]) -> Partition:
    """Axis-aligned box partition: a grid with per-dimension edge lists.

    Cells are indexed in row-major order over the grid; edge points go to
    the lower-index cell along each axis.
    """
    axes = [np.asarray(e, dtype=float) for e in edges_by_dim]
    if len(axes) == 0:
        raise DomainError("grid needs at least one dimension")
    for e in axes:
        if e.ndim != 1 or e.size < 2 or e[0] != 0.0 or e[-1] != 1.0 or np.any(np.diff(e) <= 0):
            raise DomainError("each edge list must increase strictly from 0.0 to 1.0")
    counts = [e.size - 1 for e in axes]
    total = int(np.prod(counts))
    inners = [e[1:-1] for e in axes]

    def cells(pts: np.ndarray) -> np.ndarray:
        if pts.shape[1] != len(axes):
            raise DimensionError(f"partition is {len(axes)}-d, points are {pts.shape[1]}-d")
        idx = np.zeros(pts.shape[0], dtype=np.int64)
        for d, inner in enumerate(inners):
            idx = idx * counts[d] + _axis_index(pts[:, d], inner)
        return idx

    return Partition(
        cell_count=total,
        description={"kind": "grid", "edges": [[float(v) for v in e] for e in axes]},
        cells_of_many=cells,
    )


# Chaotic maps amplify rounding exponentially; beyond this many steps a
# double-precision orbit is pure noise, so probes refuse to go there.
# Lattice arithmetic (cat_map(lattice=q)) is exempt from the concern but the
# cap is enforced uniformly for predictability.
MAX_ORBIT_STEPS = 1_000_000


def _orbit(points: np.ndarray, mapping: InvertibleMap, steps) -> Iterator[np.ndarray]:
    """The cloud ``points`` at each distinct step of ``steps``, ascending: the
    one orbit engine. The request is checked before the first step; then one
    ``forward_many`` call per step, holding only the current cloud."""
    steps = np.unique(steps)
    if steps.size and not 0 <= steps[0] <= steps[-1] <= MAX_ORBIT_STEPS:
        raise DomainError(
            f"orbit steps {steps[0]:g} to {steps[-1]:g} outside [0, {MAX_ORBIT_STEPS}], "
            "the cap for double-precision iteration"
        )

    def walk(cloud=points, at=0):
        for step in steps.astype(np.int64):
            for _ in range(step - at):
                cloud = mapping.forward_many(cloud)
            at = step
            yield cloud

    return walk()


def _orbit_rows(points: np.ndarray, mapping: InvertibleMap, times, row) -> np.ndarray:
    """``row(cloud)`` for the cloud at step round(t), for each of ``times``."""
    steps, where = np.unique(np.rint(np.asarray(times, dtype=float)), return_inverse=True)
    return np.array([row(cloud) for cloud in _orbit(points, mapping, steps)])[where]


def _cloud_probe(
    points: np.ndarray, weights: np.ndarray, mapping: InvertibleMap, partition: Partition
) -> TrajectoryProbe:
    """Probe of a weighted cloud: its cell histogram at step round(t)."""
    if points.shape[1] != mapping.dim:
        raise DimensionError(f"points are {points.shape[1]}-d, map is {mapping.dim}-d")
    n_cells = partition.cell_count

    def histogram(cloud: np.ndarray) -> np.ndarray:
        return np.bincount(partition.cells_of_many(cloud), weights=weights, minlength=n_cells)

    def sample_many(times: np.ndarray) -> np.ndarray:
        return _orbit_rows(points, mapping, times, histogram)

    return TrajectoryProbe(sample_many=sample_many, outcome_count=n_cells)


def classical_probe(
    x: PhasePoint, mapping: InvertibleMap, partition: Partition
) -> TrajectoryProbe:
    """Probe of a single pure state: sample(t) is the indicator of the cell
    occupied at step round(t)."""
    return _cloud_probe(x.as_array()[None, :], np.ones(1), mapping, partition)


@dataclass(frozen=True, eq=False)
class ClassicalEnsemble:
    """Weighted point cloud standing in for a smooth phase-space density.

    The cloud is a quadrature of a continuous density (point masses proper
    are excluded by the theory), so any estimate made through it carries a
    resolution floor of order sqrt(sum of squared weights); see
    ``ensemble_noise_floor``. ``chaotic_flags`` records which points are
    meant to populate the decorrelating subspace; it is an input, audited
    empirically by ``decorrelation_audit``, not derived.
    """

    points: np.ndarray          # (n, dim)
    weights: np.ndarray         # (n,)
    chaotic_flags: np.ndarray   # (n,) bool

    def __init__(
        self,
        points: Sequence[PhasePoint] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
        chaotic_flags: Sequence[bool] | np.ndarray | None = None,
    ):
        if len(points) and isinstance(points[0], PhasePoint):
            arr = np.array([p.coords for p in points], dtype=float)
        else:
            arr = np.asarray(points, dtype=float) % 1.0
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise DomainError("ensemble needs a nonempty (n, dim) point set")
        n = arr.shape[0]
        w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
        flags = (
            np.ones(n, dtype=bool)
            if chaotic_flags is None
            else np.asarray(chaotic_flags, dtype=bool)
        )
        if w.shape != (n,) or flags.shape != (n,):
            raise DimensionError("points, weights and chaotic flags must have equal length")
        if w.min() < 0.0:
            raise DomainError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise DomainError(f"weights sum to {w.sum()!r}, expected 1 within {WEIGHT_TOL}")
        for name, val in (("points", arr), ("weights", w), ("chaotic_flags", flags)):
            val = val.copy()
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def periodic_weight(self) -> float:
        """Total weight outside the chaotic subspace (the delta of the
        mixed-state bound)."""
        return float(self.weights[~self.chaotic_flags].sum())


def ensemble_probe(
    ensemble: ClassicalEnsemble, mapping: InvertibleMap, partition: Partition
) -> TrajectoryProbe:
    """Probe of a mixed classical state: the weight-averaged cell indicator."""
    return _cloud_probe(ensemble.points, ensemble.weights, mapping, partition)


def ensemble_noise_floor(ensemble: ClassicalEnsemble, omega: OutcomeDistribution) -> float:
    """Resolution floor a finite cloud imposes on distinguishability estimates.

    With cloud-averaged probabilities the per-outcome quadrature noise has
    standard deviation sqrt(omega_j (1 - omega_j) sum_i w_i^2); its expected
    absolute contribution to the half-L1 distance, summed over outcomes, is
    returned here. Estimates of the average distinguishability of an ensemble
    probe are biased upward by at most this amount, so it belongs in the
    reported standard error.
    """
    w2 = float(np.sum(np.asarray(ensemble.weights) ** 2))
    p = omega.probs
    return 0.5 * math.sqrt(2.0 / math.pi) * float(np.sum(np.sqrt(np.clip(p * (1 - p), 0, None) * w2)))


def pure_average_distinguishability(omega: OutcomeDistribution) -> float:
    """Exact infinite-time average distinguishability of a classical pure state.

    A deterministic-outcome trajectory with occupation vector ``omega`` has
    time-averaged distinguishability from its own average of exactly
    1 - sum_j omega_j^2, whatever the dynamics.
    """
    return 1.0 - float(np.sum(omega.probs**2))


def check_necessity(omega: OutcomeDistribution, epsilon: float) -> bool:
    """Necessary condition for classical pure-state equilibration.

    Returns False only when no classical pure state with equilibrium
    distribution ``omega`` can epsilon-equilibrate: the dominant cell must
    carry weight at least 1 - epsilon. True does not promise equilibration.
    """
    if not 0.0 <= epsilon < 1.0:
        raise DomainError(f"epsilon must lie in [0, 1), got {epsilon!r}")
    return omega.max_probability >= 1.0 - epsilon - THRESHOLD_SLACK


def mixed_equilibration_bound(cell_count: int, delta: float) -> float:
    """Guaranteed average-distinguishability bound for mostly-chaotic mixtures.

    ``delta`` is the mixture weight outside the decorrelating subspace; the
    bound sqrt(cell_count * delta / 2) holds whenever delta <= 1/2 and the
    chaotic pairs genuinely decorrelate.
    """
    if cell_count < 1:
        raise DomainError(f"cell count must be >= 1, got {cell_count}")
    if not 0.0 <= delta <= 0.5:
        raise DomainError(f"delta must lie in [0, 1/2], got {delta!r}")
    return math.sqrt(cell_count * delta / 2.0)


def _pair(x: PhasePoint, y: PhasePoint, mapping: InvertibleMap) -> np.ndarray:
    mapping._check(x)
    mapping._check(y)
    return np.array([x.coords, y.coords])


def _batched_defects(
    points: np.ndarray,
    mapping: InvertibleMap,
    partition: Partition,
    cfg: TimeAverageConfig,
    batches: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch-means defect and standard error of each orbit pair (x, y) listed in ``points``."""
    if batches < 2:
        raise DomainError("need at least 2 batches")
    times = sample_times(cfg)
    usable = (times.size // batches) * batches
    if usable == 0:
        raise DomainError("fewer samples than batches")
    cells = _orbit_rows(points, mapping, times[:usable], partition.cells_of_many)
    # cell indicators, (pair, x|y, batch, sample in batch, cell)
    ind = np.eye(partition.cell_count)[cells.T].reshape(
        -1, 2, batches, usable // batches, partition.cell_count)
    bxs, bys = ind[:, 0], ind[:, 1]
    per_batch = (bxs * bys).mean(axis=2) - bxs.mean(axis=2) * bys.mean(axis=2)
    return per_batch.mean(axis=1), per_batch.std(axis=1, ddof=1) / math.sqrt(batches)


def correlation_defect(
    x: PhasePoint,
    y: PhasePoint,
    mapping: InvertibleMap,
    partition: Partition,
    cfg: TimeAverageConfig,
) -> np.ndarray:
    """Per-outcome covariance of two orbits' cell indicators over time.

    Estimates <p_j(x_t) p_j(y_t)> - <p_j(x_t)><p_j(y_t)> on the sampled
    steps. A near-zero vector is the signature of a decorrelating
    (chaotic-subspace) pair; same-orbit pairs return p_j(1 - p_j).
    """
    cells = _orbit_rows(_pair(x, y, mapping), mapping, sample_times(cfg), partition.cells_of_many)
    bx, by = np.eye(partition.cell_count)[cells.T]
    return (bx * by).mean(axis=0) - bx.mean(axis=0) * by.mean(axis=0)


def correlation_defect_batched(
    x: PhasePoint,
    y: PhasePoint,
    mapping: InvertibleMap,
    partition: Partition,
    cfg: TimeAverageConfig,
    batches: int = 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Correlation defect plus a batch-means standard error per outcome.

    The sampled steps are split into ``batches`` contiguous blocks; the
    defect is computed per block and the spread of block values gives a
    standard error that tolerates serial correlation in the orbits.
    """
    defect, stderr = _batched_defects(_pair(x, y, mapping), mapping, partition, cfg, batches)
    return defect[0], stderr[0]


def decorrelation_audit(
    ensemble: ClassicalEnsemble,
    mapping: InvertibleMap,
    partition: Partition,
    cfg: TimeAverageConfig,
    pair_count: int = 100,
    seed: int = 0,
    batches: int = 64,
    family_risk: float = 1e-3,
) -> tuple[float, int]:
    """Empirical audit of the chaotic-subspace hypothesis.

    Samples ``pair_count`` distinct pairs of chaotic-flagged points and tests
    each pair's correlation defect against zero, outcome by outcome, at a
    batch-means t threshold corrected (Sidak) so the per-pair false-alarm
    rate is ``family_risk``. Returns (fraction of pairs consistent with
    zero, number of pairs tested).
    """
    from scipy.special import stdtrit

    idx = np.flatnonzero(np.asarray(ensemble.chaotic_flags))
    if idx.size < 2:
        raise DomainError("need at least two chaotic-flagged points to audit")
    if pair_count < 1:
        raise DomainError(f"need at least one pair to audit, got {pair_count}")
    if ensemble.dim != mapping.dim:
        raise DimensionError(f"ensemble is {ensemble.dim}-d, map is {mapping.dim}-d")
    rng = np.random.default_rng(seed)
    pairs = np.concatenate([rng.choice(idx, size=2, replace=False) for _ in range(pair_count)])
    defect, stderr = _batched_defects(ensemble.points[pairs], mapping, partition, cfg, batches)
    # Sidak split of the per-pair risk over the outcomes tested jointly
    per_outcome = 1.0 - (1.0 - family_risk) ** (1.0 / partition.cell_count)
    threshold = float(stdtrit(batches - 1, 1.0 - per_outcome / 2.0))  # t quantile
    z = np.abs(defect) / np.maximum(stderr, 1e-300)
    passed = int(np.all(z <= threshold, axis=1).sum())
    return passed / pair_count, pair_count


def contaminated_cat_ensemble(
    count: int,
    delta: float,
    seed: int,
    lattice: int = 4,
) -> ClassicalEnsemble:
    """Uniform cat-map cloud with a fraction ``delta`` on short periodic orbits.

    The contaminating points sit on the exact rational lattice (k/q, l/q),
    where the cat map is periodic with a short period; they are flagged
    non-chaotic. Pair with ``cat_map()`` for the bulk and note the lattice
    points stay exactly periodic even under the plain double-precision map
    when q is a power of two.
    """
    if count < 1:
        raise DomainError("ensemble needs at least one point")
    if not 0.0 <= delta <= 1.0:
        raise DomainError("delta must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    n_periodic = int(round(delta * count))
    n_chaotic = count - n_periodic
    pts = rng.random((n_chaotic, 2))
    lattice_sites = rng.integers(0, lattice, size=(n_periodic, 2))
    # avoid the fixed point at the origin, which never changes cell
    stuck = (lattice_sites == 0).all(axis=1)
    lattice_sites[stuck, 0] = 1
    periodic = lattice_sites / lattice
    points = np.vstack([pts, periodic])
    flags = np.concatenate([np.ones(n_chaotic, bool), np.zeros(n_periodic, bool)])
    return ClassicalEnsemble(points, None, flags)


def write_orbit_csv(
    x: PhasePoint,
    mapping: InvertibleMap,
    partition: Partition,
    steps: int,
    path,
) -> None:
    """Dump an orbit as CSV rows (step, coord..., cell)."""
    if steps < 1:
        raise DomainError("need at least one step")
    orbit = _orbit(x.as_array()[None, :], mapping, np.arange(steps))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [f"coord{d}" for d in range(x.dim)] + ["cell"])
        for k, state in enumerate(orbit):
            cell = int(partition.cells_of_many(state)[0])
            writer.writerow([k] + [f"{v:.17g}" for v in state[0]] + [cell])


# --- scenario-config serialization -----------------------------------------

def map_to_config(mapping: InvertibleMap) -> dict:
    if mapping.config is None:
        raise DomainError(
            f"map {mapping.name!r} has no config form (composed maps are not serializable)"
        )
    return dict(mapping.config)


def map_from_config(cfg: dict, path: str = "map") -> InvertibleMap:
    from .core import ConfigError

    name = cfg.get("name")
    if name == "rotation":
        if "angles" not in cfg:
            raise ConfigError(f"{path}.angles: required for rotation")
        return rotation_map(cfg["angles"])
    if name == "cat-map":
        return cat_map(cfg.get("lattice"))
    if name == "baker-map":
        return baker_map()
    raise ConfigError(f"{path}.name: unknown map {name!r}")


def partition_to_config(partition: Partition) -> dict:
    return dict(partition.description)


def partition_from_config(cfg: dict, path: str = "partition") -> Partition:
    from .core import ConfigError

    kind = cfg.get("kind")
    try:
        if kind == "interval":
            return interval_partition(cfg["edges"])
        if kind == "grid":
            return grid_partition(cfg["edges"])
    except KeyError:
        raise ConfigError(f"{path}.edges: required") from None
    except DomainError as exc:
        raise ConfigError(f"{path}.edges: {exc}") from None
    raise ConfigError(f"{path}.kind: unknown partition kind {kind!r}")
