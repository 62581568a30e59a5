"""Classical dynamics on the unit torus with partition-valued measurements.

A classical system here is an invertible map on [0,1)^d, a partition of the
torus into cells (the measurement: each pure state deterministically hits
exactly one cell), and either a single phase point or a weighted point cloud
standing in for a smooth density. Time is discrete; the time average is the
orbit average over integer steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Iterator, Sequence

import numpy as np

from . import core
from .core import (
    DimensionError,
    DomainError,
    OutcomeDistribution,
    TimeAverageConfig,
    TrajectoryProbe,
    THRESHOLD_SLACK,
    check_epsilon,
    sample_times,
    seeded_rng,
    typed_array,
    typed_scalar,
)

WEIGHT_TOL = 1e-9      # ensemble weights must sum to 1 within this
MAX_LATTICE = 2**52    # largest cat-map lattice denominator with exact orbits


@dataclass(frozen=True)
class InvertibleMap:
    """Reversible discrete-time dynamics on the torus, stepped forward only,
    since time averages run over t >= 0.

    ``forward_many(rows, out, scratch)`` steps a cloud held as coordinate
    rows: the three arguments are C-contiguous (dim, n) float arrays that
    share no memory. It reads ``rows`` and leaves them as they are, writes
    the wrapped step into ``out``, may overwrite ``scratch``, and returns
    nothing, so the orbit engine steps a cloud straight into its block.
    ``forward_point`` is the step of one point as a tuple of Python floats,
    returning a new tuple; for every point of the torus it gives the bits of
    the one-column ``forward_many``, so a one-point orbit is the same
    whichever kernel steps it.

    ``leap(rows, out, steps)``, where a map has one, takes a cloud many
    steps at once. ``rows`` and ``out`` are C-contiguous (dim, n) float
    arrays that share no memory, and ``rows`` is left as it is. On True
    ``out`` holds the cloud ``steps`` steps on, with the bits of ``steps``
    calls of ``forward_many``; on False nothing was written, and the cloud
    must be stepped one call at a time.
    """

    name: str
    dim: int
    forward_many: Callable[[np.ndarray, np.ndarray, np.ndarray], None]
    forward_point: Callable[[tuple[float, ...]], tuple[float, ...]]
    leap: Callable[[np.ndarray, np.ndarray, int], bool] | None = None


def _wrapped(v: np.ndarray) -> np.ndarray:
    """``v`` mod 1, in place. For finite entries ``v - floor(v)`` is bit for
    bit numpy's ``v % 1.0``, negative entries and -0.0 included, and much
    cheaper. The cloud kernels wrap their output the same way, with the
    floor in their scratch rows: ``np.floor(out, out=scratch); out -=
    scratch``.

    The point kernels wrap one float with Python's ``v % 1.0``, which gives
    the same bits: an exact fmod, then at most one rounded addition of 1.0,
    so the one rounding of the exact ``v - floor(v)``, and a zero is +0.0 in
    both. (``v - math.floor(v)`` is not: math.floor returns an int, and
    -0.0 - 0 stays -0.0.)
    """
    v -= np.floor(v)
    return v


# The cat map's matrix, C-ordered. It acts on the coordinate rows of a cloud,
# ``np.dot(M, rows, out=out)``: every entry is 1 or 2, so each output entry is
# one rounded sum of two exact products, whatever order BLAS adds them in. At
# these sizes a step costs mostly dispatch: ``np.dot`` enters the same dgemm
# as ``@`` without the matmul ufunc's overhead, it writes the product straight
# into the orbit engine's block slot, and the wrap runs in place on it.
_CAT = np.array([[2.0, 1.0], [1.0, 1.0]])

# On coordinates in [-1, 1] that are multiples of 2**-51 every operation of
# the float cat kernel is exact: 2x + y is a multiple of 2**-51 below 4 in
# magnitude, so it needs at most 53 significant bits, and the floor and its
# subtraction are exact too. There the float map is the integer cat map mod
# _SITES on k = x * _SITES, whatever order BLAS adds in, and a cloud it wraps
# into [0, 1) stays on that lattice.
_SITES = 2**51


@lru_cache
def _cat_power(steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns, as (2, 1) int64 arrays, of the cat matrix to the power
    ``steps`` mod 2**51, found by squaring in Python ints."""

    def times(m, n):
        (a, b), (c, d) = m
        (e, f), (g, h) = n
        return (((a * e + b * g) % _SITES, (a * f + b * h) % _SITES),
                ((c * e + d * g) % _SITES, (c * f + d * h) % _SITES))

    power, square = ((1, 0), (0, 1)), ((2, 1), (1, 1))
    while steps:
        if steps & 1:
            power = times(power, square)
        square = times(square, square)
        steps >>= 1
    (a, b), (c, d) = power
    columns = np.array([[[a], [c]], [[b], [d]]], dtype=np.int64)
    columns.setflags(write=False)
    return columns[0], columns[1]


def _cat_leap(rows: np.ndarray, out: np.ndarray, steps: int) -> bool:
    """``steps`` float cat steps of a cloud on the 2**-51 lattice, as one
    integer matrix power; False, writing nothing, for a cloud off it."""
    scaled = rows * _SITES
    if not (np.abs(scaled).max() <= _SITES and (np.floor(scaled) == scaled).all()):
        return False
    k = scaled.astype(np.int64)
    first, second = _cat_power(steps)
    # int64 products wrap mod 2**64, which 2**51 divides, and the mask takes
    # the residue mod 2**51 of negative sums too
    moved = first * k[0]
    moved += second * k[1]
    moved &= _SITES - 1
    np.multiply(moved, 1.0 / _SITES, out=out)
    return True


def rotation_map(angles: Sequence[float] | float) -> InvertibleMap:
    """Rigid rotation of the torus: x -> x + angles (mod 1), per coordinate.

    Irrational angles give equidistributing (but never mixing) orbits;
    rational angles give periodic ones. The non-chaotic control case.
    """
    shift = np.array(typed_array(angles, "angles"), ndmin=1)
    if shift.ndim != 1 or shift.size == 0:
        raise DomainError("rotation needs a nonempty list of angles")

    column = shift[:, None]

    def fwd(rows: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        np.add(rows, column, out=out)
        np.floor(out, out=scratch)
        out -= scratch

    shifts = tuple(shift.tolist())
    if len(shifts) == 1:
        # the circle steps without building a list: 0.2 us a step, not 0.75
        (a,) = shifts

        def fwd_point(coords: tuple[float, ...]) -> tuple[float, ...]:
            return ((coords[0] + a) % 1.0,)
    else:
        def fwd_point(coords: tuple[float, ...]) -> tuple[float, ...]:
            return tuple([(x + a) % 1.0 for x, a in zip(coords, shifts)])

    label = ",".join(f"{a:g}" for a in shift)
    return InvertibleMap(f"rotation({label})", shift.size, fwd, fwd_point)


def cat_map(lattice: int | None = None) -> InvertibleMap:
    """Arnold's cat map on the 2-torus: (x, y) -> (2x + y, x + y) mod 1.

    Hyperbolic and mixing. Without ``lattice`` each step rounds 2x + y and
    x + y to doubles, which moves a random point onto the lattice of
    multiples of 2**-51 within some 50-75 steps; there every step is exact,
    so from then on a double-precision orbit is an exact orbit of the
    integer cat map mod 2**51 (a lattice cat map, itself of period 3 * 2**49
    steps). The map's ``leap`` takes such a cloud any number of steps at
    once, as one matrix power mod 2**51. With ``lattice=q`` the
    map instead acts on the exact rational lattice (k/q, l/q) by integer
    arithmetic mod q, snapping inputs to the nearest lattice point; such
    orbits are exactly periodic, which is how short periodic (non-chaotic)
    trajectories are produced.

    q is at most ``MAX_LATTICE`` = 2**52. Up to there ``rint(k / q * q)``
    recovers every site k: the two roundings err by at most 1/4 each. Above
    it orbits leave the lattice (at q = 3**33, 3% of random k do not come
    back).
    """
    if lattice is None:

        def fwd(rows: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
            np.dot(_CAT, rows, out=out)
            np.floor(out, out=scratch)
            out -= scratch

        def fwd_point(coords: tuple[float, ...]) -> tuple[float, ...]:
            # each entry of the product is one rounded sum of exact terms
            x, y = coords
            return ((x + x + y) % 1.0, (x + y) % 1.0)

        return InvertibleMap("cat-map", 2, fwd, fwd_point, _cat_leap)

    q = typed_scalar(lattice, "lattice", int, least=1)
    if q > MAX_LATTICE:
        raise DomainError(
            f"lattice denominator must be at most 2**52 for exact orbits, got {lattice!r}",
            name="lattice")

    def fwd(rows: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        # (2 kx + ky, kx + ky) mod q on the integer lattice coordinates
        np.multiply(rows, q, out=scratch)
        kx, ky = np.rint(scratch, out=scratch).astype(np.int64)
        np.true_divide((2 * kx + ky) % q, q, out=out[0])
        np.true_divide((kx + ky) % q, q, out=out[1])

    def fwd_point(coords: tuple[float, ...]) -> tuple[float, ...]:
        # Python ints never overflow, nor does the int64 kernel while
        # 3 q < 2**63; k / q is the correctly rounded quotient in both
        kx, ky = round(coords[0] * q), round(coords[1] * q)
        return ((kx + kx + ky) % q / q, (kx + ky) % q / q)

    return InvertibleMap(f"cat-map(lattice={q})", 2, fwd, fwd_point)


def baker_map() -> InvertibleMap:
    """Withdrawn, and raises DomainError. A double is a dyadic rational, so
    doubling x makes it exactly 0 within 53 steps and y then halves toward
    0: every float orbit of the baker map collapses to the origin. The name
    stays only while ``perfbench/tracing.py`` wraps it by name."""
    raise DomainError("the float baker map is withdrawn: every double orbit collapses "
                      "to the origin")


@dataclass(frozen=True, eq=False)
class Partition:
    """Box partition of the torus, the measurement that assigns every phase
    point to one of ``cell_count`` cells.

    ``edges`` holds one read-only float array per coordinate, increasing
    strictly from 0.0 to 1.0; the cells are the boxes of that grid, indexed
    in row-major order. ``cells_of_many`` maps an (..., dim) array of
    points, of any memory layout, to their 0-based cell indices, an array
    of the leading shape: the orbit engine hands it a (steps, n, dim) view
    of its block. The indices are of the narrowest unsigned type that holds
    ``cell_count - 1`` (uint8 up to 256 cells), the type they are counted
    in: an int64 copy would add about a third to the counting, and the
    engine's consumers add them to narrow bin offsets, so the bins reach
    ``np.bincount`` without an int64 array on the way.
    """

    edges: tuple[np.ndarray, ...]
    cells_of_many: Callable[[np.ndarray], np.ndarray]

    @property
    def dim(self) -> int:
        """Number of coordinates the partition reads."""
        return len(self.edges)

    @property
    def cell_count(self) -> int:
        """Number of cells, the product of the axes' interval counts."""
        return math.prod(e.size - 1 for e in self.edges)


def _edges(edges) -> np.ndarray:
    """``edges`` as a read-only float array increasing strictly from 0.0 to 1.0."""
    e = np.array(typed_array(edges, "edges"))
    if e.ndim != 1 or e.size < 2 or e[0] != 0.0 or e[-1] != 1.0 or not np.all(np.diff(e) > 0):
        raise DomainError(f"edges must increase strictly from 0.0 to 1.0, got {e.tolist()!r}")
    e.setflags(write=False)
    return e


# The inner-edge count from which an axis is classified by binary search
# rather than by counting (see _box_partition).
_SEARCH_MIN_EDGES = 128


def _box_partition(axes: tuple[np.ndarray, ...]) -> Partition:
    """The partition into the boxes of the validated edge arrays ``axes``.

    A point's index along an axis is the number of its inner edges strictly
    below the coordinate, for finite values ``searchsorted(inner, x,
    'left')``: a point exactly on an edge goes to the lower-index cell. The
    row-major index is built by Horner's rule over the axes of more than one
    cell, which alone add to it, and counted in the narrowest unsigned type
    that holds ``cell_count - 1``: each factor after the first is then at
    most half the cell count, so it fits that type, where the count of a
    lone axis may not (256 is no uint8, even to scale an index of zeros).
    The index is returned in that type.

    Each axis picks its counter when the partition is built. An axis of
    fewer than ``_SEARCH_MIN_EDGES`` inner edges compares each edge into one
    reused bool array, which a uint8 index adds as its uint8 view, in its
    own type rather than through numpy's casting loop. A wider axis takes
    ``searchsorted(inner, x, 'left')``, whose int64 result fits the index
    type, since it is below the axis's cell count. The two agree on every
    value but NaN, which counts as below every edge and searches as above.
    On the orbit engine's block view a coordinate is a (steps, n) array of
    contiguous rows; there a block of 32 steps of 1000 points took about
    20 us per inner edge counted, against 0.6 ms searched at one inner edge
    and 2.1-2.8 ms at 64-384, and the two met near 128 (2.0 against 2.1 ms;
    2-vCPU Xeon). The partitions in use have at most a few inner edges an
    axis, so they count.
    """
    counts = [e.size - 1 for e in axes]
    factors = [(d, c, e[1:-1], c - 1 >= _SEARCH_MIN_EDGES)
               for d, (c, e) in enumerate(zip(counts, axes)) if c > 1]
    index_type = np.min_scalar_type(math.prod(counts) - 1)

    def cells(pts: np.ndarray) -> np.ndarray:
        if pts.shape[-1] != len(axes):
            raise DimensionError(f"partition is {len(axes)}-d, points are {pts.shape[-1]}-d")
        idx = np.zeros(pts.shape[:-1], dtype=index_type)
        above = np.empty(idx.shape, dtype=bool)
        step = above.view(np.uint8) if index_type == np.uint8 else above
        for i, (d, count, inner, search) in enumerate(factors):
            if i:
                idx *= count
            values = pts[..., d]
            if search:
                np.add(idx, np.searchsorted(inner, values, "left"), out=idx, casting="unsafe")
                continue
            for e in inner:
                np.greater(values, e, out=above)
                idx += step
        return idx

    return Partition(axes, cells)


def interval_partition(edges: Sequence[float]) -> Partition:
    """The one-axis grid: the circle in half-open intervals given by ``edges``.

    ``edges`` must start at 0.0, end at 1.0 and increase strictly; cell j
    covers (edges[j], edges[j+1]], except cell 0 which also owns 0. Points
    exactly on an interior edge belong to the lower-index cell.
    """
    return _box_partition((_edges(edges),))


def grid_partition(edges_by_dim: Sequence[Sequence[float]]) -> Partition:
    """Axis-aligned box partition: a grid with per-dimension edge lists.

    Cells are indexed in row-major order over the grid; edge points go to
    the lower-index cell along each axis.
    """
    axes = tuple(_edges(e) for e in edges_by_dim)
    if len(axes) == 0:
        raise DomainError("grid needs at least one dimension")
    return _box_partition(axes)


# The longest orbit a probe steps. Chaotic maps amplify rounding
# exponentially, so a double-precision orbit soon leaves the exact orbit of
# its start, though not into noise: a float cat orbit becomes an exact
# orbit of the integer cat map mod 2**51 (see cat_map). The cap bounds the
# cost of each orbit, and holds for every map alike, lattice maps included,
# for predictability.
MAX_ORBIT_STEPS = 1_000_000


# The shortest gap between requests that a cloud tries to leap. On a 2-vCPU
# Xeon a 1000-point cat leap took a median 16 us, the same as 6 float steps of
# 2.6 us, and a declined one 6.3 us; a few steps past that break-even, the
# leaps of a cloud still off the lattice cost little.
_LEAP_MIN = 8


def check_orbit_steps(steps: np.ndarray) -> None:
    """Raise DomainError unless the ascending orbit ``steps`` lie in
    [0, MAX_ORBIT_STEPS]."""
    if steps.size and not 0 <= steps[0] <= steps[-1] <= MAX_ORBIT_STEPS:
        raise DomainError(
            f"orbit steps {steps[0]:g} to {steps[-1]:g} outside [0, {MAX_ORBIT_STEPS}], "
            "the cap for double-precision iteration"
        )


def _block_steps(points: np.ndarray, partition: Partition, steps: np.ndarray) -> int:
    """Steps per block of ``_orbit_cells``: as many clouds of ``points``,
    each with its histogram row over the partition's cells, as one chunk of
    entries holds, at least one, at most every step."""
    per_step = points.size + partition.cell_count
    return min(steps.size, max(1, core._CHUNK_ENTRIES // per_step))


def _orbit_cells(
    points: np.ndarray, mapping: InvertibleMap, partition: Partition, steps: np.ndarray
) -> Iterator[np.ndarray]:
    """Cells of the cloud ``points`` at each of the non-decreasing integral
    ``steps``, as ``(k, n)`` blocks of k consecutive requests: the one orbit
    engine. A repeated step takes no map step, but it is classified once
    per request.

    The request is checked before the first step. Then there is one map
    call per step, but for a cloud's leaps, and one ``cells_of_many`` call
    per block, a block buffering clouds and their histogram rows of at most
    one chunk of entries, so the memory held is one block whatever the
    horizon. The buffer is step-major, ``(block, dim, n)``: slot k holds
    the coordinate rows of the block's request k, and the partition reads
    the block as its ``(k, n, dim)`` view, without a copy.

    A cloud steps through ``forward_many`` as C-contiguous coordinate rows.
    The last step of each request's gap writes straight into its slot; the
    steps before it alternate between two scratch rows, with the slot as
    the kernel's scratch, so the engine allocates and copies nothing per
    step. Only a repeated step (or step 0) copies its cloud into the slot,
    and the cloud of a block's last request is carried into the first row
    before the next block overwrites the slots. Across a gap of at least
    ``_LEAP_MIN`` steps a map with a ``leap`` first tries it, from the
    cloud straight into the slot; where it declines, the gap is stepped.
    A float cat cloud declines until it reaches the 2**-51 lattice, within
    some 50-75 steps, and leaps every long gap from then on. On a 2-vCPU
    Xeon, 500 requests 40 steps apart for a 1000-point cloud on 4 cells,
    with their histograms, took a median 11.1-11.3 ms where stepping every
    step took 57-59 ms.

    A single point steps as a tuple of Python floats through
    ``forward_point``, which gives the same bits at a fraction of the cost
    of numpy calls on a one-column array. Per step the walk makes that call
    and extends a list with the new coordinates; the block reaches the
    buffer in one array write, since a numpy store of each step's tuple
    cost more than the step. The walk follows the gaps between requested
    steps, so a run of consecutive steps builds no ``range`` per step. On a
    2-vCPU Xeon, 4,096 consecutive steps with their classification took
    0.8-1.3 ms for the golden rotation and 1.9-2.0 ms for the cat map,
    where a row store per step took 3.0-5.8 ms. The list holds one block of
    float objects, about 32 bytes a coordinate, so it too is bounded by the
    block.
    """
    check_orbit_steps(steps)
    n, dim = points.shape
    block = _block_steps(points, partition, steps)
    buf = np.empty((block, dim, n))
    # each block's steps become Python ints when it is walked, so the ints
    # held are one block's, whatever the sample count
    starts = range(0, steps.size, block or 1)

    def classify(k: int) -> np.ndarray:
        return partition.cells_of_many(buf[:k].transpose(0, 2, 1))

    def point_walk(state, forward=mapping.forward_point):
        for start in starts:
            before = steps[start - 1] if start else 0.0
            gaps = np.diff(steps[start : start + block], prepend=before).astype(np.int64).tolist()
            coords = []
            for gap in gaps:
                if gap == 1:
                    state = forward(state)
                else:
                    for _ in range(gap):
                        state = forward(state)
                coords.extend(state)
            k = len(coords) // dim
            buf[:k, :, 0] = np.array(coords).reshape(k, dim)
            yield classify(k)

    def cloud_walk(forward=mapping.forward_many, leap=mapping.leap, at=0):
        # between blocks the cloud at step ``at`` is held in row a
        a, b = np.empty((2, dim, n))
        a[...] = points.T
        slots = list(buf)
        for start in starts:
            chunk = steps[start : start + block].astype(np.int64).tolist()
            cloud = a
            for slot, step in zip(slots, chunk):
                gap = step - at
                if not gap:
                    slot[...] = cloud
                elif gap < _LEAP_MIN or leap is None or not leap(cloud, slot, gap):
                    if gap > 1:  # a consecutive step builds no range
                        for _ in range(gap - 1):
                            row = b if cloud is a else a
                            forward(cloud, row, slot)
                            cloud = row
                    forward(cloud, slot, b if cloud is a else a)
                cloud, at = slot, step
            a[...] = cloud
            yield classify(len(chunk))

    if n == 1:
        return point_walk(tuple(points[0].tolist()))
    return cloud_walk()


def _cloud_probe(
    points: np.ndarray, weights: np.ndarray, mapping: InvertibleMap, partition: Partition
) -> TrajectoryProbe:
    """Probe of a weighted cloud: its cell histogram at step round(t)."""
    if points.shape[1] != mapping.dim:
        raise DimensionError(f"points are {points.shape[1]}-d, map is {mapping.dim}-d")
    n_cells = partition.cell_count

    def sample_many(times: np.ndarray) -> np.ndarray:
        # the engine walks the requests in time order; each block's rows go
        # straight to the places of its requests
        order = np.argsort(times, kind="stable")
        steps = np.rint(times[order])
        out = np.empty((times.size, n_cells))
        # the weights and bin offsets of a full block; a shorter last block
        # takes their heads. The offsets are of the narrowest unsigned type
        # that holds a block's last bin, so the narrow cells add them
        # without a cast, and the bins stay narrow up to bincount.
        block = _block_steps(points, partition, steps)
        tiled = np.tile(weights, block)
        bin_type = np.min_scalar_type(block * n_cells - 1)
        offsets = np.arange(0, block * n_cells, n_cells, dtype=bin_type)[:, None]
        at = 0
        for cells in _orbit_cells(points, mapping, partition, steps):
            k = len(cells)
            # one bin per (request, cell); bincount adds each bin's weights
            # in point order, as a histogram of each cloud on its own would.
            # The bins are a temporary, so while the next block is classified
            # only this block's cells are held beside the tiled weights.
            out[order[at : at + k]] = np.bincount(
                (cells + offsets[:k]).ravel(), tiled[: k * len(weights)], k * n_cells
            ).reshape(k, n_cells)
            at += k
        # 200,000 weights of 1/n in one cell sum to 1 + 2.3e-12: past the tolerance
        out[out > 1.0 + core.ENTRY_TOL] = 1.0
        return out

    return TrajectoryProbe(sample_many=sample_many, outcome_count=n_cells)


def classical_probe(
    coords: Sequence[float] | np.ndarray | float, mapping: InvertibleMap, partition: Partition
) -> TrajectoryProbe:
    """Probe of a single pure state, its coordinates on the unit torus
    (a scalar is one coordinate), read and wrapped as ``ClassicalEnsemble``
    reads its points: its row at time t is the indicator of the cell
    occupied at step round(t)."""
    point = _wrapped(np.array(typed_array(coords, "coordinates"), ndmin=1))
    if point.ndim != 1 or point.size == 0:
        raise DomainError("a point is a nonempty flat list of coordinates")
    return _cloud_probe(point[None, :], np.ones(1), mapping, partition)


@dataclass(frozen=True, eq=False)
class ClassicalEnsemble:
    """Weighted point cloud standing in for a smooth phase-space density,
    given as an (n, dim) array of coordinates, wrapped onto the torus.

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
        points: Sequence[Sequence[float]] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
        chaotic_flags: Sequence[bool] | np.ndarray | None = None,
    ):
        arr = _wrapped(np.array(typed_array(points, "points")))
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise DomainError("ensemble needs a nonempty (n, dim) point set")
        n = arr.shape[0]
        w = np.full(n, 1.0 / n) if weights is None else np.array(typed_array(weights, "weights"))
        # a cast would count any non-empty string, "false" included, as True
        flags = (np.ones(n, dtype=bool) if chaotic_flags is None
                 else np.array(typed_array(chaotic_flags, "chaotic_flags", bool)))
        if w.shape != (n,) or flags.shape != (n,):
            raise DimensionError("points, weights and chaotic flags must have equal length")
        if w.min() < 0.0:
            raise DomainError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise DomainError(f"weights sum to {total!r}, expected 1 within {WEIGHT_TOL}")
        # each array is a fresh copy, so the ensemble never aliases its caller's
        for name, val in (("points", arr), ("weights", w), ("chaotic_flags", flags)):
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
    """Probe of a mixed classical state: the weight-averaged cell indicator;
    its ``floor`` is the cloud's ``ensemble_noise_floor``."""
    probe = _cloud_probe(ensemble.points, ensemble.weights, mapping, partition)
    return replace(probe, floor=partial(ensemble_noise_floor, ensemble))


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
    check_epsilon(epsilon)
    return omega.max_probability >= 1.0 - epsilon - THRESHOLD_SLACK


def mixed_equilibration_bound(cell_count: int, delta: float) -> float:
    """Guaranteed average-distinguishability bound for mostly-chaotic mixtures.

    ``delta`` is the mixture weight outside the decorrelating subspace; the
    bound sqrt(cell_count * delta / 2) holds whenever delta <= 1/2 and the
    chaotic pairs genuinely decorrelate.
    """
    typed_scalar(cell_count, "cell_count", int, least=1)
    if not 0.0 <= typed_scalar(delta, "delta") <= 0.5:
        raise DomainError(f"delta must lie in [0, 1/2], got {delta!r}", name="delta")
    return math.sqrt(cell_count * delta / 2.0)


def _defects(
    points: np.ndarray,
    mapping: InvertibleMap,
    partition: Partition,
    times: np.ndarray,
    batches: int,
) -> np.ndarray:
    """Correlation defect of each orbit pair (x, y) listed in ``points``, per
    batch of consecutive ascending ``times``: shape (pairs, batches, cells).

    The defect is the per-cell covariance of the two orbits' cell indicators:
    near zero for a decorrelating pair, p_j(1 - p_j) for one orbit twice.

    Over the L samples of a batch the defect of cell j is
    n_xy/L - (n_x/L)(n_y/L), with n_x, n_y and n_xy the counts of samples
    with x in j, y in j and both. The counts are exact integers, so this
    equals the means of 0/1 indicators bit for bit. They are kept
    batch-major, so the batches a block spans are one slice of each row,
    and the block is binned relative to its first batch into that slice
    alone: an audit block spans about 11 of 64 batches.
    """
    n_cells = partition.cell_count
    pairs, per = len(points) // 2, len(times) // batches
    span = pairs * n_cells  # bins per batch
    # the first bin of each sample's batch and of each pair in a batch, of
    # the narrowest unsigned type that holds the last bin, so the narrow
    # cells add them without a cast
    bin_type = np.min_scalar_type(batches * span - 1)
    batch_bin = (np.arange(len(times)) // per * span).astype(bin_type)
    pair_bin = np.arange(0, span, n_cells, dtype=bin_type)
    counts = np.zeros((3, batches * span), dtype=np.int64)
    at = 0
    for cells in _orbit_cells(points, mapping, partition, np.rint(times)):
        k = len(cells)
        x, y = cells[:, 0::2], cells[:, 1::2]
        lo, hi = int(batch_bin[at]), int(batch_bin[at + k - 1]) + span
        bins = (batch_bin[at : at + k, None] - lo) + pair_bin
        x_bins = bins + x
        for row, hits in zip(counts, (x_bins, bins + y, x_bins[x == y])):
            row[lo:hi] += np.bincount(hits.ravel(), minlength=hi - lo)
        at += k
    # divided into a pair-major array: the batch means then reduce the
    # layout they always did, and no third copy of the counts is held
    by_pair = counts.reshape(3, batches, pairs, n_cells).transpose(0, 2, 1, 3)
    n_x, n_y, n_xy = np.divide(by_pair, per, out=np.empty(by_pair.shape))
    return n_xy - n_x * n_y


def _batched_defects(
    points: np.ndarray,
    mapping: InvertibleMap,
    partition: Partition,
    cfg: TimeAverageConfig,
    batches: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch-means defect and standard error of each orbit pair (x, y) listed in ``points``."""
    if typed_scalar(batches, "batches", int) < 2:
        raise DomainError("need at least 2 batches", name="batches")
    times = sample_times(cfg)
    per = times.size // batches
    # one sample makes every batch's covariance 0, whatever the orbits do
    if per < 2:
        raise DomainError(f"need at least 2 samples a batch, got {times.size} samples "
                          f"for {batches} batches")
    per_batch = _defects(points, mapping, partition, times[: per * batches], batches)
    return per_batch.mean(axis=1), per_batch.std(axis=1, ddof=1) / math.sqrt(batches)


def _t_tail(t: float, df: int) -> float:
    """P(|T| > t) for Student's t with integer ``df`` >= 1 degrees of freedom.

    Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df) give
    P(|T| <= t) as a finite sum of powers of c = cos^2(theta), where
    theta = atan(t / sqrt(df)). The same series continued to infinity sums
    to 1, so the tail is its remainder. One minus the finite sum is used
    while the tail is at least 0.1; below that the remainder is summed
    directly, so a small tail is not lost to cancellation.
    """
    r = math.hypot(t, math.sqrt(df))
    sin, cos = t / r, math.sqrt(df) / r
    c = cos * cos
    odd = df % 2 == 1
    # odd df: terms (2k)!!/(2k+1)!! c^k under (2/pi) sin cos, plus (2/pi) theta;
    # even df: terms (2k-1)!!/(2k)!! c^k under sin
    scale = 2.0 / math.pi * sin * cos if odd else sin

    def ratio(k: int) -> float:  # term k+1 over term k
        return c * (2 * k + 2) / (2 * k + 3) if odd else c * (2 * k + 1) / (2 * k + 2)

    term, inside = 1.0, 0.0
    k = (df - 1) // 2 if odd else df // 2
    for j in range(k):
        inside += term
        term *= ratio(j)
    inside *= scale
    if odd:
        inside += 2.0 / math.pi * math.atan2(t, math.sqrt(df))
    if inside <= 0.9:
        return 1.0 - inside
    rest = 0.0
    while term > 1e-17 * rest:
        rest += term
        term *= ratio(k)
        k += 1
    return scale * rest


@lru_cache
def _t_quantile(tail: float, df: int) -> float:
    """The t > 0 with P(|T| > t) = ``tail`` for Student's t with integer
    ``df`` >= 1: the two-sided quantile, by bisection down to adjacent doubles."""
    if not 0.0 < tail < 1.0:
        raise DomainError(f"tail probability must lie in (0, 1), got {tail!r}")
    hi = 1.0
    while _t_tail(hi, df) > tail:
        hi *= 2.0
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if _t_tail(mid, df) > tail:
            lo = mid
        else:
            hi = mid


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

    Two rules keep a pair that shows no decorrelation from passing. Every
    batch needs at least 2 of the ``cfg`` samples, else DomainError: a
    one-sample batch has a covariance of 0 by construction. And a frozen
    pair, whose defect and batch scatter are both zero in every cell, as
    for a pair with a point that never changes cell, fails.
    """
    idx = np.flatnonzero(np.asarray(ensemble.chaotic_flags))
    if idx.size < 2:
        raise DomainError("need at least two chaotic-flagged points to audit")
    if typed_scalar(pair_count, "pair_count", int) < 1:
        raise DomainError(f"need at least one pair to audit, got {pair_count}", name="pair_count")
    if not 0.0 < typed_scalar(family_risk, "family_risk") < 1.0:
        raise DomainError(f"family risk must lie in (0, 1), got {family_risk!r}",
                          name="family_risk")
    if ensemble.dim != mapping.dim:
        raise DimensionError(f"ensemble is {ensemble.dim}-d, map is {mapping.dim}-d")
    rng = seeded_rng(seed)
    pairs = np.concatenate([rng.choice(idx, size=2, replace=False) for _ in range(pair_count)])
    defect, stderr = _batched_defects(ensemble.points[pairs], mapping, partition, cfg, batches)
    # Sidak split of the per-pair risk over the outcomes tested jointly
    per_outcome = 1.0 - (1.0 - family_risk) ** (1.0 / partition.cell_count)
    threshold = _t_quantile(per_outcome, batches - 1)
    z = np.abs(defect) / np.maximum(stderr, 1e-300)
    frozen = np.all((defect == 0.0) & (stderr == 0.0), axis=1)
    passed = int((np.all(z <= threshold, axis=1) & ~frozen).sum())
    return passed / pair_count, pair_count


def _is_sampler_lattice(q: int) -> bool:
    """Whether ``contaminated_cat_ensemble`` takes the integer lattice ``q``:
    a power of two from 2 to 2**51, whose sites the float ``cat_map()``
    keeps exact, as every 2 kx + ky < 3q is an exact double while 3q <= 2**53."""
    return 2 <= q <= 2**51 and q & (q - 1) == 0


def contaminated_cat_ensemble(
    count: int,
    delta: float,
    seed: int,
    lattice: int = 4,
) -> ClassicalEnsemble:
    """Uniform cat-map cloud with a fraction ``delta`` on short periodic orbits.

    The contaminating points sit on the exact rational lattice (k/q, l/q),
    where the cat map is periodic with a short period; they are flagged
    non-chaotic. The points are meant for the plain double-precision
    ``cat_map()``, which keeps them exactly on their orbits only when q is
    a power of two from 2 to 2**51: at q = 3 or 5 one step moves some of
    them up to half a site off the lattice, at 2**52 one step rounds some
    of them to the wrong site, and at q = 1 all sit on the origin's fixed
    point.
    """
    typed_scalar(count, "count", int, least=1)
    if not 0.0 <= typed_scalar(delta, "delta") <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {delta!r}", name="delta")
    if not _is_sampler_lattice(typed_scalar(lattice, "lattice", int)):
        raise DomainError(f"lattice must be a power of two from 2 to 2**51, got {lattice!r}",
                          name="lattice")
    rng = seeded_rng(seed)
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
