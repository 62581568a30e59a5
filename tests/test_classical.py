"""Classical maps, partitions, probes and the pure/mixed-state results."""

import bisect
import collections
import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from equilib import classical, core
from equilib.bench import _map_node, _Node, _partition_node
from equilib.classical import (
    MAX_ORBIT_STEPS,
    ClassicalEnsemble,
    InvertibleMap,
    cat_map,
    check_necessity,
    classical_probe,
    contaminated_cat_ensemble,
    decorrelation_audit,
    ensemble_noise_floor,
    ensemble_probe,
    grid_partition,
    interval_partition,
    mixed_equilibration_bound,
    pure_average_distinguishability,
    rotation_map,
)
from equilib.core import (
    ConfigError,
    DimensionError,
    DomainError,
    OutcomeDistribution,
    TimeAverageConfig,
    sample_times,
    time_average_distribution,
)

GOLDEN = (math.sqrt(5) - 1) / 2

STEPS = lambda m: TimeAverageConfig(horizon=m, samples=m, scheme="uniform-grid")  # noqa: E731
QUADRANTS = grid_partition([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])


def forward(mapping, pts):
    """One ``forward_many`` step of the (n, dim) cloud ``pts``: the kernel
    steps a C-contiguous copy of its coordinate rows into fresh rows, and
    the stepped cloud comes back as an (n, dim) view of them."""
    rows = np.array(np.asarray(pts, dtype=float).T, order="C")
    out, scratch = np.empty_like(rows), np.empty_like(rows)
    mapping.forward_many(rows, out, scratch)
    return out.T


def counting_map(mapping):
    """``mapping`` with a ``forward_many`` and a ``forward_point`` that log
    each call's point count (1 for a point)."""
    calls = []

    def forward_many(rows, out, scratch):
        calls.append(rows.shape[1])
        mapping.forward_many(rows, out, scratch)

    def forward_point(coords):
        calls.append(1)
        return mapping.forward_point(coords)

    counted = dataclasses.replace(mapping, forward_many=forward_many, forward_point=forward_point)
    return counted, calls


def counting_partition(partition):
    """``partition`` with a ``cells_of_many`` that logs each call's leading
    shape: (steps, points) for an orbit block."""
    calls = []

    def cells_of_many(pts):
        calls.append(pts.shape[:-1])
        return partition.cells_of_many(pts)

    return dataclasses.replace(partition, cells_of_many=cells_of_many), calls


def compose(*maps):
    """The maps applied left to right."""

    def fwd(rows, out, scratch):
        for m in maps[:-1]:
            stepped = np.empty_like(rows)
            m.forward_many(rows, stepped, scratch)
            rows = stepped
        maps[-1].forward_many(rows, out, scratch)

    def fwd_point(coords):
        for m in maps:
            coords = m.forward_point(coords)
        return coords

    name = "composed(" + ">".join(m.name for m in maps) + ")"
    return InvertibleMap(name, maps[0].dim, fwd, fwd_point)


def cell_of(partition, coords):
    """The cell of one phase point."""
    return int(partition.cells_of_many(np.array(coords, dtype=float, ndmin=2))[0])


def iterate(coords, step, steps):
    """``coords`` after ``steps`` applications of ``step``, a function of an
    (n, dim) cloud."""
    pts = np.array([coords], dtype=float)
    for _ in range(steps):
        pts = step(pts)
    return pts[0]


def wrap_distance(a, b):
    """Max over coordinates of the wrap-around distance."""
    diff = np.abs(np.asarray(a) - np.asarray(b))
    return float(np.minimum(diff, 1.0 - diff).max())


def same_bits(a, b):
    """Equal shapes and identical float64 bit patterns (so -0.0 != 0.0)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# The formulas the map kernels replaced, kept as their oracle: a matrix
# product or a shift, then numpy's floor-mod.
CAT = np.array([[2.0, 1.0], [1.0, 1.0]])
CAT_INV = np.array([[1.0, -1.0], [-1.0, 2.0]])


def reference_lattice(pts, mat, q):
    k = np.rint(pts * q).astype(np.int64)
    return ((k @ mat.astype(np.int64).T) % q) / q


# Maps step forward only; the round-trip tests step back through these.
def cat_inverse(pts):
    return (pts @ CAT_INV.T) % 1.0


# The reference loops step the float cat map and the 2**20 lattice cat map,
# the exact 2-d kernel without a leap, by their formulas, so an engine test
# does not check a kernel against itself.
REFERENCE_STEPS = {"cat-map": lambda pts: (pts @ CAT.T) % 1.0,
                   "cat-map(lattice=1048576)": lambda pts: reference_lattice(pts, CAT, 2**20)}


def reference_cells(points, mapping, partition, times):
    """Cells of the cloud at each step round(t), classified one step at a time."""
    steps = np.rint(times).astype(np.int64)
    step_cloud = REFERENCE_STEPS.get(mapping.name, partial(forward, mapping))
    cloud, at, by_step = points, 0, {}
    for step in sorted(set(steps.tolist())):
        for _ in range(step - at):
            cloud = step_cloud(cloud)
        at = step
        by_step[step] = partition.cells_of_many(cloud)
    return np.array([by_step[step] for step in steps])


def reference_block(points, weights, mapping, partition, times):
    """One weighted histogram per time."""
    return np.array([
        np.bincount(cells, weights=weights, minlength=partition.cell_count)
        for cells in reference_cells(points, mapping, partition, times)
    ])


def reference_defects(points, mapping, partition, times, batches):
    """The one-hot form of the batched defects: indicator tensors, then means."""
    cells = reference_cells(points, mapping, partition, times)
    n_cells, per = partition.cell_count, len(times) // batches
    ind = np.eye(n_cells)[cells.T].reshape(-1, 2, batches, per, n_cells)
    bxs, bys = ind[:, 0], ind[:, 1]
    return (bxs * bys).mean(axis=2) - bxs.mean(axis=2) * bys.mean(axis=2)


class TestPointCoordinates:
    """``classical_probe`` reads a point's coordinates as ``ClassicalEnsemble``
    reads its points, by ``typed_array``, and wraps them onto the torus."""

    @staticmethod
    def start(coords, mapping=cat_map(), partition=QUADRANTS):
        """The point the probe of ``coords`` classifies at step 0."""
        recorder, seen = recording_partition(partition)
        classical_probe(coords, mapping, recorder).distributions_at([0.0])
        return tuple(seen[0][0].tolist())

    def test_wraps(self):
        assert self.start((1.25, -0.25)) == (0.25, 0.75)

    def test_scalar(self):
        part = interval_partition([0.0, 0.5, 1.0])
        assert self.start(0.5, rotation_map(GOLDEN), part) == (0.5,)

    def test_empty(self):
        with pytest.raises(DomainError):
            classical_probe((), cat_map(), QUADRANTS)

    def test_nested(self):
        # one point is one flat list, as a scenario's system.point is
        with pytest.raises(DomainError, match="flat list"):
            classical_probe([[0.2, 0.6]], cat_map(), QUADRANTS)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # inf % 1.0 is nan, so an unchecked point would carry nan into every orbit
        with pytest.raises(DomainError, match="finite"):
            classical_probe((bad, 0.3), cat_map(), QUADRANTS)

    @pytest.mark.parametrize(
        "bad", [["0.2", "0.6"], [True, 0.6], [0.2, np.True_], True, "0.3"],
        ids=["strings", "boolean", "numpy-boolean", "scalar-boolean", "scalar-string"],
    )
    def test_non_numbers_rejected(self, bad):
        # float() would read "0.2" as 0.2 and True as 1.0
        with pytest.raises(DomainError, match="coordinates must be numbers"):
            classical_probe(bad, cat_map(), QUADRANTS)


class TestMaps:
    def test_evolve_zero_steps(self):
        # step 0 of an orbit is the initial point, reached without a map call
        mapping, calls = counting_map(rotation_map(0.1))
        probe = classical_probe(0.3, mapping, interval_partition([0.0, 0.5, 1.0]))
        assert probe.distributions_at([0.0])[0].tolist() == [1.0, 0.0]
        assert calls == []

    def test_rotation_example(self):
        # 0.1 + 2 * 0.25 mod 1 = 0.6
        out = iterate([0.1], partial(forward, rotation_map(0.25)), 2)
        assert out[0] == pytest.approx(0.6, abs=1e-15)

    def test_negative_steps_are_backward(self):
        x = (0.3, 0.8)
        cm = cat_map()
        assert wrap_distance(iterate(iterate(x, partial(forward, cm), 5), cat_inverse, 5), x) < 1e-12

    @pytest.mark.parametrize(
        "mapping, inverse",
        [
            pytest.param(m, inverse, id=m.name)
            for m, inverse in [
                (rotation_map(GOLDEN), lambda pts: (pts - GOLDEN) % 1.0),
                (rotation_map((0.3, 0.711)), lambda pts: (pts - np.array([0.3, 0.711])) % 1.0),
                (cat_map(), cat_inverse),
                (cat_map(lattice=64), lambda pts: reference_lattice(pts, CAT_INV, 64)),
                (compose(cat_map(), rotation_map((0.3, 0.711))),
                 lambda pts: cat_inverse((pts - np.array([0.3, 0.711])) % 1.0)),
            ]
        ],
    )
    def test_reversibility(self, mapping, inverse):
        rng = np.random.default_rng(7)
        pts = rng.random((1000, mapping.dim))
        if "lattice" in mapping.name:
            pts = np.rint(pts * 64) / 64 % 1.0
        back = inverse(forward(mapping, pts))
        assert wrap_distance(back, pts) < 1e-9

    def test_cat_roundtrip_seven_steps(self):
        x = (0.137, 0.912)
        y = iterate(iterate(x, partial(forward, cat_map()), 7), cat_inverse, 7)
        assert wrap_distance(x, y) < 1e-9

    def test_lattice_cat_is_periodic(self):
        # the cat matrix has order 3 mod 4, so 1/4-lattice orbits close in 3 steps
        m = cat_map(lattice=4)
        x = (0.25, 0.5)
        assert tuple(iterate(x, partial(forward, m), 3)) == x

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            classical_probe(0.5, cat_map(), QUADRANTS)

    @pytest.mark.parametrize(
        "angles",
        [math.nan, [0.25, math.inf], [-math.inf], ["0.25"], "0.25", [True], [], [[0.25]],
         [0.25, True]],
    )
    def test_rotation_angles_must_be_finite_numbers(self, angles):
        # a NaN angle would step a NaN orbit, which no partition cell owns
        with pytest.raises(DomainError, match="angle"):
            rotation_map(angles)

    @pytest.mark.parametrize("lattice", ["4", 2.5, 0, -3, True, math.nan, math.inf, [4]])
    def test_lattice_must_be_an_integer_of_at_least_one(self, lattice):
        with pytest.raises(DomainError, match="lattice"):
            cat_map(lattice=lattice)

    def test_a_float_lattice_is_no_integer(self):
        # the library reads no float as a count; a scenario's integral 8.0 is
        # converted by the config reader
        with pytest.raises(DomainError, match=rf"^lattice must be an integer in \[1, {2**52}\], "
                                              r"got 8\.0$"):
            cat_map(lattice=8.0)
        assert cat_map(lattice=np.int64(8)).name == cat_map(lattice=8).name == "cat-map(lattice=8)"

    @pytest.mark.parametrize("lattice", [2**52 + 1, 3**33, 2**62, 2**63, 2.0**60, np.int64(2**62)])
    def test_lattice_is_at_most_2_to_the_52(self, lattice):
        # a float is no integer, and an integer past 2**52 is out of range:
        # one refusal names both
        rule = rf"^lattice must be an integer in \[1, {2**52}\], got {re.escape(repr(lattice))}$"
        with pytest.raises(DomainError, match=rule) as info:
            cat_map(lattice=lattice)
        assert info.value.name == "lattice"

    def test_lattice_sites_round_trip_up_to_the_bound(self):
        # the map reads a site k/q back as rint(k/q * q); up to 2**52 that is
        # k, whatever q, and above it some k are lost
        rng = np.random.default_rng(52)
        for q in (2**52, 2**52 - 1, 3**32, 2**20 + 7):
            k = np.concatenate([rng.integers(0, q, 50_000), q - 1 - np.arange(1000)])
            assert np.array_equal(np.rint(k / q * q), k), q
        q = 3**33
        k = rng.integers(0, q, 50_000)
        assert not np.array_equal(np.rint(k / q * q), k)
        assert cat_map(lattice=2**52).name == "cat-map(lattice=4503599627370496)"


EDGES = np.array([0.0, np.nextafter(1.0, 0.0), np.nextafter(0.5, 0.0), 0.5, 0.25, 0.75,
                  1 / 3, 1e-300, 5e-324])


def clouds(dim):
    """Random, edge-value and out-of-range clouds of ``dim``-d points."""
    rng = np.random.default_rng(21)
    grid = np.stack(np.meshgrid(*[EDGES] * dim), -1).reshape(-1, dim)
    return {"random": rng.random((2000, dim)), "edges": grid,
            "outside": rng.uniform(-4.0, 4.0, (2000, dim))}


class TestKernels:
    """The map kernels against the matrix-product and floor-mod formulas
    they replaced, bit for bit, negative intermediates included."""

    @pytest.mark.parametrize("label", ["random", "edges", "outside"])
    def test_cat(self, label):
        pts = clouds(2)[label]
        assert same_bits(forward(cat_map(), pts), (pts @ CAT.T) % 1.0)

    # 2**20 is the lattice the engine tests step as their 2-d kernel without
    # a leap, so it is checked against its formula here too
    @pytest.mark.parametrize("q", [4, 7, 64, 2**20])
    @pytest.mark.parametrize("label", ["lattice", "random", "edges"])
    def test_lattice_cat(self, q, label):
        # off-lattice inputs are snapped to the nearest lattice point first
        rng = np.random.default_rng(q)
        pts = rng.integers(0, q, (2000, 2)) / q if label == "lattice" else clouds(2)[label]
        m = cat_map(lattice=q)
        assert same_bits(forward(m, pts), reference_lattice(pts, CAT, q))

    @pytest.mark.parametrize(
        "angles", [(GOLDEN,), (0.3, 0.711), (-0.37, -2.6), (2.71, 1e6 + 0.3), (-1e-20,)]
    )
    @pytest.mark.parametrize("label", ["random", "edges", "outside"])
    def test_rotation(self, angles, label):
        # a shift of -1e-20 takes 0.0 to -1e-20, which both forms round to 1.0
        pts = clouds(len(angles))[label]
        shift = np.array(angles)
        m = rotation_map(angles)
        assert same_bits(forward(m, pts), (pts + shift) % 1.0)

    def test_wrap_of_negatives_and_signed_zero(self):
        v = np.array([-0.0, 0.0, -1e-20, -0.25, -1.0, -2.5, -3.7, 1.0, 2.0**52 + 1, -(2.0**53)])
        assert same_bits(classical._wrapped(v.copy()), v % 1.0)

    def test_long_cat_orbit_matches_reference_loop(self):
        pts = np.random.default_rng(5).random((1000, 2))
        new = ref = pts
        for _ in range(20_000):
            new = forward(cat_map(), new)
            ref = (ref @ CAT.T) % 1.0
        assert same_bits(new, ref)


class TestPartitions:
    def test_interval_cells(self):
        part = interval_partition([0.0, 0.25, 0.75, 1.0])
        assert part.cell_count == 3
        assert cell_of(part, 0.1) == 0
        assert cell_of(part, 0.5) == 1
        assert cell_of(part, 0.9) == 2

    def test_edge_goes_to_lower_cell(self):
        part = interval_partition([0.0, 0.5, 1.0])
        assert cell_of(part, 0.5) == 0
        assert cell_of(part, 0.5 + 1e-12) == 1
        assert cell_of(part, 0.0) == 0

    def test_grid_row_major(self):
        part = grid_partition([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])
        assert part.cell_count == 4
        assert cell_of(part, (0.1, 0.1)) == 0
        assert cell_of(part, (0.1, 0.9)) == 1
        assert cell_of(part, (0.9, 0.1)) == 2
        assert cell_of(part, (0.9, 0.9)) == 3

    def test_covers_space(self):
        part = grid_partition([[0.0, 0.3, 1.0], [0.0, 0.2, 0.9, 1.0]])
        rng = np.random.default_rng(3)
        cells = part.cells_of_many(rng.random((5000, 2)))
        assert cells.min() >= 0 and cells.max() < part.cell_count
        # every cell of this partition has positive measure, so all appear
        assert np.unique(cells).size == part.cell_count

    def test_interval_rejects_points_that_are_not_1d(self):
        part = interval_partition([0.0, 0.5, 1.0])
        assert part.dim == 1
        with pytest.raises(DimensionError):
            part.cells_of_many(np.array([[0.2, 0.7]]))
        with pytest.raises(DimensionError):
            cell_of(part, (0.2, 0.7))
        assert grid_partition([[0.0, 1.0], [0.0, 0.5, 1.0]]).dim == 2

    def test_edges_are_read_only_float_copies(self):
        given = np.array([0, 1, 2, 4]) / 4
        part = grid_partition([given, [0, 1]])
        assert (part.dim, part.cell_count) == (2, 3)
        assert [e.tolist() for e in part.edges] == [[0.0, 0.25, 0.5, 1.0], [0.0, 1.0]]
        assert all(e.dtype == float and not e.flags.writeable for e in part.edges)
        assert given.flags.writeable

    def test_bad_edges(self):
        with pytest.raises(DomainError):
            interval_partition([0.0, 0.5, 0.4, 1.0])
        with pytest.raises(DomainError):
            interval_partition([0.1, 1.0])

    @pytest.mark.parametrize(
        "edges",
        [[0.0, math.nan, 1.0], [0.0, 0.5, math.nan], [0.0, math.inf, 1.0], [0.0, 0.5, 0.5, 1.0],
         ["0", "0.5", "1"], [0.0, "0.5", 1.0], [False, True], [0.0, None, 1.0]],
    )
    def test_edges_must_be_increasing_numbers(self, edges):
        # np.any(np.diff(e) <= 0) is False for a NaN difference; np.all(> 0) is not
        with pytest.raises(DomainError, match="edges"):
            interval_partition(edges)
        with pytest.raises(DomainError, match="edges"):
            grid_partition([[0.0, 0.5, 1.0], edges])


def searchsorted_cells(pts, edges_by_dim):
    """Row-major cell index of each point by ``searchsorted`` on the inner edges."""
    idx = np.zeros(len(pts), dtype=np.int64)
    for d, e in enumerate(edges_by_dim):
        e = np.asarray(e, dtype=float)
        idx = idx * (e.size - 1) + np.searchsorted(e[1:-1], pts[:, d], side="left")
    return idx


class TestCountClassification:
    """Edge counting against ``searchsorted(..., 'left')``, the rule it
    replaced, bit for bit: points on an edge go to the lower cell."""

    EDGE_SETS = [
        [0.0, 1.0],
        [0.0, 0.5, 1.0],
        [0.0, 0.25, 0.5, 0.75, 1.0],
        [0.0, 1e-300, 1 / 3, np.nextafter(0.5, 0.0), 0.5, np.nextafter(1.0, 0.0), 1.0],
        np.linspace(0.0, 1.0, 202).tolist(),  # 200 inner edges
        # the widest counts of a uint8 index and the first of a uint16 one
        np.linspace(0.0, 1.0, 257).tolist(),
        np.linspace(0.0, 1.0, 258).tolist(),
    ]

    @staticmethod
    def values(edges):
        rng = np.random.default_rng(len(edges))
        e = np.asarray(edges)
        return np.concatenate([
            rng.random(3000),
            e,
            np.nextafter(e, -1.0),
            np.nextafter(e, 2.0),
            [0.0, -0.0, np.nextafter(1.0, 0.0), 5e-324],
            rng.uniform(-4.0, 4.0, 3000),
        ])

    @pytest.mark.parametrize("edges", EDGE_SETS, ids=lambda e: f"{len(e) - 2}-inner")
    def test_interval_partition(self, edges):
        pts = self.values(edges)[:, None]
        cells = interval_partition(edges).cells_of_many(pts)
        assert cells.dtype == np.min_scalar_type(len(edges) - 2)
        assert np.array_equal(cells, searchsorted_cells(pts, [edges]))

    @pytest.mark.parametrize("second", EDGE_SETS, ids=lambda e: f"{len(e) - 2}-inner")
    def test_grid_partition(self, second):
        first = self.EDGE_SETS[3]
        rng = np.random.default_rng(9)
        for axes in ([first, second], [second, first], [first, second, self.EDGE_SETS[2]]):
            cloud = np.column_stack([rng.choice(self.values(e), 8000) for e in axes])
            part = grid_partition(axes)
            cells = part.cells_of_many(cloud)
            assert cells.dtype == np.min_scalar_type(part.cell_count - 1)
            assert np.array_equal(cells, searchsorted_cells(cloud, axes))

    # An axis counts below classical._SEARCH_MIN_EDGES inner edges and
    # searches from there, so these grids put one axis on each side of the
    # switch beside a narrow one, in both orders, and read the engine's
    # strided (steps, n, dim) view with points exactly on every inner edge.
    @pytest.mark.parametrize("wide", [classical._SEARCH_MIN_EDGES - 1,
                                      classical._SEARCH_MIN_EDGES, 300])
    def test_a_wide_axis_beside_a_narrow_one(self, wide):
        narrow = [0.0, 0.25, 0.5, np.nextafter(0.75, 1.0), 1.0]
        wide_edges = np.sort(np.random.default_rng(wide).random(wide)).tolist()
        wide_edges = [0.0, *wide_edges, 1.0]
        rng = np.random.default_rng(11)
        size = 4 * len(self.values(wide_edges))
        for axes in ([wide_edges, narrow], [narrow, wide_edges]):
            # each column holds every value of its axis, shuffled
            columns = [rng.permutation(np.resize(self.values(e), size)) for e in axes]
            block = np.stack([np.column_stack(columns)[k::4].T for k in range(4)])
            view = block.transpose(0, 2, 1)
            part = grid_partition(axes)
            cells = part.cells_of_many(view)
            assert cells.dtype == np.min_scalar_type(part.cell_count - 1)
            for k in range(4):
                assert np.array_equal(cells[k], searchsorted_cells(view[k], axes))
            # every inner edge of each axis is met exactly, beside a point
            # just above it
            for d, e in enumerate(axes):
                assert np.isin(e[1:-1], view[..., d]).all()

    # Cell counts at the edges of the uint8 and uint16 index types, in both
    # axis orders: a lone axis of 256 cells must not scale a uint8 index by
    # 256, nor one of 65,536 cells a uint16 index by 65,536.
    @pytest.mark.parametrize("shape", [
        (255, 1), (1, 255), (256, 1), (1, 256), (257, 1), (1, 257),
        (255, 257), (257, 255), (256, 256), (65_536, 1), (1, 65_536),
        (65_537, 1), (1, 65_537),
    ], ids=lambda s: "x".join(map(str, s)))
    def test_grid_at_the_index_widths(self, shape):
        axes = [np.linspace(0.0, 1.0, count + 1).tolist() for count in shape]
        rng = np.random.default_rng(sum(shape))
        columns = []
        for e in axes:
            # every edge of a narrow axis; of a wide one, a sample and the ends
            e = np.asarray(e)
            if e.size > 300:
                e = np.concatenate([e[:3], rng.choice(e, 300), e[-3:]])
            columns.append(rng.choice(self.values(e.tolist()), 2000))
        corners = [np.zeros(2), np.full(2, np.nextafter(1.0, 0.0)), np.ones(2)]
        cloud = np.vstack([np.column_stack(columns), *corners])
        cells = grid_partition(axes).cells_of_many(cloud)
        assert cells.dtype == np.min_scalar_type(math.prod(shape) - 1)
        assert np.array_equal(cells, searchsorted_cells(cloud, axes))
        assert cells.max() == math.prod(shape) - 1

    # The engine's consumers add the narrow index to bin offsets of the
    # narrowest type that holds their last bin; the reference widens the
    # index to int64 before they see it. 65,537 cells take one step a
    # block, so the requests are few.
    @pytest.mark.parametrize("shape", [
        (255, 1), (256, 1), (257, 1), (255, 257), (256, 256), (65_537, 1),
    ], ids=lambda s: "x".join(map(str, s)))
    def test_engine_bins_at_the_index_widths(self, shape):
        part = grid_partition([np.linspace(0.0, 1.0, count + 1).tolist() for count in shape])
        wide = dataclasses.replace(
            part, cells_of_many=lambda pts: part.cells_of_many(pts).astype(np.int64))
        rng = np.random.default_rng(sum(shape))
        points = rng.random((400, 2))
        weights = rng.random(400)
        weights /= weights.sum()
        assert part.cells_of_many(points).dtype == np.min_scalar_type(part.cell_count - 1)
        hists = [classical._cloud_probe(points, weights, cat_map(), p).sample_many(
            np.array([3.0, 0.0, 3.0])) for p in (part, wide)]
        assert same_bits(*hists)
        # each orbit paired with itself has a defect p_j(1 - p_j) in every
        # cell it visits in a batch
        twins = np.repeat(points[:4], 2, axis=0)
        defects = [classical._defects(twins, cat_map(), p, np.array([0.0, 1.0, 3.0, 4.0]), 2)
                   for p in (part, wide)]
        assert np.count_nonzero(defects[1]) and same_bits(*defects)


def layouts(pts):
    """``pts`` C-ordered, F-ordered and as a strided view into a wider array."""
    wide = np.full((2 * len(pts), 2 * pts.shape[1] + 1), np.nan)
    wide[::2, 1::2] = pts
    return {"C": np.ascontiguousarray(pts), "F": np.asfortranarray(pts),
            "strided": wide[::2, 1::2]}


CATALOGUE = [cat_map(), cat_map(lattice=7), cat_map(lattice=2**20), rotation_map(GOLDEN),
             rotation_map((0.3, 0.711))]


class TestRowKernels:
    """``forward_many`` steps C-contiguous coordinate rows into ``out``:
    point by point the bits of ``forward_point``, with ``rows`` left as
    they were."""

    @pytest.mark.parametrize("mapping", CATALOGUE, ids=lambda m: m.name)
    @pytest.mark.parametrize("label", ["random", "edges", "outside"])
    def test_rows_step_as_points(self, mapping, label):
        pts = clouds(mapping.dim)[label]
        rows = np.ascontiguousarray(pts.T)
        before = rows.copy()
        # the kernel reads neither out nor scratch before it writes them
        out, scratch = np.full_like(rows, np.nan), np.full_like(rows, np.nan)
        assert mapping.forward_many(rows, out, scratch) is None
        assert same_bits(rows, before)
        assert same_bits(out.T, [mapping.forward_point(tuple(p)) for p in pts.tolist()])


class TestLayouts:
    """Partitions read points of any memory layout and any leading shape,
    and give the same cells for each."""

    @pytest.mark.parametrize("edges", TestCountClassification.EDGE_SETS,
                             ids=lambda e: f"{len(e) - 2}-inner")
    def test_partitions(self, edges):
        values = TestCountClassification.values(edges)
        rng = np.random.default_rng(len(edges))
        grid_axes = [TestCountClassification.EDGE_SETS[3], edges]
        for partition, pts in (
            (interval_partition(edges), values[:, None]),
            (grid_partition(grid_axes),
             np.column_stack([rng.choice(TestCountClassification.values(e), 4000)
                              for e in grid_axes])),
        ):
            expected = partition.cells_of_many(np.ascontiguousarray(pts))
            for layout, arr in layouts(pts).items():
                assert np.array_equal(partition.cells_of_many(arr), expected), layout

    @pytest.mark.parametrize("n", [1, 40])
    def test_leading_shape(self, n):
        # the orbit engine hands over the (steps, n, dim) view of its
        # step-major (steps, dim, n) block
        part = grid_partition([[0.0, 0.3, 1.0], [0.0, 0.5, 0.8, 1.0]])
        block = np.random.default_rng(n).random((7, 2, n))
        cells = part.cells_of_many(block.transpose(0, 2, 1))
        assert cells.shape == (7, n) and cells.dtype == np.min_scalar_type(part.cell_count - 1)
        for k, rows in enumerate(block):
            assert np.array_equal(cells[k], searchsorted_cells(rows.T, part.edges)), k


def row_cat(pts):
    """The float cat kernel as it stood before it stepped coordinate rows:
    the cloud's rows times the C-stored transpose, then ``v - floor(v)``."""
    v = pts @ np.ascontiguousarray(CAT.T)
    return v - np.floor(v)


class TestCatRows:
    """The cat map steps a cloud as coordinate rows, ``M @ rows``; each
    entry is still one rounded sum of two exact terms, so it gives the bits
    of the row kernel for clouds of any size."""

    # the first two rows alone hold 0.0, 0.5 and the largest double below 1.0
    TOP = np.nextafter(1.0, 0.0)
    SPECIAL = [(0.0, 0.5), (TOP, 0.0), (0.5, TOP), (0.0, 0.0), (0.5, 0.5), (TOP, TOP),
               (0.5, 0.0), (TOP, 0.5), (0.0, TOP)]

    @pytest.mark.parametrize("n", [2, 3, 1000])
    def test_cloud_step(self, n):
        pts = np.random.default_rng(n).random((n, 2))
        pts[: len(self.SPECIAL)] = self.SPECIAL[:n]
        mapping = cat_map()
        got = forward(mapping, pts)
        assert same_bits(got, row_cat(pts))
        assert same_bits(got, [mapping.forward_point(tuple(p)) for p in pts.tolist()])

    def test_orbit_cells_of_the_row_kernel(self):
        pts = np.random.default_rng(20).random((1000, 2))
        pts[: len(self.SPECIAL)] = self.SPECIAL
        edges = [[0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.5, 1.0]]
        steps = np.arange(2000.0)
        ref, seen = pts, 0
        for cells in classical._orbit_cells(pts, cat_map(), grid_partition(edges), steps):
            for row in cells:
                assert np.array_equal(row, searchsorted_cells(ref, edges)), seen
                ref, seen = row_cat(ref), seen + 1
        assert seen == steps.size


SITES = 2**51  # the float cat map's lattice: multiples of 2**-51


def on_lattice(cloud):
    """Whether every coordinate of ``cloud`` is a multiple of 2**-51."""
    scaled = np.asarray(cloud) * SITES
    return bool(np.all(np.floor(scaled) == scaled))


def integer_cat(pts):
    """One step of the integer cat map mod 2**51 on a cloud of the lattice."""
    k = (np.asarray(pts) * SITES).astype(np.int64)
    return ((k @ CAT.astype(np.int64).T) % SITES) / SITES


def leap(pts, steps):
    """The cat map's leap of the (n, dim) cloud ``pts``, or None where it
    declines; the cloud's rows must come back unchanged."""
    rows = np.array(np.asarray(pts).T, order="C")
    before, out = rows.copy(), np.empty_like(rows)
    done = cat_map().leap(rows, out, steps)
    assert same_bits(rows, before)
    return out.T if done else None


class TestCatLeap:
    """The float cat map takes a cloud of the 2**-51 lattice any number of
    steps in one leap, with the bits of as many steps of its formula."""

    @staticmethod
    def settled_cloud():
        """Random points stepped past the float map's transient, then the
        sites k/4, a 1.0 that wraps a tiny negative, -0.0 and a negative
        site."""
        pts = np.random.default_rng(35).random((200, 2))
        for _ in range(200):
            pts = REFERENCE_STEPS["cat-map"](pts)
        sites = np.stack(np.meshgrid(np.arange(4), np.arange(4)), -1).reshape(-1, 2) / 4
        one = ClassicalEnsemble([[-1e-20, 0.5]]).points
        special = np.array([[-0.0, 0.25], [0.75, -0.0], [-0.0, -0.0], [-0.375, 0.5]])
        cloud = np.vstack([pts, sites, one, special])
        assert on_lattice(cloud) and one[0, 0] == 1.0
        return cloud

    def test_leaps_equal_formula_steps(self):
        cloud = self.settled_cloud()
        gaps = [2, 3, 40, 1000, 99991]
        leaps = {g: leap(cloud, g) for g in gaps}
        stepped = cloud
        for step in range(1, gaps[-1] + 1):
            stepped = REFERENCE_STEPS["cat-map"](stepped)
            if step in leaps:
                assert same_bits(leaps[step], stepped), step

    def test_declines_off_the_lattice_and_writes_nothing(self):
        fresh = np.random.default_rng(3).random((1000, 2))
        assert not on_lattice(fresh)
        beyond = np.array([[0.5, 0.25], [1.5, 0.0]])  # on the lattice, but past 1, where 2x + y may pass 4
        for pts in (fresh, beyond):
            rows = np.array(pts.T, order="C")
            out = np.full_like(rows, np.nan)
            assert not cat_map().leap(rows, out, 40)
            assert np.isnan(out).all()

    def test_a_float_step_on_the_lattice_is_the_integer_map(self):
        rng = np.random.default_rng(51)
        pts = rng.integers(-SITES, SITES + 1, (4000, 2)) / SITES
        top = (SITES - 1) / SITES
        pts[:4] = [[1.0, top], [top, 1.0], [-0.0, 0.5], [-1.0, -top]]
        stepped = forward(cat_map(), pts)
        assert same_bits(stepped, integer_cat(pts))
        assert same_bits(stepped, (pts @ CAT.T) % 1.0)

    def test_orbit_cells_with_leaps(self, monkeypatch):
        # the cloud reaches the lattice within the first gaps of 50 steps, so
        # its early leaps decline and the later ones go through
        tried = []

        def counted(rows, out, steps):
            tried.append(cat_map().leap(rows, out, steps))
            return tried[-1]

        mapping = dataclasses.replace(cat_map(), leap=counted)
        ens = contaminated_cat_ensemble(300, 0.1, seed=7)
        steps = np.concatenate([np.arange(0.0, 500.0, 50.0), [500.0, 501.0, 509.0, 509.0],
                                np.arange(600.0, 5000.0, 97.0)])
        monkeypatch.setattr(core, "_CHUNK_ENTRIES", 4096)
        got = np.concatenate(list(classical._orbit_cells(ens.points, mapping, QUADRANTS, steps)))
        assert np.array_equal(got, reference_cells(ens.points, cat_map(), QUADRANTS, steps))
        assert False in tried and True in tried
        assert tried == sorted(tried)


class TestClassicalProbe:
    def test_initial_indicator(self):
        part = interval_partition([0.0, 0.5, 1.0])
        probe = classical_probe(0.7, rotation_map(GOLDEN), part)
        assert probe.distributions_at([0.0])[0].tolist() == [0.0, 1.0]

    def test_golden_rotation_equidistributes(self):
        part = interval_partition([0.0, 0.5, 1.0])
        probe = classical_probe(0.123, rotation_map(GOLDEN), part)
        omega = time_average_distribution(probe, STEPS(4096))
        np.testing.assert_allclose(omega.probs, [0.5, 0.5], rtol=0.0, atol=5e-3)

    def test_rational_orbit_stays_in_cell(self):
        # orbit {0.05, 0.3, 0.55, 0.8} never leaves [0, 0.9)
        part = interval_partition([0.0, 0.9, 1.0])
        probe = classical_probe(0.05, rotation_map(0.25), part)
        omega = time_average_distribution(probe, STEPS(512))
        assert omega == OutcomeDistribution([1.0, 0.0])

    def test_scalar_vector_agree(self):
        part = grid_partition([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])
        probe = classical_probe((0.2, 0.6), cat_map(), part)
        times = np.arange(20.0)
        block = probe.distributions_at(times)
        for k, t in enumerate(times):
            assert np.array_equal(probe.distributions_at([t])[0], block[k])

    def test_rejects_negative_time(self):
        part = interval_partition([0.0, 0.5, 1.0])
        probe = classical_probe(0.1, rotation_map(GOLDEN), part)
        with pytest.raises(DomainError):
            probe.distributions_at([-1.0])


class TestOrbitEngine:
    def test_ensemble_is_weighted_sum_of_pure_probes(self):
        # bincount adds each point's weight in point order, exactly as this
        # loop does, so the two agree bit for bit
        rng = np.random.default_rng(8)
        ens = ClassicalEnsemble(rng.random((5, 2)), rng.dirichlet(np.ones(5)))
        part = grid_partition([[0.0, 0.3, 1.0], [0.0, 0.5, 0.8, 1.0]])
        times = np.concatenate([rng.uniform(0.0, 200.0, 40), [7.0, 7.0, 0.0]])
        block = ensemble_probe(ens, cat_map(), part).distributions_at(times)
        expected = np.zeros_like(block)
        for point, weight in zip(ens.points, ens.weights):
            pure = classical_probe(tuple(point), cat_map(), part)
            expected = expected + weight * pure.distributions_at(times)
        assert np.array_equal(block, expected)

    def test_steps_once_to_the_largest_requested_step(self):
        mapping, calls = counting_map(cat_map())
        probe = ensemble_probe(contaminated_cat_ensemble(50, 0.1, seed=1), mapping, QUADRANTS)
        probe.distributions_at(np.array([10.0, 3.0, 3.4, 0.0]))
        assert calls == [50] * 10

    def test_steps_in_place_into_the_block_and_two_rows(self, monkeypatch):
        # 50 two-d points and 4 cells: a 1000-entry cap holds 9 steps per
        # block, so these 20 requests, with gaps and a repeat, make 3 blocks
        monkeypatch.setattr(core, "_CHUNK_ENTRIES", 1000)
        steps = np.array([0, 1, 2, 5, 6, 7, 12, 13, 20, 21, 22, 30, 31, 31, 40, 41, 42, 50, 51,
                          60.0])
        kernel, leaps, blocks = [], [], []

        def forward_many(rows, out, scratch):
            kernel.append((rows, out, scratch))
            cat_map().forward_many(rows, out, scratch)

        def leap(rows, out, gap):
            done = cat_map().leap(rows, out, gap)
            leaps.append((gap, done, rows, out))
            return done

        def cells_of_many(pts):
            blocks.append(pts)
            return QUADRANTS.cells_of_many(pts)

        mapping = dataclasses.replace(cat_map(), forward_many=forward_many, leap=leap)
        part = dataclasses.replace(QUADRANTS, cells_of_many=cells_of_many)
        ens = contaminated_cat_ensemble(50, 0.1, seed=1)
        got = list(classical._orbit_cells(ens.points, mapping, part, steps))
        expected = reference_cells(ens.points, cat_map(), QUADRANTS, steps)
        assert np.array_equal(np.concatenate(got), expected)
        # each gap of at least _LEAP_MIN steps tries one leap, which goes
        # through where the formula's cloud at the gap's start is on the
        # 2**-51 lattice (it is by step 22 here); every other step is one
        # kernel call, and there is one partition call per block
        predicted, cloud, at = [], ens.points, 0
        for step in np.unique(steps).astype(int):
            if step - at >= classical._LEAP_MIN:
                predicted.append((step - at, on_lattice(cloud)))
            for _ in range(step - at):
                cloud = REFERENCE_STEPS["cat-map"](cloud)
            at = step
        assert [(gap, done) for gap, done, *_ in leaps] == predicted == [
            (8, True), (9, True), (8, True), (9, True)]
        assert len(kernel) == 60 - sum(gap for gap, done in predicted if done)
        assert [b.shape for b in blocks] == [(9, 50, 2), (9, 50, 2), (2, 50, 2)]
        # the first block views the whole buffer, and every later one views it too
        buffer = blocks[0]
        assert all(np.shares_memory(b, buffer) for b in blocks)
        # a leap reads a row or a slot and writes its own slot
        for *_, src, out in leaps:
            assert out.shape == src.shape == (2, 50) and out.flags.c_contiguous
            assert np.shares_memory(out, buffer) and not np.shares_memory(src, out)
        rows = {}
        for args in kernel:
            for arr in args:
                assert arr.shape == (2, 50) and arr.flags.c_contiguous
                if not np.shares_memory(arr, buffer):
                    rows.setdefault(arr.ctypes.data, arr)
            for x, y in itertools.combinations(args, 2):
                assert not np.shares_memory(x, y)
        # beside the block the kernel reads and writes two rows, nothing else
        assert len(rows) == 2
        assert not np.shares_memory(*rows.values())

    @pytest.mark.parametrize("kind", ["pure", "ensemble"])
    def test_step_cap_checked_before_any_map_call(self, kind):
        mapping, calls = counting_map(cat_map())
        if kind == "pure":
            probe = classical_probe((0.2, 0.6), mapping, QUADRANTS)
        else:
            probe = ensemble_probe(contaminated_cat_ensemble(50, 0.1, seed=1), mapping, QUADRANTS)
        with pytest.raises(DomainError, match="cap"):
            probe.distributions_at(np.array([1.0, 5.0, MAX_ORBIT_STEPS + 1.0]))
        with pytest.raises(DomainError, match="cap"):
            probe.distributions_at([1e300])
        assert calls == []

    def test_ensemble_rejects_negative_time(self):
        mapping, calls = counting_map(cat_map())
        probe = ensemble_probe(contaminated_cat_ensemble(50, 0.1, seed=1), mapping, QUADRANTS)
        with pytest.raises(DomainError):
            probe.distributions_at([-1.0])
        with pytest.raises(DomainError):
            probe.distributions_at(np.array([3.0, -2.0]))
        assert calls == []

    # The horizons and bounds of the three memory tests are a sixteenth of
    # those at the real chunk, as the chunk is.
    def test_long_horizon_memory_is_bounded(self, small_chunk):
        # holding every orbit state takes about 20 MB here
        ens = contaminated_cat_ensemble(1000, delta=0.1, seed=9300)
        probe = ensemble_probe(ens, cat_map(), QUADRANTS)
        cfg = TimeAverageConfig(horizon=1_250, samples=500, scheme="uniform-grid")
        tracemalloc.start()
        try:
            time_average_distribution(probe, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6 / 16

    def test_long_horizon_peak_is_a_few_blocks(self, small_chunk):
        # the clouds or cells of all 500 sampled steps at once would pass 8 MB
        ens = contaminated_cat_ensemble(1000, delta=0.1, seed=9300)
        probe = ensemble_probe(ens, cat_map(), QUADRANTS)
        cfg = TimeAverageConfig(horizon=1_250, samples=500, scheme="uniform-grid")
        tracemalloc.start()
        try:
            time_average_distribution(probe, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6 / 16

    def test_pure_peak_does_not_grow_with_the_horizon(self, small_chunk):
        # the one-point walk gathers only the requested steps' coordinates,
        # a block at a time, so 512 sampled steps hold as much whether they
        # span 625 steps or 12,500
        def peak(horizon):
            probe = classical_probe((0.2137, 0.5821), cat_map(), QUADRANTS)
            cfg = TimeAverageConfig(horizon=horizon, samples=512, scheme="uniform-grid")
            tracemalloc.start()
            try:
                time_average_distribution(probe, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1000)  # one-time allocations out of the way
        assert abs(peak(625) - peak(12_500)) < 64 * 1024 / 16


# the maps of the one-point kernel tests, with their lattice denominators
POINT_MAPS = [
    (rotation_map(GOLDEN), None),
    (rotation_map((GOLDEN, 0.3, math.sqrt(2) - 1)), None),
    (cat_map(), None),
    (cat_map(lattice=4), 4),
    (cat_map(lattice=2**20), 2**20),
    (cat_map(lattice=3**32), 3**32),
    (cat_map(lattice=2**52), 2**52),
]
POINT_MAP_IDS = [m.name for m, _ in POINT_MAPS]


def start_points(dim, q):
    """Two random points, all-0.0, all-(1 - 2**-53) and, on a lattice, two
    sites: the starts of the one-point orbit tests."""
    rng = np.random.default_rng(dim)
    starts = [*rng.random((2, dim)), np.zeros(dim), np.full(dim, 1.0 - 2.0**-53)]
    if q is not None:
        starts += [*(rng.integers(0, q, (2, dim)) / q)]
    return [tuple(p.tolist()) for p in starts]


# unsorted, repeated and half-integer times (np.rint sends 2.5 to 2, 3.5 to 4)
ODD_TIMES = np.array([17.0, 3.5, 3.5, 0.0, 2.5, 40.0, 17.0, 0.5, 1.5, 29.4, 12.6, 39.5, 8.0])


class TestBlockedClassification:
    """Several steps' clouds are classified in one call; with a small block
    cap one request spans several blocks, and every block matches a
    per-step loop bit for bit."""

    @pytest.mark.parametrize("cap", [2, 6, 25, 50, 10**6])
    @pytest.mark.parametrize("mapping", [cat_map(), cat_map(lattice=2**20), cat_map(lattice=8)],
                             ids=lambda m: m.name)
    def test_ensemble_block_matches_per_step_loop(self, monkeypatch, cap, mapping):
        monkeypatch.setattr(core, "_CHUNK_ENTRIES", cap)
        rng = np.random.default_rng(4)
        ens = ClassicalEnsemble(rng.random((5, 2)), rng.dirichlet(np.ones(5)))
        part = grid_partition([[0.0, 0.3, 1.0], [0.0, 0.5, 0.8, 1.0]])
        block = ensemble_probe(ens, mapping, part).distributions_at(ODD_TIMES)
        expected = reference_block(ens.points, ens.weights, mapping, part, ODD_TIMES)
        assert same_bits(block, expected)

    @pytest.mark.parametrize("with_zero", [True, False], ids=["from-step-0", "from-step-2"])
    @pytest.mark.parametrize("cap", [1, 4, 9, 100, 10**6])
    @pytest.mark.parametrize("mapping, q", POINT_MAPS, ids=POINT_MAP_IDS)
    def test_pure_block_matches_per_step_loop(self, monkeypatch, mapping, q, cap, with_zero):
        # ODD_TIMES asks for the 8 steps 0, 2, 4, 8, 13, 17, 29, 40 in 13
        # requests, each classified once, so repeats straddle some block
        # boundaries; without step 0 the one-point walk's first gap is 2, not 0
        monkeypatch.setattr(core, "_CHUNK_ENTRIES", cap)
        times = ODD_TIMES if with_zero else ODD_TIMES[np.rint(ODD_TIMES) > 0]
        part = grid_partition([[0.0, 0.2, 0.5, 1.0]] * mapping.dim)
        block = max(1, cap // (mapping.dim + part.cell_count))
        for start in start_points(mapping.dim, q):
            recorder, seen = recording_partition(part)
            got = classical_probe(start, mapping, recorder).distributions_at(times)
            assert [len(pts) for pts in seen] == [
                min(block, times.size - at) for at in range(0, times.size, block)
            ]
            expected = reference_block(np.array([start]), np.ones(1), mapping, part, times)
            assert same_bits(got, expected)

    @pytest.mark.parametrize("every", [1, 7], ids=["every-step", "sparse-steps"])
    @pytest.mark.parametrize("mapping", [cat_map(), cat_map(lattice=2**20)],
                             ids=lambda m: m.name)
    def test_workload_shaped_block_matches_per_step_loop(self, small_chunk, every, mapping):
        # 61 two-d points and 6 cells at the lowered chunk: 32 steps a block,
        # as 1000 points at the real one, so 300 steps make nine full blocks
        # and a short one
        ens = contaminated_cat_ensemble(61, 0.1, seed=9300)
        part = grid_partition([[0.0, 0.3, 1.0], [0.0, 0.5, 0.8, 1.0]])
        times = np.arange(300.0) * every
        blocks = list(classical._orbit_cells(ens.points, mapping, part, times))
        assert [len(b) for b in blocks] == [32] * 9 + [12]
        expected = reference_cells(ens.points, mapping, part, times)
        assert np.array_equal(np.concatenate(blocks), expected)
        block = ensemble_probe(ens, mapping, part).distributions_at(times)
        assert same_bits(block, reference_block(ens.points, ens.weights, mapping, part, times))

    def test_one_cells_call_per_block(self, monkeypatch):
        # 50 two-d points and 4 cells: a 1000-entry cap holds 9 steps per block
        monkeypatch.setattr(core, "_CHUNK_ENTRIES", 1000)
        part, calls = counting_partition(QUADRANTS)
        ens = contaminated_cat_ensemble(50, 0.1, seed=1)
        ensemble_probe(ens, cat_map(), part).distributions_at(np.arange(25.0))
        assert calls == [(9, 50), (9, 50), (7, 50)]

    @pytest.mark.parametrize("kind", ["pure", "ensemble"])
    def test_zero_times_is_a_dimension_error(self, kind):
        if kind == "pure":
            probe = classical_probe((0.2, 0.6), cat_map(), QUADRANTS)
        else:
            probe = ensemble_probe(contaminated_cat_ensemble(50, 0.1, seed=1), cat_map(), QUADRANTS)
        with pytest.raises(DimensionError):
            probe.distributions_at(np.array([]))


def recording_partition(partition):
    """``partition`` with a ``cells_of_many`` that keeps a copy of each
    call's points as (points, dim) rows."""
    seen = []

    def cells_of_many(pts):
        seen.append(np.array(pts).reshape(-1, partition.dim))
        return partition.cells_of_many(pts)

    return dataclasses.replace(partition, cells_of_many=cells_of_many), seen


def reference_orbit(coords, mapping, steps):
    """The point at each non-decreasing step, stepped by ``forward_many``
    as a one-point cloud."""
    pts, at, orbit = np.array([coords]), 0, []
    for step in steps.astype(np.int64):
        for _ in range(step - at):
            pts = forward(mapping, pts)
        at = step
        orbit.append(pts[0])
    return np.array(orbit)


class TestPointKernels:
    """A single point steps through ``forward_point`` in Python floats; every
    kernel gives the bits of its one-column ``forward_many``, and the one-point
    probe those of the per-step array loop."""

    @pytest.mark.parametrize("mapping, q", POINT_MAPS, ids=POINT_MAP_IDS)
    def test_one_step_matches_the_array_kernel(self, mapping, q):
        # Rounding is checked here, one step from inputs of every grain: on
        # float cat orbits (x + y) + x and 2x + y hardly ever differ (not
        # once in 3,000 steps from three random starts). The edge inputs
        # include -0.0 and 1.0, which orbits on [0, 1) never produce.
        edges = np.array([-0.0, 0.0, 1.0 - 2.0**-53, 1.0, 0.5, 5e-324, 1e-300, -1e-20])
        grid = np.stack(np.meshgrid(*[edges] * mapping.dim), -1).reshape(-1, mapping.dim)
        rng = np.random.default_rng(3)
        sets = [grid, *clouds(mapping.dim).values()]
        if q is not None:
            sets.append(rng.integers(0, q, (500, 2)) / q)
        for pts in sets:
            for p in pts:
                point = mapping.forward_point(tuple(p.tolist()))
                assert type(point) is tuple and all(type(c) is float for c in point)
                assert same_bits(np.array([point]), forward(mapping, p[None, :])), p

    @pytest.mark.parametrize("mapping, q", POINT_MAPS, ids=POINT_MAP_IDS)
    def test_sparse_stratified_times(self, mapping, q):
        cfg = TimeAverageConfig(horizon=1000, samples=128, scheme="stratified-random", seed=7)
        times = sample_times(cfg)
        steps = np.rint(times)
        part = grid_partition([np.linspace(0.0, 1.0, 6)] * mapping.dim)
        for start in start_points(mapping.dim, q):
            recorder, seen = recording_partition(part)
            probe = classical_probe(start, mapping, recorder)
            block = probe.distributions_at(times)
            assert same_bits(np.concatenate(seen), reference_orbit(start, mapping, steps))
            expected = reference_block(np.array([start]), np.ones(1), mapping, part, times)
            assert same_bits(block, expected)

    @pytest.mark.parametrize("mapping", [cat_map(), cat_map(lattice=2**52), cat_map(lattice=2**20)],
                             ids=lambda m: m.name)
    def test_consecutive_steps_across_a_block_boundary(self, small_chunk, mapping):
        # a 2-d point on 25 cells fills 151 steps a block at the lowered
        # chunk (2,427 at the real one), so 2,500 steps take 16 and a short
        # one; the per-step loop's cells give the expected one-hot rows
        times = np.arange(2_500.0)
        start = start_points(2, None)[0]
        part = grid_partition([np.linspace(0.0, 1.0, 6)] * 2)
        recorder, seen = recording_partition(part)
        block = classical_probe(start, mapping, recorder).distributions_at(times)
        assert [len(pts) for pts in seen] == [151] * 16 + [84]
        orbit = reference_orbit(start, mapping, times)
        assert same_bits(np.concatenate(seen), orbit)
        assert same_bits(block, np.eye(part.cell_count)[part.cells_of_many(orbit)])

    @pytest.mark.parametrize("n, unused", [(1, "forward_many"), (2, "forward_point")])
    def test_the_point_count_chooses_the_kernel(self, n, unused):
        # a one-point ensemble is stepped as a point too
        def refuse(*_):
            raise AssertionError(f"{unused} called")

        mapping = dataclasses.replace(cat_map(), **{unused: refuse})
        ens = ClassicalEnsemble(np.random.default_rng(n).random((n, 2)))
        times = np.arange(6.0)
        block = ensemble_probe(ens, mapping, QUADRANTS).distributions_at(times)
        expected = reference_block(ens.points, ens.weights, cat_map(), QUADRANTS, times)
        assert same_bits(block, expected)


class TestPureClosedForm:
    @pytest.mark.parametrize(
        "omega,expected",
        [
            ([1.0, 0.0, 0.0], 0.0),
            ([0.5, 0.5], 0.5),
            ([0.25] * 4, 0.75),
        ],
    )
    def test_values(self, omega, expected):
        value = pure_average_distinguishability(OutcomeDistribution(omega))
        assert value == pytest.approx(expected, abs=1e-15)

    def test_matches_estimator_in_sample(self):
        # numeric average against the same-sample occupation equals the
        # closed form exactly for indicator trajectories
        from equilib.core import average_distinguishability

        part = grid_partition([[0.0, 0.3, 1.0], [0.0, 0.6, 1.0]])
        probe = classical_probe((0.21, 0.43), cat_map(), part)
        cfg = STEPS(2048)
        omega = time_average_distribution(probe, cfg)
        est = average_distinguishability(probe, omega, cfg)
        assert est.mean == pytest.approx(
            pure_average_distinguishability(omega), abs=1e-12
        )


class TestNecessity:
    def test_examples(self):
        assert not check_necessity(OutcomeDistribution([0.5, 0.5]), 0.3)
        assert check_necessity(OutcomeDistribution([0.95, 0.05]), 0.05)
        assert check_necessity(OutcomeDistribution([1.0, 0.0]), 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            check_necessity(OutcomeDistribution([1.0]), -0.1)


class TestMixedBound:
    def test_values(self):
        assert mixed_equilibration_bound(5, 0.0) == 0.0
        assert mixed_equilibration_bound(2, 0.01) == pytest.approx(0.1, abs=1e-15)
        assert mixed_equilibration_bound(8, 0.25) == pytest.approx(1.0, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            mixed_equilibration_bound(2, 0.6)
        with pytest.raises(DomainError):
            mixed_equilibration_bound(0, 0.1)


def visits_cells_evenly(site, q, edges):
    """Whether one period of the integer cat-map orbit of the lattice site
    ``site`` / ``q``, stepped (k, l) -> (2k + l, k + l) mod q, visits every
    cell of the grid ``edges`` equally often."""
    visits = collections.Counter()
    k, l = site
    while True:
        visits[tuple(bisect.bisect_right(axis, c / q) - 1 for axis, c in zip(edges, (k, l)))] += 1
        k, l = (2 * k + l) % q, (k + l) % q
        if (k, l) == site:
            cells = math.prod(len(axis) - 1 for axis in edges)
            return len(visits) == cells and len(set(visits.values())) == 1


class TestMixedBoundNearItsEdge:
    """The whole periodic weight δ on one lattice orbit that visits the N
    cells evenly, beside 1,000 random chaotic points. For an exactly uniform
    chaotic part ⟨D⟩ = δ (1 - 1/N), so mean/bound is (1 - 1/N) sqrt(2δ/N):
    0.16, 0.17 and 0.14 at δ = 0.1, and 0.35, 0.38 and 0.31 at δ = 0.5, for
    N = 2, 4 and 8, where contaminated_cat_ensemble's spread sites read
    0.04-0.05 at δ = 0.1."""

    PARTITIONS = {
        2: [[0.0, 0.5, 1.0], [0.0, 1.0]],
        4: [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]],
        8: [[0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.5, 1.0]],
    }

    def even_site(self, n_cells):
        """(1/16, 1/8) on N = 2 cells, else the first of seeded random q = 32
        sites whose orbit visits every cell equally often."""
        if n_cells == 2:
            return (1, 2), 16
        rng = np.random.default_rng(24)
        while True:
            site = (int(rng.integers(32)), int(rng.integers(32)))
            if visits_cells_evenly(site, 32, self.PARTITIONS[n_cells]):
                return site, 32

    @pytest.mark.parametrize("delta", [0.1, 0.5])
    @pytest.mark.parametrize("n_cells", [2, 4, 8])
    def test_the_check_runs_near_the_bound(self, n_cells, delta):
        partition = grid_partition(self.PARTITIONS[n_cells])
        (k, l), q = self.even_site(n_cells)
        assert visits_cells_evenly((k, l), q, self.PARTITIONS[n_cells])
        chaotic = np.random.default_rng(1000 + n_cells).random((1000, 2))
        ensemble = ClassicalEnsemble(
            np.vstack([chaotic, [[k / q, l / q]]]),
            np.append(np.full(1000, (1.0 - delta) / 1000), delta),
            np.arange(1001) < 1000,
        )
        assert ensemble.periodic_weight == pytest.approx(delta, abs=1e-15)
        probe = ensemble_probe(ensemble, cat_map(), partition)
        cfg = STEPS(1024)
        est = core.average_distinguishability(probe, time_average_distribution(probe, cfg), cfg)
        bound = mixed_equilibration_bound(n_cells, ensemble.periodic_weight)
        assert est.mean <= bound
        assert est.mean / bound >= 0.8 * (1 - 1 / n_cells) * math.sqrt(2 * delta / n_cells)


class TestCorrelationDefect:
    def test_same_orbit_fully_correlated(self):
        # same periodic orbit: defect_j = p_j (1 - p_j) with p_j = 1/4
        part = interval_partition([0.0, 0.25, 0.5, 0.75, 1.0])
        cfg = STEPS(512)
        pair = np.array([[0.1], [0.1]])
        defect = classical._defects(pair, rotation_map(0.25), part, sample_times(cfg), 1)[0, 0]
        assert defect == pytest.approx([3 / 16] * 4, abs=1e-12)

    def test_generic_cat_pair_decorrelates(self):
        part = grid_partition([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])
        cfg = STEPS(4096)
        pair = np.array([[0.2137, 0.5821], [0.7301, 0.1193]])
        defect, stderr = classical._batched_defects(pair, cat_map(), part, cfg, 16)
        assert np.all(np.abs(defect[0]) < 3.0 * stderr[0])

    def test_deterministic_factor_gives_zero(self):
        # x never leaves cell 0, so its indicator is constant and the
        # covariance with anything vanishes
        part = interval_partition([0.0, 0.9, 1.0])
        cfg = STEPS(256)
        # x = 0.05 has the orbit {0.05, 0.3, 0.55, 0.8}, inside cell 0
        pair = np.array([[0.05], [0.47]])
        defect = classical._defects(pair, rotation_map(0.25), part, sample_times(cfg), 1)[0, 0]
        assert defect == pytest.approx([0.0] * 2, abs=1e-14)


class TestDefectsAgainstOneHot:
    """The count-based defects against the one-hot indicator form."""

    CONFIGS = [
        TimeAverageConfig(horizon=320, samples=320, scheme="uniform-grid"),
        TimeAverageConfig(horizon=777, samples=700, seed=3),
        # 640 samples over 100 steps: most steps are sampled several times
        TimeAverageConfig(horizon=100, samples=640, seed=5),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["grid", "stratified", "repeated"])
    @pytest.mark.parametrize("mapping",
                             [cat_map(), cat_map(lattice=2**20), rotation_map((GOLDEN, 0.3))],
                             ids=lambda m: m.name)
    def test_pair_defects(self, monkeypatch, cfg, mapping):
        monkeypatch.setattr(core, "_CHUNK_ENTRIES", 60)
        part = grid_partition([[0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.5, 1.0]])
        pair = np.array([[0.2137, 0.5821], [0.7301, 0.1193]])
        times = sample_times(cfg)
        plain = reference_defects(pair, mapping, part, times, 1)
        assert same_bits(classical._defects(pair, mapping, part, times, 1), plain)
        batches = 16
        per_batch = reference_defects(pair, mapping, part, times[: cfg.samples // batches * batches],
                                      batches)
        defect, stderr = classical._batched_defects(pair, mapping, part, cfg, batches)
        assert same_bits(defect, per_batch.mean(axis=1))
        assert same_bits(stderr, per_batch.std(axis=1, ddof=1) / math.sqrt(batches))

    def test_many_pairs_and_audit(self, monkeypatch):
        monkeypatch.setattr(core, "_CHUNK_ENTRIES", 500)
        ens = contaminated_cat_ensemble(300, delta=0.1, seed=11)
        part = grid_partition([[0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.5, 1.0]])
        cfg = TimeAverageConfig(horizon=300, samples=330, seed=3)
        pair_count, seed, batches, risk = 30, 2, 16, 0.2
        # the audit's own pair draws
        rng = np.random.default_rng(seed)
        idx = np.flatnonzero(ens.chaotic_flags)
        pairs = np.concatenate([rng.choice(idx, size=2, replace=False) for _ in range(pair_count)])
        times = sample_times(cfg)[: cfg.samples // batches * batches]
        per_batch = reference_defects(ens.points[pairs], cat_map(), part, times, batches)
        defect = per_batch.mean(axis=1)
        stderr = per_batch.std(axis=1, ddof=1) / math.sqrt(batches)
        got = classical._batched_defects(ens.points[pairs], cat_map(), part, cfg, batches)
        assert same_bits(got[0], defect) and same_bits(got[1], stderr)
        per_outcome = 1.0 - (1.0 - risk) ** (1.0 / part.cell_count)
        threshold = stats.t.ppf(1.0 - per_outcome / 2.0, df=batches - 1)
        frozen = np.all((defect == 0.0) & (stderr == 0.0), axis=1)
        passed = int((np.all(np.abs(defect) / np.maximum(stderr, 1e-300) <= threshold, axis=1)
                      & ~frozen).sum())
        assert 0 < passed < pair_count
        audit = decorrelation_audit(ens, cat_map(), part, cfg, pair_count, seed, batches, risk)
        assert audit == (passed / pair_count, pair_count)


class TestEnsembles:
    def test_single_point_reduces_to_pure_probe(self):
        part = grid_partition([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])
        x = (0.3, 0.9)
        single = ClassicalEnsemble([x])
        times = np.arange(30.0)
        a = ensemble_probe(single, cat_map(), part).distributions_at(times)
        b = classical_probe(x, cat_map(), part).distributions_at(times)
        assert np.array_equal(a, b)

    def test_a_large_equal_weight_cloud_reads_one_cell_as_one(self):
        # 200,000 weights of 1/n added one by one in a cell read 1 + 2.3e-12,
        # past the entry tolerance, which failed the probe's own check
        ens = contaminated_cat_ensemble(200_000, 0.1, 41)
        one_cell = grid_partition([[0.0, 1.0], [0.0, 1.0]])
        cfg = TimeAverageConfig(horizon=3.0, samples=3, scheme="uniform-grid")
        probe = ensemble_probe(ens, cat_map(), one_cell)
        assert time_average_distribution(probe, cfg).probs.tolist() == [1.0]
        assert probe.distributions_at(sample_times(cfg)).tolist() == [[1.0]] * 3

    def test_two_points_convexity(self):
        part = interval_partition([0.0, 0.5, 1.0])
        ens = ClassicalEnsemble([[0.1], [0.7]])
        probe = ensemble_probe(ens, rotation_map(0.0), part)
        assert probe.distributions_at([0.0])[0].tolist() == [0.5, 0.5]

    def test_validation(self):
        with pytest.raises(DomainError, match=r"^weights sum to 0\.5, expected 1 within 1e-09$"):
            ClassicalEnsemble([[0.1]], weights=[0.5])
        with pytest.raises(DimensionError):
            ClassicalEnsemble([[0.1]], weights=[0.5, 0.5])
        with pytest.raises(DomainError):
            ClassicalEnsemble([[0.1], [0.2]], weights=[1.5, -0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_points_and_weights_rejected(self, bad):
        # nan fails both the "< 0" and the sum-to-1 comparison, so neither catches it
        with pytest.raises(DomainError, match="finite"):
            ClassicalEnsemble(np.array([[bad, 0.3], [0.1, 0.2]]))
        with pytest.raises(DomainError, match="finite"):
            ClassicalEnsemble(np.array([[0.5, 0.3], [0.1, 0.2]]), weights=[bad, 0.5])

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("chaotic_flags", ["false", "false"]),
            ("chaotic_flags", [1, 0]),
            ("chaotic_flags", [True, math.nan]),
            ("weights", ["0.5", "0.5"]),
            ("weights", [True, False]),
            ("points", [["0.1", "0.2"], ["0.6", "0.7"]]),
        ],
    )
    def test_field_types(self, field, bad):
        # a cast to bool would count the string "false" as chaotic
        fields = {"points": [[0.1, 0.2], [0.6, 0.7]], "weights": [0.5, 0.5],
                  "chaotic_flags": [False, False]}
        ClassicalEnsemble(**fields)
        fields[field] = bad
        with pytest.raises(DomainError, match=field):
            ClassicalEnsemble(**fields)

    def test_holds_each_array_once(self):
        # the points, weights and flags once each, beside the wrap's one
        # temporary of the points; a second copy of all three held 1.0 MB
        n = 20_000
        points = np.random.default_rng(2).random((n, 2))
        tracemalloc.start()
        try:
            ClassicalEnsemble(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * points.nbytes + 8 * n + n

    def test_copies_what_it_is_given(self):
        points, weights, flags = np.full((2, 2), 0.25), np.full(2, 0.5), np.ones(2, dtype=bool)
        ens = ClassicalEnsemble(points, weights, flags)
        for given, kept in zip((points, weights, flags),
                               (ens.points, ens.weights, ens.chaotic_flags)):
            assert given.flags.writeable and not kept.flags.writeable
            assert not np.shares_memory(given, kept)

    def test_periodic_weight(self):
        ens = ClassicalEnsemble(
            [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
            weights=[0.5, 0.25, 0.25],
            chaotic_flags=[True, False, True],
        )
        assert ens.periodic_weight == pytest.approx(0.25)

    @pytest.mark.parametrize("points", [np.empty((0, 2)), [0.1, 0.2]], ids=["empty", "flat"])
    def test_an_ensemble_needs_a_point_set(self, points):
        with pytest.raises(DomainError, match=r"^ensemble needs a nonempty \(n, dim\) point set$"):
            ClassicalEnsemble(points)

    def test_contaminated_ensemble(self):
        ens = contaminated_cat_ensemble(200, delta=0.1, seed=5, lattice=4)
        assert ens.size == 200
        assert ens.periodic_weight == pytest.approx(0.1)
        # periodic points live on the exact lattice and return after 3 steps
        periodic = ens.points[~ens.chaotic_flags]
        m = cat_map()
        rolled = periodic.copy()
        for _ in range(3):
            rolled = forward(m, rolled)
        assert np.array_equal(rolled, periodic)

    @pytest.mark.parametrize("lattice", [0, -3, 1, 3, 5, 6, 2**52, 2**64, 4.0, True])
    def test_contaminated_lattice_is_a_power_of_two_up_to_2_to_the_51(self, lattice):
        with pytest.raises(DomainError, match="lattice"):
            contaminated_cat_ensemble(20, delta=0.5, seed=1, lattice=lattice)

    @pytest.mark.parametrize("q", [2, 4, 2**20, 2**51, 3, 5, 2**52])
    def test_float_cat_map_keeps_lattice_orbits_up_to_2_to_the_51(self, q):
        # the bound of the contaminated-cat lattice: float and lattice
        # orbits agree bit for bit for powers of two up to 2**51 only
        pts = np.random.default_rng(q % 1000).integers(0, q, (2000, 2)) / q
        floats, sites = pts, pts
        agree = True
        for _ in range(60):
            floats, sites = forward(cat_map(), floats), forward(cat_map(q), sites)
            agree &= np.array_equal(floats, sites)
        assert agree == classical._is_sampler_lattice(q)

    def test_noise_floor_formula(self):
        ens = contaminated_cat_ensemble(1000, delta=0.0, seed=1)
        omega = OutcomeDistribution([0.25] * 4)
        expected = 0.5 * math.sqrt(2 / math.pi) * 4 * math.sqrt(0.25 * 0.75 / 1000)
        assert ensemble_noise_floor(ens, omega) == pytest.approx(expected, rel=1e-12)

    def test_audit_matches_reference_pair_loop(self):
        ens = contaminated_cat_ensemble(400, delta=0.1, seed=11)
        part = grid_partition([[0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.5, 1.0]])
        cfg = TimeAverageConfig(horizon=777, samples=700, seed=3)
        pair_count, seed, batches, risk = 40, 2, 16, 0.2
        # the audit's own recipe, one pair at a time with the same rng draws
        rng = np.random.default_rng(seed)
        idx = np.flatnonzero(ens.chaotic_flags)
        per_outcome = 1.0 - (1.0 - risk) ** (1.0 / part.cell_count)
        threshold = stats.t.ppf(1.0 - per_outcome / 2.0, df=batches - 1)
        passed = 0
        for _ in range(pair_count):
            i, j = rng.choice(idx, size=2, replace=False)
            pair = ens.points[[i, j]]
            defect, stderr = classical._batched_defects(pair, cat_map(), part, cfg, batches)
            frozen = np.all((defect == 0.0) & (stderr == 0.0))
            passed += bool(np.all(np.abs(defect) / np.maximum(stderr, 1e-300) <= threshold)
                           and not frozen)
        assert 0 < passed < pair_count
        audit = decorrelation_audit(ens, cat_map(), part, cfg, pair_count, seed, batches, risk)
        assert audit == (passed / pair_count, pair_count)

    def test_audit_passes_on_chaotic_cloud(self):
        ens = contaminated_cat_ensemble(400, delta=0.1, seed=11)
        part = grid_partition([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])
        frac, tested = decorrelation_audit(
            ens, cat_map(), part, STEPS(2048), pair_count=25, seed=2
        )
        assert tested == 25
        assert frac >= 0.96

    @pytest.mark.parametrize("samples", [64, 127])
    @pytest.mark.parametrize("mapping", [cat_map(), rotation_map((0.0, 0.0))],
                             ids=lambda m: m.name)
    def test_audit_needs_two_samples_a_batch(self, mapping, samples):
        # one sample a batch makes every batch covariance 0, so every pair
        # used to pass on any map, the identity included
        ens = contaminated_cat_ensemble(200, delta=0.0, seed=3)
        with pytest.raises(DomainError, match="at least 2 samples a batch"):
            decorrelation_audit(ens, mapping, QUADRANTS, STEPS(samples), 10)
        assert decorrelation_audit(ens, cat_map(), QUADRANTS, STEPS(128), 10)[1] == 10

    @pytest.mark.parametrize(
        "mapping, points",
        [(rotation_map((0.0, 0.0)), np.random.default_rng(3).random((50, 2))),
         (cat_map(), np.zeros((3, 2)))],
        ids=["identity-rotation", "cat-fixed-origin"],
    )
    def test_a_frozen_pair_fails(self, mapping, points):
        # two points that never change cell have a zero defect with zero
        # batch scatter: no evidence that they decorrelate
        ens = ClassicalEnsemble(points)
        assert decorrelation_audit(ens, mapping, QUADRANTS, STEPS(1024), 20) == (0.0, 20)

    def test_only_the_frozen_pairs_of_a_cloud_fail(self):
        # half the cloud sits on the cat map's fixed origin. A pair with a
        # point there has a zero defect with zero scatter in every cell,
        # whatever the other point does, so it fails; the pairs of two
        # moving points are judged by their z scores
        rng = np.random.default_rng(4)
        ens = ClassicalEnsemble(np.vstack([rng.random((10, 2)), np.zeros((10, 2))]))
        pair_count, seed, batches = 40, 5, 16
        cfg = STEPS(1024)
        rng = np.random.default_rng(seed)
        pairs = [rng.choice(ens.size, size=2, replace=False) for _ in range(pair_count)]
        moving = [pair for pair in pairs if (pair < 10).all()]
        frozen = pair_count - len(moving)
        defect, stderr = classical._batched_defects(ens.points[np.concatenate(moving)], cat_map(),
                                                    QUADRANTS, cfg, batches)
        per_outcome = 1.0 - (1.0 - 1e-3) ** (1.0 / QUADRANTS.cell_count)
        threshold = stats.t.isf(per_outcome / 2.0, df=batches - 1)
        passed = int(np.all(np.abs(defect) / stderr <= threshold, axis=1).sum())
        assert frozen > 0 and passed > 0
        audit = decorrelation_audit(ens, cat_map(), QUADRANTS, cfg, pair_count, seed, batches)
        assert audit == (passed / pair_count, pair_count)


class TestTQuantile:
    """The audit threshold, Student's t two-sided quantile, against scipy."""

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 7, 10, 15, 31, 63, 64, 100, 255, 1000])
    def test_matches_scipy(self, df):
        # t.isf(tail / 2) is t.ppf(1 - tail / 2) without rounding 1 - tail / 2,
        # which alone moves the df = 1 quantile at tail 1e-7 by 6e-10
        for tail in [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.3, 0.5]:
            expected = stats.t.isf(tail / 2, df)
            assert classical._t_quantile(tail, df) == pytest.approx(expected, rel=1e-12)

    def test_closed_forms(self):
        # df = 1 is the Cauchy law and df = 2 has P(|T| > t) = 1 - t / sqrt(2 + t^2)
        for tail in [1e-7, 0.01, 0.5, 0.9]:
            cauchy = 1.0 / math.tan(math.pi * tail / 2)
            assert classical._t_quantile(tail, 1) == pytest.approx(cauchy, rel=1e-14)
            two = (1 - tail) * math.sqrt(2.0 / (tail * (2 - tail)))
            assert classical._t_quantile(tail, 2) == pytest.approx(two, rel=1e-14)

    @pytest.mark.parametrize("tail", [0.0, 1.0, -0.1, math.nan])
    def test_domain(self, tail):
        with pytest.raises(DomainError):
            classical._t_quantile(tail, 5)

    def test_audits_share_one_bisection(self, monkeypatch):
        calls = []
        original = classical._t_tail

        def counting(t, df):
            calls.append(df)
            return original(t, df)

        monkeypatch.setattr(classical, "_t_tail", counting)
        classical._t_quantile.cache_clear()
        ens = contaminated_cat_ensemble(50, delta=0.0, seed=1)
        risk, batches = 0.01, 8
        decorrelation_audit(ens, cat_map(), QUADRANTS, STEPS(64), 5, 0, batches, risk)
        bisection = len(calls)
        decorrelation_audit(ens, cat_map(), QUADRANTS, STEPS(64), 5, 1, batches, risk)
        per_outcome = 1.0 - (1.0 - risk) ** (1.0 / QUADRANTS.cell_count)
        cached = classical._t_quantile(per_outcome, batches - 1)
        assert bisection > 0 and len(calls) == bisection
        assert cached.hex() == classical._t_quantile.__wrapped__(per_outcome, batches - 1).hex()

    @pytest.mark.parametrize("risk", [0.0, 1.0, 1.5, math.nan])
    def test_audit_family_risk_domain(self, risk):
        ens = contaminated_cat_ensemble(50, delta=0.0, seed=1)
        rule = rf"^family_risk must be a finite number in \(0\.0, 1\.0\), got {risk!r}$"
        with pytest.raises(DomainError, match=rule) as info:
            decorrelation_audit(ens, cat_map(), QUADRANTS, STEPS(64), 5, family_risk=risk)
        assert info.value.name == "family_risk"

    @pytest.mark.parametrize("ensemble, mapping, partition, kwargs, error, message", [
        pytest.param(ClassicalEnsemble([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
                                       chaotic_flags=[True, False, False]),
                     cat_map(), QUADRANTS, {}, DomainError,
                     "need at least two chaotic-flagged points to audit", id="one-chaotic"),
        pytest.param(None, cat_map(), QUADRANTS, {"pair_count": 0}, DomainError,
                     "pair_count must be an integer >= 1, got 0", id="no-pairs"),
        pytest.param(None, rotation_map(0.25), interval_partition([0.0, 0.5, 1.0]), {},
                     DimensionError, "ensemble is 2-d, map is 1-d", id="dimension"),
        pytest.param(None, cat_map(), QUADRANTS, {"batches": 1}, DomainError,
                     "batches must be an integer >= 2, got 1", id="one-batch"),
    ])
    def test_audit_refuses_what_it_cannot_audit(self, ensemble, mapping, partition, kwargs,
                                                error, message):
        ensemble = ensemble or contaminated_cat_ensemble(50, delta=0.0, seed=1)
        kwargs = {"pair_count": 5, **kwargs}
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            decorrelation_audit(ensemble, mapping, partition, STEPS(64), **kwargs)

    def test_audit_imports_no_scipy(self):
        script = textwrap.dedent("""
            import sys
            from equilib import classical
            from equilib.core import TimeAverageConfig
            ens = classical.contaminated_cat_ensemble(200, delta=0.1, seed=3)
            part = classical.grid_partition([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])
            cfg = TimeAverageConfig(horizon=256, samples=256, scheme="uniform-grid")
            frac, tested = classical.decorrelation_audit(ens, classical.cat_map(), part, cfg, 10)
            assert tested == 10 and 0.0 <= frac <= 1.0
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
        src = str(Path(classical.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "[]"


class TestSerialization:
    @pytest.mark.parametrize(
        "cfg, mapping",
        [pytest.param(cfg, m, id=m.name) for cfg, m in [
            ({"name": "rotation", "angles": [0.25, 0.5]}, rotation_map((0.25, 0.5))),
            ({"name": "rotation", "angles": [GOLDEN]}, rotation_map(GOLDEN)),
            ({"name": "cat-map"}, cat_map()),
            ({"name": "cat-map", "lattice": 8}, cat_map(lattice=8)),
        ]],
    )
    def test_map_roundtrip(self, cfg, mapping):
        clone = _map_node(_Node(cfg, "map"))
        assert clone.name == mapping.name
        pts = np.random.default_rng(0).random((16, mapping.dim))
        if "lattice" in mapping.name:
            pts = np.rint(pts * 8) / 8 % 1.0
        assert np.array_equal(forward(clone, pts), forward(mapping, pts))

    def test_partition_roundtrip(self):
        part = grid_partition([[0.0, 0.3, 1.0], [0.0, 0.5, 0.75, 1.0]])
        node = {"kind": "grid", "edges": [e.tolist() for e in part.edges]}
        clone = _partition_node(_Node(node, "partition"))
        pts = np.random.default_rng(1).random((64, 2))
        assert np.array_equal(clone.cells_of_many(pts), part.cells_of_many(pts))

    def test_config_errors_carry_paths(self):
        with pytest.raises(ConfigError, match="system.map.name"):
            _map_node(_Node({"name": "hyperion"}, "scenario.system.map"))
        with pytest.raises(ConfigError, match="partition.kind"):
            _partition_node(_Node({"kind": "voronoi"}, "partition"))
        with pytest.raises(ConfigError, match="partition.edges"):
            _partition_node(_Node({"kind": "interval", "edges": [0.5, 1.0]}, "partition"))
