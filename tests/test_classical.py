"""Classical maps, partitions, probes and the pure/mixed-state results."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from equilib import classical
from equilib.bench import _map_node, _partition_node
from equilib.classical import (
    MAX_ORBIT_STEPS,
    ClassicalEnsemble,
    InvertibleMap,
    PhasePoint,
    baker_map,
    cat_map,
    check_necessity,
    classical_probe,
    contaminated_cat_ensemble,
    correlation_defect,
    correlation_defect_batched,
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


def counting_map(mapping):
    """``mapping`` with a ``forward_many`` that logs each call's point count."""
    calls = []

    def forward_many(pts):
        calls.append(len(pts))
        return mapping.forward_many(pts)

    return dataclasses.replace(mapping, forward_many=forward_many), calls


def counting_partition(partition):
    """``partition`` with a ``cells_of_many`` that logs each call's point count."""
    calls = []

    def cells_of_many(pts):
        calls.append(len(pts))
        return partition.cells_of_many(pts)

    return dataclasses.replace(partition, cells_of_many=cells_of_many), calls


def compose(*maps):
    """The maps applied left to right (their inverses right to left)."""

    def fwd(pts):
        for m in maps:
            pts = m.forward_many(pts)
        return pts

    def bwd(pts):
        for m in reversed(maps):
            pts = m.backward_many(pts)
        return pts

    name = "composed(" + ">".join(m.name for m in maps) + ")"
    return InvertibleMap(name, maps[0].dim, fwd, bwd)


def cell_of(partition, coords):
    """The cell of one phase point."""
    return int(partition.cells_of_many(PhasePoint(coords).as_array()[None, :])[0])


def iterate(coords, mapping, steps):
    """``coords`` after ``steps`` applications of the map, backward when negative."""
    pts = np.array([coords], dtype=float)
    step = mapping.forward_many if steps >= 0 else mapping.backward_many
    for _ in range(abs(steps)):
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


def reference_baker(pts, forward):
    x, y = pts[:, 0], pts[:, 1]
    if forward:
        half = np.floor(2.0 * x)
        return np.column_stack(((2.0 * x) % 1.0, (y + half) / 2.0 % 1.0))
    half = np.floor(2.0 * y)
    return np.column_stack(((x + half) / 2.0 % 1.0, (2.0 * y) % 1.0))


def reference_cells(points, mapping, partition, times):
    """Cells of the cloud at each step round(t), classified one step at a time."""
    steps = np.rint(times).astype(np.int64)
    cloud, at, by_step = points, 0, {}
    for step in sorted(set(steps.tolist())):
        for _ in range(step - at):
            cloud = mapping.forward_many(cloud)
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


class TestPhasePoint:
    def test_wraps(self):
        assert PhasePoint((1.25, -0.25)).coords == (0.25, 0.75)

    def test_scalar(self):
        assert PhasePoint(0.5).coords == (0.5,)

    def test_empty(self):
        with pytest.raises(DomainError):
            PhasePoint(())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # inf % 1.0 is nan, so an unchecked point would carry nan into every orbit
        with pytest.raises(DomainError, match="finite"):
            PhasePoint((bad, 0.3))

    @pytest.mark.parametrize(
        "bad", [["0.2", "0.6"], [True, 0.6], [0.2, np.True_], True, "0.3"],
        ids=["strings", "boolean", "numpy-boolean", "scalar-boolean", "scalar-string"],
    )
    def test_non_numbers_rejected(self, bad):
        # float() would read "0.2" as 0.2 and True as 1.0
        with pytest.raises(DomainError, match="coordinates must be numbers"):
            PhasePoint(bad)


class TestMaps:
    def test_evolve_zero_steps(self):
        # step 0 of an orbit is the initial point, reached without a map call
        mapping, calls = counting_map(rotation_map(0.1))
        probe = classical_probe(PhasePoint(0.3), mapping, interval_partition([0.0, 0.5, 1.0]))
        assert probe.sample(0.0).probs.tolist() == [1.0, 0.0]
        assert calls == []

    def test_rotation_example(self):
        # 0.1 + 2 * 0.25 mod 1 = 0.6
        out = iterate([0.1], rotation_map(0.25), 2)
        assert out[0] == pytest.approx(0.6, abs=1e-15)

    def test_negative_steps_are_backward(self):
        x = (0.3, 0.8)
        cm = cat_map()
        assert wrap_distance(iterate(iterate(x, cm, 5), cm, -5), x) < 1e-12

    @pytest.mark.parametrize(
        "mapping",
        [
            rotation_map(GOLDEN),
            rotation_map((0.3, 0.711)),
            cat_map(),
            cat_map(lattice=64),
            baker_map(),
            compose(cat_map(), baker_map()),
        ],
        ids=lambda m: m.name,
    )
    def test_reversibility(self, mapping):
        rng = np.random.default_rng(7)
        pts = rng.random((1000, mapping.dim))
        if "lattice" in mapping.name:
            pts = np.rint(pts * 64) / 64 % 1.0
        back = mapping.backward_many(mapping.forward_many(pts))
        assert wrap_distance(back, pts) < 1e-9

    def test_cat_roundtrip_seven_steps(self):
        x = (0.137, 0.912)
        y = iterate(iterate(x, cat_map(), 7), cat_map(), -7)
        assert wrap_distance(x, y) < 1e-9

    def test_lattice_cat_is_periodic(self):
        # the cat matrix has order 3 mod 4, so 1/4-lattice orbits close in 3 steps
        m = cat_map(lattice=4)
        x = (0.25, 0.5)
        assert tuple(iterate(x, m, 3)) == x

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            classical_probe(PhasePoint(0.5), cat_map(), QUADRANTS)

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

    def test_integral_float_lattice_is_the_integer_lattice(self):
        assert cat_map(lattice=8.0).name == cat_map(lattice=8).name == "cat-map(lattice=8)"


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
        assert same_bits(cat_map().forward_many(pts), (pts @ CAT.T) % 1.0)
        assert same_bits(cat_map().backward_many(pts), (pts @ CAT_INV.T) % 1.0)

    @pytest.mark.parametrize("q", [4, 7, 64])
    @pytest.mark.parametrize("label", ["lattice", "random", "edges"])
    def test_lattice_cat(self, q, label):
        # off-lattice inputs are snapped to the nearest lattice point first
        rng = np.random.default_rng(q)
        pts = rng.integers(0, q, (2000, 2)) / q if label == "lattice" else clouds(2)[label]
        m = cat_map(lattice=q)
        assert same_bits(m.forward_many(pts), reference_lattice(pts, CAT, q))
        assert same_bits(m.backward_many(pts), reference_lattice(pts, CAT_INV, q))

    @pytest.mark.parametrize(
        "angles", [(GOLDEN,), (0.3, 0.711), (-0.37, -2.6), (2.71, 1e6 + 0.3), (-1e-20,)]
    )
    @pytest.mark.parametrize("label", ["random", "edges", "outside"])
    def test_rotation(self, angles, label):
        # a shift of -1e-20 takes 0.0 to -1e-20, which both forms round to 1.0
        pts = clouds(len(angles))[label]
        shift = np.array(angles)
        m = rotation_map(angles)
        assert same_bits(m.forward_many(pts), (pts + shift) % 1.0)
        assert same_bits(m.backward_many(pts), (pts - shift) % 1.0)

    @pytest.mark.parametrize("label", ["random", "edges", "outside"])
    def test_baker(self, label):
        pts = clouds(2)[label]
        assert same_bits(baker_map().forward_many(pts), reference_baker(pts, True))
        assert same_bits(baker_map().backward_many(pts), reference_baker(pts, False))

    def test_wrap_of_negatives_and_signed_zero(self):
        v = np.array([-0.0, 0.0, -1e-20, -0.25, -1.0, -2.5, -3.7, 1.0, 2.0**52 + 1, -(2.0**53)])
        assert same_bits(classical._wrapped(v.copy()), v % 1.0)

    def test_long_cat_orbit_matches_reference_loop(self):
        pts = np.random.default_rng(5).random((1000, 2))
        new = ref = pts
        for _ in range(20_000):
            new = cat_map().forward_many(new)
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
    def test_axis_index(self, edges):
        inner = np.asarray(edges)[1:-1]
        v = self.values(edges)
        got = classical._axis_index(v, inner)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.searchsorted(inner, v, side="left"))
        # the in-place form adds the count to what is there
        base = np.arange(v.size, dtype=np.int64)
        assert np.array_equal(classical._axis_index(v, inner, base.copy()), base + got)

    @pytest.mark.parametrize("edges", EDGE_SETS, ids=lambda e: f"{len(e) - 2}-inner")
    def test_interval_partition(self, edges):
        pts = self.values(edges)[:, None]
        cells = interval_partition(edges).cells_of_many(pts)
        assert np.array_equal(cells, searchsorted_cells(pts, [edges]))

    @pytest.mark.parametrize("second", EDGE_SETS, ids=lambda e: f"{len(e) - 2}-inner")
    def test_grid_partition(self, second):
        first = self.EDGE_SETS[3]
        rng = np.random.default_rng(9)
        for axes in ([first, second], [second, first], [first, second, self.EDGE_SETS[2]]):
            cloud = np.column_stack([rng.choice(self.values(e), 8000) for e in axes])
            cells = grid_partition(axes).cells_of_many(cloud)
            assert cells.dtype == np.int64
            assert np.array_equal(cells, searchsorted_cells(cloud, axes))


class TestClassicalProbe:
    def test_initial_indicator(self):
        part = interval_partition([0.0, 0.5, 1.0])
        probe = classical_probe(PhasePoint(0.7), rotation_map(GOLDEN), part)
        assert probe.sample(0.0) == OutcomeDistribution([0.0, 1.0])

    def test_golden_rotation_equidistributes(self):
        part = interval_partition([0.0, 0.5, 1.0])
        probe = classical_probe(PhasePoint(0.123), rotation_map(GOLDEN), part)
        omega = time_average_distribution(probe, STEPS(4096))
        assert omega.allclose(OutcomeDistribution([0.5, 0.5]), atol=5e-3)

    def test_rational_orbit_stays_in_cell(self):
        # orbit {0.05, 0.3, 0.55, 0.8} never leaves [0, 0.9)
        part = interval_partition([0.0, 0.9, 1.0])
        probe = classical_probe(PhasePoint(0.05), rotation_map(0.25), part)
        omega = time_average_distribution(probe, STEPS(512))
        assert omega == OutcomeDistribution([1.0, 0.0])

    def test_scalar_vector_agree(self):
        part = grid_partition([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])
        probe = classical_probe(PhasePoint((0.2, 0.6)), cat_map(), part)
        times = np.arange(20.0)
        block = probe.distributions_at(times)
        for k, t in enumerate(times):
            assert probe.sample(t) == OutcomeDistribution(block[k])

    def test_rejects_negative_time(self):
        part = interval_partition([0.0, 0.5, 1.0])
        probe = classical_probe(PhasePoint(0.1), rotation_map(GOLDEN), part)
        with pytest.raises(DomainError):
            probe.sample(-1.0)


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
            pure = classical_probe(PhasePoint(tuple(point)), cat_map(), part)
            expected = expected + weight * pure.distributions_at(times)
        assert np.array_equal(block, expected)

    def test_steps_once_to_the_largest_requested_step(self):
        mapping, calls = counting_map(cat_map())
        probe = ensemble_probe(contaminated_cat_ensemble(50, 0.1, seed=1), mapping, QUADRANTS)
        probe.distributions_at(np.array([10.0, 3.0, 3.4, 0.0]))
        assert calls == [50] * 10

    @pytest.mark.parametrize("kind", ["pure", "ensemble"])
    def test_step_cap_checked_before_any_map_call(self, kind):
        mapping, calls = counting_map(cat_map())
        if kind == "pure":
            probe = classical_probe(PhasePoint((0.2, 0.6)), mapping, QUADRANTS)
        else:
            probe = ensemble_probe(contaminated_cat_ensemble(50, 0.1, seed=1), mapping, QUADRANTS)
        with pytest.raises(DomainError, match="cap"):
            probe.distributions_at(np.array([1.0, 5.0, MAX_ORBIT_STEPS + 1.0]))
        with pytest.raises(DomainError, match="cap"):
            probe.sample(1e300)
        assert calls == []

    def test_ensemble_rejects_negative_time(self):
        mapping, calls = counting_map(cat_map())
        probe = ensemble_probe(contaminated_cat_ensemble(50, 0.1, seed=1), mapping, QUADRANTS)
        with pytest.raises(DomainError):
            probe.sample(-1.0)
        with pytest.raises(DomainError):
            probe.distributions_at(np.array([3.0, -2.0]))
        assert calls == []

    def test_long_horizon_memory_is_bounded(self):
        # holding every orbit state took about 320 MB here
        ens = contaminated_cat_ensemble(1000, delta=0.1, seed=9300)
        probe = ensemble_probe(ens, cat_map(), QUADRANTS)
        cfg = TimeAverageConfig(horizon=20_000, samples=500, scheme="uniform-grid")
        tracemalloc.start()
        try:
            time_average_distribution(probe, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_long_horizon_peak_is_a_few_blocks(self):
        # the clouds or cells of all 500 sampled steps at once would pass 8 MB
        ens = contaminated_cat_ensemble(1000, delta=0.1, seed=9300)
        probe = ensemble_probe(ens, cat_map(), QUADRANTS)
        cfg = TimeAverageConfig(horizon=20_000, samples=500, scheme="uniform-grid")
        tracemalloc.start()
        try:
            time_average_distribution(probe, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


# unsorted, repeated and half-integer times (np.rint sends 2.5 to 2, 3.5 to 4)
ODD_TIMES = np.array([17.0, 3.5, 3.5, 0.0, 2.5, 40.0, 17.0, 0.5, 1.5, 29.4, 12.6, 39.5, 8.0])


class TestBlockedClassification:
    """Several steps' clouds are classified in one call; with a small block
    cap one request spans several blocks, and every block matches a
    per-step loop bit for bit."""

    @pytest.mark.parametrize("cap", [2, 6, 25, 10**6])
    @pytest.mark.parametrize("mapping", [cat_map(), baker_map(), cat_map(lattice=8)],
                             ids=lambda m: m.name)
    def test_ensemble_block_matches_per_step_loop(self, monkeypatch, cap, mapping):
        monkeypatch.setattr(classical, "_BLOCK_COORDS", cap)
        rng = np.random.default_rng(4)
        ens = ClassicalEnsemble(rng.random((5, 2)), rng.dirichlet(np.ones(5)))
        part = grid_partition([[0.0, 0.3, 1.0], [0.0, 0.5, 0.8, 1.0]])
        block = ensemble_probe(ens, mapping, part).distributions_at(ODD_TIMES)
        expected = reference_block(ens.points, ens.weights, mapping, part, ODD_TIMES)
        assert same_bits(block, expected)

    @pytest.mark.parametrize("cap", [1, 4, 10**6])
    def test_pure_block_matches_per_step_loop(self, monkeypatch, cap):
        monkeypatch.setattr(classical, "_BLOCK_COORDS", cap)
        part = interval_partition([0.0, 0.2, 0.5, 1.0])
        x = PhasePoint(0.123)
        block = classical_probe(x, rotation_map(GOLDEN), part).distributions_at(ODD_TIMES)
        expected = reference_block(x.as_array()[None, :], np.ones(1), rotation_map(GOLDEN),
                                   part, ODD_TIMES)
        assert same_bits(block, expected)

    def test_one_cells_call_per_block(self, monkeypatch):
        # 50 two-d points: a 1000-coordinate cap holds 10 steps per block
        monkeypatch.setattr(classical, "_BLOCK_COORDS", 1000)
        part, calls = counting_partition(QUADRANTS)
        ens = contaminated_cat_ensemble(50, 0.1, seed=1)
        ensemble_probe(ens, cat_map(), part).distributions_at(np.arange(25.0))
        assert calls == [500, 500, 250]

    @pytest.mark.parametrize("kind", ["pure", "ensemble"])
    def test_zero_times_is_a_dimension_error(self, kind):
        if kind == "pure":
            probe = classical_probe(PhasePoint((0.2, 0.6)), cat_map(), QUADRANTS)
        else:
            probe = ensemble_probe(contaminated_cat_ensemble(50, 0.1, seed=1), cat_map(), QUADRANTS)
        with pytest.raises(DimensionError):
            probe.distributions_at(np.array([]))


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
        probe = classical_probe(PhasePoint((0.21, 0.43)), cat_map(), part)
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


class TestCorrelationDefect:
    def test_same_orbit_fully_correlated(self):
        # same periodic orbit: defect_j = p_j (1 - p_j) with p_j = 1/4
        part = interval_partition([0.0, 0.25, 0.5, 0.75, 1.0])
        cfg = STEPS(512)
        x = PhasePoint(0.1)
        defect = correlation_defect(x, x, rotation_map(0.25), part, cfg)
        assert defect == pytest.approx([3 / 16] * 4, abs=1e-12)

    def test_generic_cat_pair_decorrelates(self):
        part = grid_partition([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])
        cfg = STEPS(4096)
        x = PhasePoint((0.2137, 0.5821))
        y = PhasePoint((0.7301, 0.1193))
        defect, stderr = correlation_defect_batched(x, y, cat_map(), part, cfg)
        assert np.all(np.abs(defect) < 3.0 * stderr)

    def test_deterministic_factor_gives_zero(self):
        # x never leaves cell 0, so its indicator is constant and the
        # covariance with anything vanishes
        part = interval_partition([0.0, 0.9, 1.0])
        cfg = STEPS(256)
        x = PhasePoint(0.05)   # orbit {0.05, 0.3, 0.55, 0.8} inside cell 0
        y = PhasePoint(0.47)
        defect = correlation_defect(x, y, rotation_map(0.25), part, cfg)
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
    @pytest.mark.parametrize("mapping", [cat_map(), baker_map(), rotation_map((GOLDEN, 0.3))],
                             ids=lambda m: m.name)
    def test_pair_defects(self, monkeypatch, cfg, mapping):
        monkeypatch.setattr(classical, "_BLOCK_COORDS", 60)
        part = grid_partition([[0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.5, 1.0]])
        x, y = PhasePoint((0.2137, 0.5821)), PhasePoint((0.7301, 0.1193))
        pair = np.array([x.coords, y.coords])
        times = sample_times(cfg)
        plain = reference_defects(pair, mapping, part, times, 1)[0, 0]
        assert same_bits(correlation_defect(x, y, mapping, part, cfg), plain)
        batches = 16
        per_batch = reference_defects(pair, mapping, part, times[: cfg.samples // batches * batches],
                                      batches)[0]
        defect, stderr = correlation_defect_batched(x, y, mapping, part, cfg, batches)
        assert same_bits(defect, per_batch.mean(axis=0))
        assert same_bits(stderr, per_batch.std(axis=0, ddof=1) / math.sqrt(batches))

    def test_many_pairs_and_audit(self, monkeypatch):
        monkeypatch.setattr(classical, "_BLOCK_COORDS", 500)
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
        passed = int(np.all(np.abs(defect) / np.maximum(stderr, 1e-300) <= threshold, axis=1).sum())
        assert 0 < passed < pair_count
        audit = decorrelation_audit(ens, cat_map(), part, cfg, pair_count, seed, batches, risk)
        assert audit == (passed / pair_count, pair_count)


class TestEnsembles:
    def test_single_point_reduces_to_pure_probe(self):
        part = grid_partition([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])
        x = PhasePoint((0.3, 0.9))
        single = ClassicalEnsemble([x])
        times = np.arange(30.0)
        a = ensemble_probe(single, cat_map(), part).distributions_at(times)
        b = classical_probe(x, cat_map(), part).distributions_at(times)
        assert np.array_equal(a, b)

    def test_two_points_convexity(self):
        part = interval_partition([0.0, 0.5, 1.0])
        ens = ClassicalEnsemble([PhasePoint(0.1), PhasePoint(0.7)])
        probe = ensemble_probe(ens, rotation_map(0.0), part)
        assert probe.sample(0.0) == OutcomeDistribution([0.5, 0.5])

    def test_validation(self):
        with pytest.raises(DomainError):
            ClassicalEnsemble([PhasePoint(0.1)], weights=[0.5])
        with pytest.raises(DimensionError):
            ClassicalEnsemble([PhasePoint(0.1)], weights=[0.5, 0.5])
        with pytest.raises(DomainError):
            ClassicalEnsemble([PhasePoint(0.1), PhasePoint(0.2)], weights=[1.5, -0.5])

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

    def test_periodic_weight(self):
        ens = ClassicalEnsemble(
            [PhasePoint((0.1, 0.2)), PhasePoint((0.3, 0.4)), PhasePoint((0.5, 0.6))],
            weights=[0.5, 0.25, 0.25],
            chaotic_flags=[True, False, True],
        )
        assert ens.periodic_weight == pytest.approx(0.25)

    def test_contaminated_ensemble(self):
        ens = contaminated_cat_ensemble(200, delta=0.1, seed=5, lattice=4)
        assert ens.size == 200
        assert ens.periodic_weight == pytest.approx(0.1)
        # periodic points live on the exact lattice and return after 3 steps
        periodic = ens.points[~ens.chaotic_flags]
        m = cat_map()
        rolled = periodic.copy()
        for _ in range(3):
            rolled = m.forward_many(rolled)
        assert np.array_equal(rolled, periodic)

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
            x, y = PhasePoint(tuple(ens.points[i])), PhasePoint(tuple(ens.points[j]))
            defect, stderr = correlation_defect_batched(x, y, cat_map(), part, cfg, batches)
            passed += bool(np.all(np.abs(defect) / np.maximum(stderr, 1e-300) <= threshold))
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

    @pytest.mark.parametrize("risk", [0.0, 1.0, 1.5, math.nan])
    def test_audit_family_risk_domain(self, risk):
        ens = contaminated_cat_ensemble(50, delta=0.0, seed=1)
        with pytest.raises(DomainError, match="family risk"):
            decorrelation_audit(ens, cat_map(), QUADRANTS, STEPS(64), 5, family_risk=risk)

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
            ({"name": "baker-map"}, baker_map()),
        ]],
    )
    def test_map_roundtrip(self, cfg, mapping):
        clone = _map_node(cfg, "map")
        assert clone.name == mapping.name
        pts = np.random.default_rng(0).random((16, mapping.dim))
        if "lattice" in mapping.name:
            pts = np.rint(pts * 8) / 8 % 1.0
        assert np.array_equal(clone.forward_many(pts), mapping.forward_many(pts))

    def test_partition_roundtrip(self):
        part = grid_partition([[0.0, 0.3, 1.0], [0.0, 0.5, 0.75, 1.0]])
        clone = _partition_node(part.description, "partition")
        pts = np.random.default_rng(1).random((64, 2))
        assert np.array_equal(clone.cells_of_many(pts), part.cells_of_many(pts))

    def test_config_errors_carry_paths(self):
        with pytest.raises(ConfigError, match="system.map.name"):
            _map_node({"name": "hyperion"}, "scenario.system.map")
        with pytest.raises(ConfigError, match="partition.kind"):
            _partition_node({"kind": "voronoi"}, "partition")
        with pytest.raises(ConfigError, match="partition.edges"):
            _partition_node({"kind": "interval", "edges": [0.5, 1.0]}, "partition")
