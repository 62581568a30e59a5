"""Classical maps, partitions, probes and the pure/mixed-state results."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from equilib.classical import (
    MAX_ORBIT_STEPS,
    ClassicalEnsemble,
    PhasePoint,
    baker_map,
    cat_map,
    check_necessity,
    classical_probe,
    compose_maps,
    contaminated_cat_ensemble,
    correlation_defect,
    correlation_defect_batched,
    decorrelation_audit,
    ensemble_noise_floor,
    ensemble_probe,
    grid_partition,
    interval_partition,
    map_from_config,
    mixed_equilibration_bound,
    partition_from_config,
    pure_average_distinguishability,
    rotation_map,
)
from equilib.core import (
    ConfigError,
    DimensionError,
    DomainError,
    OutcomeDistribution,
    TimeAverageConfig,
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
            compose_maps(cat_map(), baker_map()),
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

    def test_compose_empty(self):
        with pytest.raises(DomainError):
            compose_maps()


class TestPartitions:
    def test_interval_cells(self):
        part = interval_partition([0.0, 0.25, 0.75, 1.0])
        assert part.cell_count == 3
        assert part.cell_of(PhasePoint(0.1)) == 0
        assert part.cell_of(PhasePoint(0.5)) == 1
        assert part.cell_of(PhasePoint(0.9)) == 2

    def test_edge_goes_to_lower_cell(self):
        part = interval_partition([0.0, 0.5, 1.0])
        assert part.cell_of(PhasePoint(0.5)) == 0
        assert part.cell_of(PhasePoint(0.5 + 1e-12)) == 1
        assert part.cell_of(PhasePoint(0.0)) == 0

    def test_grid_row_major(self):
        part = grid_partition([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])
        assert part.cell_count == 4
        assert part.cell_of(PhasePoint((0.1, 0.1))) == 0
        assert part.cell_of(PhasePoint((0.1, 0.9))) == 1
        assert part.cell_of(PhasePoint((0.9, 0.1))) == 2
        assert part.cell_of(PhasePoint((0.9, 0.9))) == 3

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
            part.cell_of(PhasePoint((0.2, 0.7)))
        assert grid_partition([[0.0, 1.0], [0.0, 0.5, 1.0]]).dim == 2

    def test_bad_edges(self):
        with pytest.raises(DomainError):
            interval_partition([0.0, 0.5, 0.4, 1.0])
        with pytest.raises(DomainError):
            interval_partition([0.1, 1.0])


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
        from scipy import stats

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
        clone = map_from_config(cfg)
        assert clone.name == mapping.name
        pts = np.random.default_rng(0).random((16, mapping.dim))
        if "lattice" in mapping.name:
            pts = np.rint(pts * 8) / 8 % 1.0
        assert np.array_equal(clone.forward_many(pts), mapping.forward_many(pts))

    def test_partition_roundtrip(self):
        part = grid_partition([[0.0, 0.3, 1.0], [0.0, 0.5, 0.75, 1.0]])
        clone = partition_from_config(part.description)
        pts = np.random.default_rng(1).random((64, 2))
        assert np.array_equal(clone.cells_of_many(pts), part.cells_of_many(pts))

    def test_config_errors_carry_paths(self):
        with pytest.raises(ConfigError, match="system.map.name"):
            map_from_config({"name": "hyperion"}, "scenario.system.map")
        with pytest.raises(ConfigError, match="partition.kind"):
            partition_from_config({"kind": "voronoi"})
        with pytest.raises(ConfigError, match="partition.edges"):
            partition_from_config({"kind": "interval", "edges": [0.5, 1.0]})
