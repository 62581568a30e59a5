"""Core distributions, distinguishability, time averages and verdicts."""

import dataclasses
import math

import numpy as np
import pytest

from equilib.core import (
    AverageEstimate,
    DimensionError,
    DistributionError,
    DomainError,
    EquilibrationReport,
    OutcomeDistribution,
    TimeAverageConfig,
    TrajectoryProbe,
    average_distinguishability,
    average_multi_distinguishability,
    check_sufficiency,
    decide_verdict,
    distinguishability,
    equilibration_report,
    guessing_probability,
    multi_distinguishability,
    multi_measurement_budget,
    sample_times,
    synthetic_probe,
    time_average_distribution,
)


def constant_probe(values):
    dist = OutcomeDistribution(values)

    def many(times):
        return np.tile(dist.probs, (len(times), 1))

    return TrajectoryProbe(lambda t: dist, len(dist), many)


def cosine_probe():
    """p(t) = ((1 + cos t)/2, (1 - cos t)/2), the two-level benchmark."""

    def many(times):
        c = np.cos(np.asarray(times, dtype=float))
        return np.column_stack(((1 + c) / 2, (1 - c) / 2))

    return TrajectoryProbe(
        lambda t: OutcomeDistribution(many([t])[0]), 2, many
    )


class TestOutcomeDistribution:
    def test_valid(self):
        d = OutcomeDistribution([0.3, 0.7])
        assert len(d) == 2
        assert d[1] == 0.7
        assert d.max_probability == 0.7

    def test_rejects_bad_sum(self):
        with pytest.raises(DistributionError):
            OutcomeDistribution([0.3, 0.3])

    def test_rejects_negative_entry(self):
        with pytest.raises(DistributionError):
            OutcomeDistribution([-0.1, 1.1])

    def test_rejects_empty_and_nan(self):
        with pytest.raises(DistributionError):
            OutcomeDistribution([])
        with pytest.raises(DistributionError):
            OutcomeDistribution([float("nan"), 1.0])

    def test_tolerances(self):
        # within: tiny negative entry and 1e-10 normalization slack
        OutcomeDistribution([1.0 + 5e-13, -5e-13])
        OutcomeDistribution([0.5, 0.5 + 5e-10])
        with pytest.raises(DistributionError):
            OutcomeDistribution([0.5, 0.5 + 5e-9])

    def test_immutable(self):
        d = OutcomeDistribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 1.0

    def test_indicator_uniform(self):
        assert OutcomeDistribution.indicator(1, 3) == OutcomeDistribution([0, 1, 0])
        assert OutcomeDistribution.uniform(4).allclose(
            OutcomeDistribution([0.25] * 4), atol=0
        )
        with pytest.raises(DomainError):
            OutcomeDistribution.indicator(3, 3)


class TestDistinguishability:
    def test_identical_is_zero(self):
        p = OutcomeDistribution([0.3, 0.7])
        assert distinguishability(p, p) == 0.0

    def test_disjoint_saturates(self):
        assert distinguishability(
            OutcomeDistribution([1, 0]), OutcomeDistribution([0, 1])
        ) == 1.0

    def test_hand_value(self):
        # (1/2)(|0.7-0.5| + |0.3-0.5|) = 0.2
        d = distinguishability(
            OutcomeDistribution([0.7, 0.3]), OutcomeDistribution([0.5, 0.5])
        )
        assert d == pytest.approx(0.2, abs=1e-15)

    def test_symmetric(self):
        p = OutcomeDistribution([0.2, 0.5, 0.3])
        q = OutcomeDistribution([0.6, 0.1, 0.3])
        assert distinguishability(p, q) == distinguishability(q, p)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            distinguishability(
                OutcomeDistribution([1.0]), OutcomeDistribution([0.5, 0.5])
            )


class TestGuessingProbability:
    @pytest.mark.parametrize("d,expected", [(0.0, 0.5), (1.0, 1.0), (0.2, 0.6)])
    def test_values(self, d, expected):
        assert guessing_probability(d) == pytest.approx(expected, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            guessing_probability(-0.1)
        with pytest.raises(DomainError):
            guessing_probability(1.5)


class TestTimeAverageConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            TimeAverageConfig(horizon=0.0, samples=10)
        with pytest.raises(DomainError):
            TimeAverageConfig(horizon=math.inf, samples=10)
        with pytest.raises(DomainError):
            TimeAverageConfig(horizon=1.0, samples=1)
        with pytest.raises(DomainError):
            TimeAverageConfig(horizon=1.0, samples=10, scheme="sobol")

    def test_uniform_grid_times(self):
        cfg = TimeAverageConfig(horizon=10.0, samples=5, scheme="uniform-grid")
        assert np.array_equal(sample_times(cfg), [0.0, 2.0, 4.0, 6.0, 8.0])

    def test_stratified_reproducible_and_stratified(self):
        cfg = TimeAverageConfig(horizon=8.0, samples=8, seed=42)
        t1, t2 = sample_times(cfg), sample_times(cfg)
        assert np.array_equal(t1, t2)
        # one sample per sub-interval
        assert np.all((t1 >= np.arange(8)) & (t1 < np.arange(1, 9)))
        t3 = sample_times(TimeAverageConfig(horizon=8.0, samples=8, seed=43))
        assert not np.array_equal(t1, t3)


class TestTimeAverageDistribution:
    def test_constant(self):
        cfg = TimeAverageConfig(horizon=10.0, samples=64, seed=1)
        avg = time_average_distribution(constant_probe([0.4, 0.6]), cfg)
        assert avg.allclose(OutcomeDistribution([0.4, 0.6]), atol=1e-14)

    def test_cosine_full_periods(self):
        # closed form: the cosine integrates to zero over whole periods
        cfg = TimeAverageConfig(
            horizon=2 * math.pi * 1e3, samples=10_000, scheme="uniform-grid"
        )
        avg = time_average_distribution(cosine_probe(), cfg)
        assert avg.allclose(OutcomeDistribution([0.5, 0.5]), atol=2e-3)

    def test_occupation_fraction(self):
        # indicator trajectory cycling cell 0 once per 4 steps
        def many(times):
            block = np.zeros((len(times), 2))
            steps = np.rint(np.asarray(times)).astype(int)
            block[steps % 4 == 0, 0] = 1.0
            block[steps % 4 != 0, 1] = 1.0
            return block

        probe = TrajectoryProbe(
            lambda t: OutcomeDistribution(many([t])[0]), 2, many
        )
        cfg = TimeAverageConfig(horizon=4096, samples=4096, scheme="uniform-grid")
        avg = time_average_distribution(probe, cfg)
        assert avg.allclose(OutcomeDistribution([0.25, 0.75]), atol=1e-12)

    def test_invalid_probe_data_propagates(self):
        def bad(times):
            return np.full((len(times), 2), 0.9)

        probe = TrajectoryProbe(lambda t: OutcomeDistribution([0.5, 0.5]), 2, bad)
        cfg = TimeAverageConfig(horizon=1.0, samples=4)
        with pytest.raises(DistributionError):
            time_average_distribution(probe, cfg)

    def test_wrong_length_sample(self):
        probe = TrajectoryProbe(lambda t: OutcomeDistribution([1.0]), 2)
        cfg = TimeAverageConfig(horizon=1.0, samples=4)
        with pytest.raises(DimensionError):
            time_average_distribution(probe, cfg)

    def test_scalar_and_vector_paths_agree(self):
        vec = cosine_probe()
        scalar = TrajectoryProbe(vec.sample, vec.outcome_count, None)
        cfg = TimeAverageConfig(horizon=30.0, samples=64, seed=3)
        assert time_average_distribution(vec, cfg) == time_average_distribution(
            scalar, cfg
        )


class TestProbeMemo:
    @staticmethod
    def counting_probe():
        calls = []

        def many(times):
            calls.append(np.array(times))
            return cosine_probe().sample_many(times)

        return TrajectoryProbe(cosine_probe().sample, 2, many), calls

    def test_one_block_per_config(self):
        probe, calls = self.counting_probe()
        cfg = TimeAverageConfig(horizon=30.0, samples=64, seed=3)
        omega = time_average_distribution(probe, cfg)
        average_distinguishability(probe, omega, cfg)
        equilibration_report(probe, 0.3, cfg)
        assert len(calls) == 1
        other = TimeAverageConfig(horizon=30.0, samples=64, seed=4)
        omega = time_average_distribution(probe, other)
        average_distinguishability(probe, omega, other)
        assert len(calls) == 2
        # the memo holds one block: going back to the first config samples again
        time_average_distribution(probe, cfg)
        assert len(calls) == 3

    def test_block_is_read_only(self):
        probe, _ = self.counting_probe()
        block = probe.distributions_at(np.linspace(0.0, 5.0, 8))
        with pytest.raises(ValueError):
            block[0, 0] = 0.5

    def test_keyed_by_value_not_by_array(self):
        probe, calls = self.counting_probe()
        times = np.linspace(0.0, 5.0, 8)
        first = probe.distributions_at(times)
        times[0] = 1.0
        second = probe.distributions_at(times)
        assert len(calls) == 2
        assert first[0, 0] == 1.0 and second[0, 0] != 1.0

    def test_replace_does_not_carry_the_memo(self):
        probe, calls = self.counting_probe()
        cfg = TimeAverageConfig(horizon=30.0, samples=64, seed=3)
        time_average_distribution(probe, cfg)
        clone, clone_calls = self.counting_probe()
        swapped = dataclasses.replace(probe, sample_many=clone.sample_many)
        time_average_distribution(swapped, cfg)
        assert len(calls) == 1 and len(clone_calls) == 1


class TestAverageDistinguishability:
    def test_constant_equals_omega(self):
        probe = constant_probe([0.25, 0.75])
        cfg = TimeAverageConfig(horizon=5.0, samples=32, seed=5)
        est = average_distinguishability(probe, OutcomeDistribution([0.25, 0.75]), cfg)
        assert est.mean == 0.0

    def test_cosine_one_over_pi(self):
        # D(p(t), (1/2,1/2)) = |cos t|/2, averaging to 1/pi
        cfg = TimeAverageConfig(
            horizon=2 * math.pi * 1e3, samples=10_000, scheme="uniform-grid"
        )
        est = average_distinguishability(
            cosine_probe(), OutcomeDistribution([0.5, 0.5]), cfg
        )
        assert est.mean == pytest.approx(1 / math.pi, abs=1e-2)

    def test_two_cell_occupation(self):
        # indicator trajectory with occupation p: in-sample mean is 2p(1-p)
        def many(times):
            steps = np.rint(np.asarray(times)).astype(int)
            block = np.zeros((len(times), 2))
            block[steps % 4 == 0, 0] = 1.0
            block[steps % 4 != 0, 1] = 1.0
            return block

        probe = TrajectoryProbe(lambda t: OutcomeDistribution(many([t])[0]), 2, many)
        cfg = TimeAverageConfig(horizon=4096, samples=4096, scheme="uniform-grid")
        omega = time_average_distribution(probe, cfg)
        est = average_distinguishability(probe, omega, cfg)
        p = 0.25
        assert est.mean == pytest.approx(2 * p * (1 - p), abs=1e-12)

    def test_dimension_mismatch(self):
        cfg = TimeAverageConfig(horizon=1.0, samples=4)
        with pytest.raises(DimensionError):
            average_distinguishability(
                cosine_probe(), OutcomeDistribution([1.0]), cfg
            )

    def test_mean_in_unit_interval(self):
        cfg = TimeAverageConfig(horizon=100.0, samples=256, seed=7)
        for seed in range(5):
            probe = synthetic_probe(4, seed)
            omega = time_average_distribution(probe, cfg)
            est = average_distinguishability(probe, omega, cfg)
            assert 0.0 <= est.mean <= 1.0
            assert est.standard_error >= 0.0


class TestCheckSufficiency:
    def test_examples(self):
        assert check_sufficiency(OutcomeDistribution([0.96, 0.04]), 0.1)
        assert check_sufficiency(OutcomeDistribution([1.0, 0.0]), 0.0)
        assert check_sufficiency(OutcomeDistribution([1.0, 0.0]), 0.5)
        assert not check_sufficiency(OutcomeDistribution([0.5, 0.5]), 0.1)

    def test_boundary(self):
        assert check_sufficiency(OutcomeDistribution([0.95, 0.05]), 0.1)

    def test_domain(self):
        with pytest.raises(DomainError):
            check_sufficiency(OutcomeDistribution([1.0]), 1.0)


class TestMultiMeasurement:
    def test_single_pair(self):
        p = OutcomeDistribution([0.7, 0.3])
        q = OutcomeDistribution([0.5, 0.5])
        assert multi_distinguishability([(p, q)]) == distinguishability(p, q)

    def test_max_over_pairs(self):
        mk = OutcomeDistribution
        pairs = [
            (mk([0.6, 0.4]), mk([0.5, 0.5])),   # D = 0.1
            (mk([0.9, 0.1]), mk([0.5, 0.5])),   # D = 0.4
            (mk([0.7, 0.3]), mk([0.5, 0.5])),   # D = 0.2
        ]
        assert multi_distinguishability(pairs) == pytest.approx(0.4, abs=1e-15)

    def test_identical_pairs(self):
        p = OutcomeDistribution([0.2, 0.8])
        assert multi_distinguishability([(p, p), (p, p)]) == 0.0

    def test_empty(self):
        with pytest.raises(DomainError):
            multi_distinguishability([])

    @pytest.mark.parametrize(
        "eps,k,expected", [(0.1, 1, 0.1), (0.1, 5, 0.02), (0.3, 3, 0.1)]
    )
    def test_budget(self, eps, k, expected):
        assert multi_measurement_budget(eps, k) == pytest.approx(expected, abs=1e-15)

    def test_budget_domain(self):
        with pytest.raises(DomainError):
            multi_measurement_budget(1.0, 2)
        with pytest.raises(DomainError):
            multi_measurement_budget(0.1, 0)

    def test_average_max_bounded_by_sum(self):
        cfg = TimeAverageConfig(horizon=200.0, samples=512, seed=17)
        probes = [synthetic_probe(3, s) for s in (1, 2, 3)]
        omegas = [time_average_distribution(p, cfg) for p in probes]
        est = average_multi_distinguishability(probes, omegas, cfg)
        total = sum(
            average_distinguishability(p, w, cfg).mean for p, w in zip(probes, omegas)
        )
        assert est.mean <= total + 1e-12


class TestVerdicts:
    def test_decide(self):
        assert decide_verdict(0.05, 0.01, 0.1) == "equilibrates"
        assert decide_verdict(0.2, 0.01, 0.1) == "does-not-equilibrate"
        assert decide_verdict(0.1, 0.01, 0.1) == "inconclusive"

    def test_report_invariants(self):
        omega = OutcomeDistribution([0.5, 0.5])
        with pytest.raises(DomainError):
            EquilibrationReport(0.5, 0.0, omega, 0.1, "equilibrates")
        with pytest.raises(DomainError):
            EquilibrationReport(0.05, 0.1, omega, 0.2, "does-not-equilibrate")
        rep = EquilibrationReport(0.05, 0.01, omega, 0.2, "equilibrates")
        assert rep.verdict == "equilibrates"

    def test_report_builder(self):
        probe = constant_probe([0.3, 0.7])
        cfg = TimeAverageConfig(horizon=4.0, samples=16, seed=2)
        rep = equilibration_report(probe, 0.25, cfg, bound_values={"demo": 0.5})
        assert rep.mean_distinguishability == 0.0
        assert rep.verdict == "equilibrates"
        assert rep.equilibrium_distribution.allclose(
            OutcomeDistribution([0.3, 0.7]), atol=1e-14
        )
        assert rep.bound_values == {"demo": 0.5}

    def test_report_quadrature_error_enters_stderr(self):
        probe = constant_probe([0.3, 0.7])
        cfg = TimeAverageConfig(horizon=4.0, samples=16, seed=2)
        plain = equilibration_report(probe, 0.25, cfg)
        padded = equilibration_report(probe, 0.25, cfg, quadrature_error=0.01)
        assert padded.standard_error == pytest.approx(
            plain.standard_error + 0.01, abs=1e-15
        )


class TestSyntheticProbe:
    def test_valid_and_deterministic(self):
        p1 = synthetic_probe(4, seed=9)
        p2 = synthetic_probe(4, seed=9)
        times = np.linspace(0.0, 20.0, 33)
        b1, b2 = p1.distributions_at(times), p2.distributions_at(times)
        assert np.array_equal(b1, b2)
        assert np.all(b1 >= 0) and np.allclose(b1.sum(axis=1), 1.0)

    def test_scalar_matches_vector(self):
        probe = synthetic_probe(3, seed=4)
        t = 1.37
        assert probe.sample(t).probs == pytest.approx(
            probe.sample_many(np.array([t]))[0]
        )

    def test_dominant_weight_dominates(self):
        probe = synthetic_probe(5, seed=3, dominant_weight=0.97, amplitude=0.3)
        cfg = TimeAverageConfig(horizon=300.0, samples=512, seed=0)
        omega = time_average_distribution(probe, cfg)
        assert omega.max_probability > 0.9
        assert np.argmax(omega.probs) == 0

    def test_sample_zero_is_initial(self):
        probe = synthetic_probe(3, seed=1)
        assert probe.sample(0.0) == OutcomeDistribution(
            probe.sample_many(np.array([0.0]))[0]
        )

    def test_isinstance_estimate(self):
        probe = synthetic_probe(2, seed=0)
        cfg = TimeAverageConfig(horizon=10.0, samples=32, seed=0)
        omega = time_average_distribution(probe, cfg)
        assert isinstance(average_distinguishability(probe, omega, cfg), AverageEstimate)
