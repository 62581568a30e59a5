"""Core distributions, distinguishability, time averages and verdicts."""

import dataclasses
import math
import re

import numpy as np
import pytest

from equilib import classical, quantum
from equilib.core import (
    MAX_SAMPLES,
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
    sample_times,
    synthetic_probe,
    time_average_distribution,
    typed_array,
)


def builder_ensemble():
    """The cloud behind ``builder_probes()["ensemble"]``."""
    return classical.contaminated_cat_ensemble(50, 0.1, seed=4)


def builder_probes():
    """One probe from each builder, by name."""
    grid = classical.grid_partition([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])
    spec = quantum.random_spectrum(4, 2)
    return {
        "quantum": quantum.quantum_probe(
            quantum.random_mixed_state(4, 1), spec, quantum.random_povm(4, 3, 3)
        ),
        "classical": classical.classical_probe(
            classical.PhasePoint((0.2, 0.6)), classical.cat_map(), grid
        ),
        "ensemble": classical.ensemble_probe(builder_ensemble(), classical.cat_map(), grid),
        "synthetic": synthetic_probe(3, seed=4),
    }


def constant_probe(values):
    dist = OutcomeDistribution(values)

    def many(times):
        return np.tile(dist.probs, (len(times), 1))

    return TrajectoryProbe(many, len(dist))


def cosine_probe():
    """p(t) = ((1 + cos t)/2, (1 - cos t)/2), the two-level benchmark."""

    def many(times):
        c = np.cos(np.asarray(times, dtype=float))
        return np.column_stack(((1 + c) / 2, (1 - c) / 2))

    return TrajectoryProbe(many, 2)


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

    def test_hash_agrees_with_equality(self):
        # -0.0 == 0.0, so the two distributions are one set member
        a, b = OutcomeDistribution([1.0, 0.0]), OutcomeDistribution([1.0, -0.0])
        assert a == b
        assert len({a, b}) == 1

    def test_immutable(self):
        d = OutcomeDistribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 1.0


class TestTypedArray:
    def test_reads_each_dtype(self):
        for values, dtype in (([1, 2.5], float), ([1, 2.5, 3j], complex), ([True], bool)):
            arr = typed_array(values, "x", dtype)
            assert arr.dtype == dtype
            assert arr.tolist() == values

    def test_valid_entries_keep_their_bits(self):
        values = [0.1, -0.0, 5e-324, 3, -(2**53) - 1]
        assert typed_array(values, "x").tobytes() == np.array(values, dtype=float).tobytes()

    def test_an_array_of_the_dtype_is_not_copied(self):
        for dtype in (float, complex, bool):
            arr = np.zeros(3, dtype=dtype)
            assert typed_array(arr, "x", dtype) is arr

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_an_integer_past_int64_reads_as_the_nearest_double(self, dtype):
        assert typed_array([2**70, -(2**64)], "x", dtype).tolist() == [2.0**70, -(2.0**64)]
        with pytest.raises(DomainError, match=r"^x has an integer beyond the double range$"):
            typed_array([0.5, 10**400], "x", dtype)

    @pytest.mark.parametrize(
        "dtype, bad",
        [(float, "0.5"), (float, None), (float, True), (float, np.True_), (float, 1j),
         (float, [0.5]), (complex, "1"), (complex, False), (bool, 1), (bool, 0.0),
         (bool, "true"), (bool, None)],
    )
    def test_refuses_an_entry_of_another_type(self, dtype, bad):
        # numpy would read every one of these
        what = "booleans" if dtype is bool else "numbers"
        message = rf"^x must be {what}, got {re.escape(repr(bad))}$"
        with pytest.raises(DomainError, match=message):
            typed_array([[0.5, bad]] if dtype is not bool else [[True, bad]], "x", dtype)

    @pytest.mark.parametrize(
        "values, dtype, kind",
        [(np.array([True]), float, "bool"), (np.array([1j]), float, "complex128"),
         (np.array(["1"]), complex, "<U1"), (np.array([1.0]), bool, "float64")],
    )
    def test_refuses_an_array_of_another_kind(self, values, dtype, kind):
        what = "booleans" if dtype is bool else "numbers"
        with pytest.raises(DomainError, match=rf"^x must be {what}, got {kind} entries$"):
            typed_array(values, "x", dtype)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_refuses_non_finite_entries(self, bad):
        dtypes = (complex,) if isinstance(bad, complex) else (float, complex)
        for dtype in dtypes:
            for values in ([0.5, bad], np.array([0.5, bad])):
                with pytest.raises(DomainError, match=r"^x has non-finite entries$"):
                    typed_array(values, "x", dtype)


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

    def test_sample_count_cap(self):
        assert TimeAverageConfig(horizon=1.0, samples=MAX_SAMPLES).samples == MAX_SAMPLES
        for samples in (MAX_SAMPLES + 1, 10**15):
            with pytest.raises(DomainError, match="at most"):
                TimeAverageConfig(horizon=1.0, samples=samples)

    def test_rejects_negative_seed(self):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            TimeAverageConfig(horizon=1.0, samples=10, seed=-1)

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

        probe = TrajectoryProbe(many, 2)
        cfg = TimeAverageConfig(horizon=4096, samples=4096, scheme="uniform-grid")
        avg = time_average_distribution(probe, cfg)
        assert avg.allclose(OutcomeDistribution([0.25, 0.75]), atol=1e-12)

    def test_invalid_probe_data_propagates(self):
        def bad(times):
            return np.full((len(times), 2), 0.9)

        probe = TrajectoryProbe(bad, 2)
        cfg = TimeAverageConfig(horizon=1.0, samples=4)
        with pytest.raises(DistributionError):
            time_average_distribution(probe, cfg)

    @pytest.mark.parametrize("excess, fails", [(2e-9, True), (5e-10, False)])
    def test_row_sum_tolerance(self, excess, fails):
        # NORM_TOL is 1e-9: sample 2 sums to 1 + excess
        def many(times):
            block = np.full((len(times), 2), 0.5)
            block[2, 0] += excess
            return block

        probe = TrajectoryProbe(many, 2)
        if fails:
            with pytest.raises(DistributionError, match=r"^probe sample 2 sums to 1\.000000002\d*, expected 1$"):
                probe.distributions_at(np.arange(4.0))
        else:
            assert probe.distributions_at(np.arange(4.0))[2, 0] == 0.5 + excess

    def test_wrong_length_sample(self):
        # a block of one outcome per time from a probe declaring two
        probe = TrajectoryProbe(lambda times: np.ones((len(times), 1)), 2)
        cfg = TimeAverageConfig(horizon=1.0, samples=4)
        with pytest.raises(DimensionError, match=r"shape \(4, 1\)"):
            time_average_distribution(probe, cfg)
        with pytest.raises(DimensionError):
            probe.distributions_at([0.5])


class TestProbeMemo:
    @staticmethod
    def counting_probe():
        calls = []

        def many(times):
            calls.append(np.array(times))
            return cosine_probe().sample_many(times)

        return TrajectoryProbe(many, 2), calls

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

    @pytest.mark.parametrize("builder", ["quantum", "classical", "ensemble", "synthetic"])
    def test_sample_is_a_block_row_and_keeps_the_memo(self, builder):
        # a one-time block is the row of any block holding that time, and
        # it is then the memoised block
        probe = builder_probes()[builder]
        block = probe.distributions_at(np.append(np.arange(8.0), 11.0))
        single = probe.distributions_at([11.0])
        assert np.array_equal(single[0], block[-1])
        assert probe.distributions_at([11.0]) is single

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

        probe = TrajectoryProbe(many, 2)
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


EPSILON_CALLERS = {
    "check_sufficiency": lambda eps: check_sufficiency(OutcomeDistribution([1.0]), eps),
    "EquilibrationReport": lambda eps: EquilibrationReport(
        0.0, 0.0, OutcomeDistribution([1.0]), eps, "equilibrates"),
    "equilibration_report": lambda eps: equilibration_report(
        constant_probe([1.0]), eps, TimeAverageConfig(horizon=1.0, samples=4)),
    "check_necessity": lambda eps: classical.check_necessity(OutcomeDistribution([1.0]), eps),
    "max_outcomes_for_equilibration": lambda eps: quantum.max_outcomes_for_equilibration(
        eps, 2.0, 1),
}


@pytest.mark.parametrize("caller", EPSILON_CALLERS)
def test_one_epsilon_domain(caller):
    for eps in (-0.1, 1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match=r"epsilon must lie in \[0, 1\)"):
            EPSILON_CALLERS[caller](eps)
    for eps in (0.0, 0.5, math.nextafter(1.0, 0.0)):
        EPSILON_CALLERS[caller](eps)


class TestMultiMeasurement:
    def test_average_max_bounded_by_sum(self):
        cfg = TimeAverageConfig(horizon=200.0, samples=512, seed=17)
        probes = [synthetic_probe(3, s) for s in (1, 2, 3)]
        omegas = [time_average_distribution(p, cfg) for p in probes]
        est = average_multi_distinguishability(probes, omegas, cfg)
        total = sum(
            average_distinguishability(p, w, cfg).mean for p, w in zip(probes, omegas)
        )
        assert est.mean <= total + 1e-12

    def test_average_max_is_the_mean_of_the_pointwise_max(self):
        cfg = TimeAverageConfig(horizon=200.0, samples=512, seed=17)
        probes = [synthetic_probe(3, s) for s in (1, 2)] + [synthetic_probe(5, 3)]
        omegas = [time_average_distribution(p, cfg) for p in probes]
        est = average_multi_distinguishability(probes, omegas, cfg)
        times = sample_times(cfg)
        series = np.max([
            0.5 * np.abs(p.sample_many(times) - w.probs).sum(axis=1)
            for p, w in zip(probes, omegas)
        ], axis=0)
        assert est.mean.hex() == float(series.mean()).hex()
        assert est.standard_error.hex() == float(series.std(ddof=1) / math.sqrt(512)).hex()

    def test_average_max_dimension_mismatch(self):
        cfg = TimeAverageConfig(horizon=10.0, samples=8)
        probes = [synthetic_probe(3, 1), synthetic_probe(2, 2)]
        omegas = [time_average_distribution(probes[0], cfg), OutcomeDistribution([1.0])]
        with pytest.raises(DimensionError, match="omega has 1 outcomes, probe has 2"):
            average_multi_distinguishability(probes, omegas, cfg)
        with pytest.raises(DimensionError):
            average_multi_distinguishability(probes, omegas[:1], cfg)


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
        # the verdict must be decide_verdict's; "inconclusive" used to pass here
        for verdict in ("inconclusive", "does-not-equilibrate", "bogus"):
            with pytest.raises(DomainError, match=rf"^verdict '{verdict}' disagrees with the "
                                                  r"estimate's 'equilibrates'$"):
                EquilibrationReport(0.1, 0.01, omega, 0.5, verdict)

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
        seen = []
        padded = equilibration_report(
            probe, 0.25, cfg, quadrature_error_of=lambda omega: seen.append(omega) or 0.01
        )
        assert padded.standard_error == pytest.approx(
            plain.standard_error + 0.01, abs=1e-15
        )
        # the floor is a function of the report's own equilibrium distribution
        assert seen == [padded.equilibrium_distribution]

    @pytest.mark.parametrize("stderr", [math.nan, math.inf])
    def test_report_rejects_a_non_finite_standard_error(self, stderr):
        omega = OutcomeDistribution([0.5, 0.5])
        with pytest.raises(DomainError, match="standard error must be finite"):
            EquilibrationReport(0.1, stderr, omega, 0.2, "inconclusive")

    @pytest.mark.parametrize("floor", [math.nan, math.inf, -0.01])
    def test_report_rejects_a_bad_quadrature_floor(self, floor):
        cfg = TimeAverageConfig(horizon=4.0, samples=16, seed=2)
        with pytest.raises(DomainError, match="quadrature error must be finite and nonnegative"):
            equilibration_report(constant_probe([0.3, 0.7]), 0.25, cfg,
                                 quadrature_error_of=lambda omega: floor)

    @pytest.mark.parametrize("builder", ["quantum", "classical", "ensemble", "synthetic"])
    def test_report_has_the_bits_of_the_public_reads(self, builder):
        def floor_of(omega):
            if builder != "ensemble":
                return 0.0
            return classical.ensemble_noise_floor(builder_ensemble(), omega)

        cfg = TimeAverageConfig(horizon=300.0, samples=500, seed=8)
        report = equilibration_report(builder_probes()[builder], 0.3, cfg,
                                      quadrature_error_of=floor_of)
        probe = builder_probes()[builder]  # a fresh probe, with no block kept
        omega = time_average_distribution(probe, cfg)
        est = average_distinguishability(probe, omega, cfg)
        assert report.equilibrium_distribution.probs.tobytes() == omega.probs.tobytes()
        assert report.mean_distinguishability.hex() == est.mean.hex()
        floor = floor_of(omega)
        assert report.standard_error.hex() == (est.standard_error + floor).hex()
        assert builder != "ensemble" or floor > 0.0


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
        assert probe.distributions_at([t])[0] == pytest.approx(
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
        assert np.array_equal(
            probe.distributions_at([0.0])[0], probe.sample_many(np.array([0.0]))[0]
        )

    def test_isinstance_estimate(self):
        probe = synthetic_probe(2, seed=0)
        cfg = TimeAverageConfig(horizon=10.0, samples=32, seed=0)
        omega = time_average_distribution(probe, cfg)
        assert isinstance(average_distinguishability(probe, omega, cfg), AverageEstimate)
