"""Core distributions, distinguishability, time averages and verdicts."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from equilib import classical, core, quantum
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
        "classical": classical.classical_probe((0.2, 0.6), classical.cat_map(), grid),
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
        with pytest.raises(DomainError, match="non-finite"):
            OutcomeDistribution([float("nan"), 1.0])

    @pytest.mark.parametrize("probs, message", [
        (["0.5", "0.5"], "distribution entries must be numbers, got '0.5'"),
        ([True, False], "distribution entries must be numbers, got True"),
        (np.array([True, False]), "distribution entries must be numbers, got bool entries"),
    ], ids=["strings", "booleans", "boolean-array"])
    def test_entries_are_read_as_numbers(self, probs, message):
        # numpy casts each of these to [0.5, 0.5] or [1.0, 0.0]
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            OutcomeDistribution(probs)

    def test_keeps_a_copy_of_an_array(self):
        given = np.array([0.25, 0.75])
        d = OutcomeDistribution(given)
        assert not np.shares_memory(d.probs, given) and given.flags.writeable

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

    @pytest.mark.parametrize("field, value", [
        ("samples", 2.5), ("samples", 3.0), ("samples", True),
        ("seed", 1.5), ("seed", 2.0), ("seed", True), ("seed", np.float64(1.0)),
    ])
    def test_rejects_a_non_integer_count_or_seed(self, field, value):
        # a float count of 2.5 sampled [0, 0.4, 0.8] on a uniform grid over
        # [0, 1), and a seed of True ran as seed 1
        fields = {"horizon": 1.0, "samples": 10, "scheme": "uniform-grid", field: value}
        with pytest.raises(DomainError, match=f"^{field} must be an integer, got "):
            TimeAverageConfig(**fields)

    @pytest.mark.parametrize("horizon", [True, False, np.True_], ids=repr)
    def test_rejects_a_boolean_horizon(self, horizon):
        # True sampled [0, 0.25, 0.5, 0.75] as a horizon of 1
        message = f"horizon must be finite and positive, got {horizon!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            TimeAverageConfig(horizon, 4, "uniform-grid")

    @pytest.mark.parametrize("horizon", ["5", None, [5.0], 10**400],
                             ids=["string", "none", "list", "past-the-doubles"])
    def test_rejects_a_horizon_that_is_no_number(self, horizon):
        # each escaped math.isfinite as a TypeError, or an OverflowError
        message = f"horizon must be finite and positive, got {horizon!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            TimeAverageConfig(horizon, 4, "uniform-grid")

    def test_accepts_numpy_integers(self):
        cfg = TimeAverageConfig(1.0, np.int64(4), "uniform-grid", seed=np.uint32(2))
        assert np.array_equal(sample_times(cfg), [0.0, 0.25, 0.5, 0.75])

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


class TestProbeOutcomeCount:
    @pytest.mark.parametrize("count", [2.0, True, "2", None, 0, -1, np.float64(2.0)],
                             ids=["float", "bool", "string", "none", "zero", "negative",
                                  "numpy-float"])
    def test_is_a_positive_integer(self, count):
        # checked when the probe is built, not at its first read
        message = f"outcome_count must be a positive integer, got {count!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            TrajectoryProbe(lambda ts: np.full((len(ts), 2), 0.5), count)

    def test_a_numpy_integer_is_a_count(self):
        probe = TrajectoryProbe(lambda ts: np.full((len(ts), 2), 0.5), np.int64(2))
        assert probe.distributions_at([0.0, 1.0]).shape == (2, 2)


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

    @pytest.mark.parametrize("times, message", [
        (["0.5", "1.5"], "times must be numbers, got '0.5'"),
        ([True, False], "times must be numbers, got True"),
        ([0.5, math.nan], "times has non-finite entries"),
    ], ids=["strings", "booleans", "nan"])
    def test_times_are_read_as_numbers(self, times, message):
        # the strings and booleans were cast to times and sampled
        calls = []
        probe = TrajectoryProbe(lambda ts: calls.append(ts) or np.ones((len(ts), 1)), 1)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            probe.distributions_at(times)
        assert calls == []

    @pytest.mark.parametrize("returned, message", [
        ([["0.5", "0.5"]] * 4, "a probe block must be numbers, got '0.5'"),
        ([[True, False]] * 4, "a probe block must be numbers, got True"),
        (np.full((4, 2), "0.5"), "a probe block must be numbers, got <U3 entries"),
        (np.eye(2, dtype=bool)[[0, 1, 0, 1]], "a probe block must be numbers, got bool entries"),
        (np.full((4, 2), math.nan), "a probe block has non-finite entries"),
    ], ids=["strings", "booleans", "string-array", "boolean-array", "nan"])
    def test_a_block_is_read_as_numbers(self, returned, message):
        probe = TrajectoryProbe(lambda ts: returned, 2)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            probe.distributions_at(np.arange(4.0))

    def test_an_integer_block_is_read(self):
        probe = TrajectoryProbe(lambda ts: np.eye(2, dtype=np.int64)[[0, 1, 0]], 2)
        block = probe.distributions_at(np.arange(3.0))
        assert block.dtype == np.float64 and block.tolist() == [[1, 0], [0, 1], [1, 0]]


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

    @pytest.mark.parametrize("spectrum", ["generic", "equally-spaced"],
                             ids=["bilinear-block", "polynomial-block"])
    def test_quantum_rows_agree_across_blocks_within_ulps(self, spectrum):
        # a block's shape picks the BLAS kernel, so a one-time block may
        # round its row unlike a 300-time block does, by about 1 ulp of 1
        for seed in range(5):
            probe = quantum.quantum_probe(
                quantum.random_pure_state(16, seed + 1),
                quantum.random_spectrum(16, seed, spectrum),
                quantum.random_povm(16, 4, seed + 2),
            )
            times = sample_times(TimeAverageConfig(horizon=300.0, samples=300, seed=seed))
            block = probe.distributions_at(times)
            rows = np.array([probe.distributions_at([t])[0] for t in times])
            np.testing.assert_allclose(rows, block, rtol=0, atol=2.3e-16)

    @pytest.mark.parametrize("returned", ["view", "list", "float32", "read-only"])
    def test_a_block_the_probe_may_keep_is_copied(self, returned):
        buffer = np.full((8, 2), 0.5)
        kept = {"view": buffer[:4], "list": buffer[:4].tolist(),
                "float32": buffer[:4].astype(np.float32), "read-only": buffer[:4].copy()}[returned]
        if returned == "read-only":
            kept.setflags(write=False)
        probe = TrajectoryProbe(lambda ts: kept, 2)
        block = probe.distributions_at(np.arange(4.0))
        assert block is not kept and not np.shares_memory(block, buffer)
        assert buffer.flags.writeable and not block.flags.writeable
        buffer[:] = 0.25  # the probe's own buffer is still its to reuse
        assert np.all(block == 0.5)

    def test_a_subclass_block_is_read_as_a_plain_copy(self):
        class Kept(np.ndarray):
            pass

        kept = Kept((4, 2))
        kept[:] = 0.5
        block = TrajectoryProbe(lambda ts: kept, 2).distributions_at(np.arange(4.0))
        assert type(block) is np.ndarray and not np.shares_memory(block, kept)
        assert kept.flags.writeable and not block.flags.writeable

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
            dataclasses.replace(probe, floor=lambda omega: seen.append(omega) or 0.01), 0.25, cfg
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
            equilibration_report(
                dataclasses.replace(constant_probe([0.3, 0.7]), floor=lambda omega: floor),
                0.25, cfg,
            )

    @pytest.mark.parametrize("builder", ["quantum", "classical", "ensemble", "synthetic"])
    def test_report_has_the_bits_of_the_public_reads(self, builder):
        # only the ensemble builder sets a floor, and the public reads
        # leave it out: their standard error is the time-sampling one
        def floor_of(omega):
            if builder != "ensemble":
                return 0.0
            return classical.ensemble_noise_floor(builder_ensemble(), omega)

        cfg = TimeAverageConfig(horizon=300.0, samples=500, seed=8)
        report = equilibration_report(builder_probes()[builder], 0.3, cfg)
        probe = builder_probes()[builder]  # a fresh probe, with no block kept
        assert (probe.floor is None) == (builder != "ensemble")
        omega = time_average_distribution(probe, cfg)
        est = average_distinguishability(probe, omega, cfg)
        assert report.equilibrium_distribution.probs.tobytes() == omega.probs.tobytes()
        assert report.mean_distinguishability.hex() == est.mean.hex()
        floor = floor_of(omega)
        assert report.standard_error.hex() == (est.standard_error + floor).hex()
        assert sum(report.errors.values()).hex() == report.standard_error.hex()
        assert builder != "ensemble" or floor > 0.0

    def test_an_ensemble_probe_reports_its_own_floor(self):
        cfg = TimeAverageConfig(horizon=300.0, samples=500, seed=8)
        report = equilibration_report(builder_probes()["ensemble"], 0.3, cfg)
        floor = classical.ensemble_noise_floor(builder_ensemble(), report.equilibrium_distribution)
        assert list(report.errors) == ["time", "quadrature"]
        assert report.errors["quadrature"] == floor > 0.0
        # the named errors are kept out of equality and out of the repr
        assert dataclasses.replace(report, errors={}) == report
        assert "errors" not in repr(report)


class TestArgumentNames:
    # a DomainError of a range rule carries the argument's name, which a
    # scenario reader turns into the field path
    @pytest.mark.parametrize("build, name", [
        (lambda: core.check_epsilon(1.0), "epsilon"),
        (lambda: TimeAverageConfig(horizon=0.0, samples=10), "horizon"),
        (lambda: TimeAverageConfig(horizon=1.0, samples=1), "samples"),
        (lambda: TimeAverageConfig(horizon=1.0, samples=MAX_SAMPLES + 1), "samples"),
        (lambda: TimeAverageConfig(horizon=1.0, samples=2.5), "samples"),
        (lambda: TimeAverageConfig(horizon=1.0, samples=10, seed=-1), "seed"),
        (lambda: TimeAverageConfig(horizon=1.0, samples=10, scheme="sobol"), "scheme"),
        (lambda: synthetic_probe(0, seed=1), "outcomes"),
        # used to fail as numpy's "negative dimensions are not allowed"
        (lambda: synthetic_probe(3, seed=1, mode_count=-1), "mode_count"),
        (lambda: synthetic_probe(3, seed=1, amplitude=1.0), "amplitude"),
        (lambda: synthetic_probe(3, seed=1, dominant_weight=0.0), "dominant_weight"),
        (lambda: classical.contaminated_cat_ensemble(0, 0.1, 1), "count"),
        (lambda: classical.contaminated_cat_ensemble(10, 1.5, 1), "delta"),
        (lambda: classical.contaminated_cat_ensemble(10, 0.1, 1, lattice=3), "lattice"),
    ], ids=["epsilon", "horizon", "samples-1", "samples-past-cap", "samples-float", "seed",
            "scheme", "synthetic-outcomes", "mode_count", "amplitude", "dominant_weight",
            "count", "delta", "lattice"])
    def test_a_domain_error_names_its_argument(self, build, name):
        with pytest.raises(DomainError) as info:
            build()
        assert info.value.name == name

    def test_an_unnamed_domain_error_has_no_name(self):
        assert DomainError("x").name is None
        assert DomainError("x", name="leak").args == ("x",)


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


def unchunked_synthetic(outcomes, seed, mode_count, times, amplitude=0.6):
    """The synthetic block as one (M, N, modes) expression, the formula the
    chunked block replaced, kept as its oracle: the same draws, then every
    time's cosines at once."""
    rng = np.random.default_rng(seed)
    base = rng.dirichlet(np.ones(outcomes))
    amps = rng.random((outcomes, mode_count))
    amps *= amplitude / np.maximum(amps.sum(axis=1, keepdims=True), 1e-300)
    freqs = rng.uniform(0.5, 3.0, mode_count)
    phases = rng.uniform(0.0, 2.0 * np.pi, (outcomes, mode_count))
    angles = np.multiply.outer(times, freqs)
    factors = 1.0 + np.einsum("jm,tjm->tj", amps, np.cos(angles[:, None, :] + phases))
    weights = base * factors
    return weights / weights.sum(axis=1, keepdims=True)


def block_probe(kind):
    """A probe of 4 outcomes that samples through the named block."""
    d, n_out = 16, 4
    rho, povm = quantum.random_mixed_state(d, 1), quantum.random_povm(d, n_out, 3)
    grid = classical.grid_partition([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])
    if kind == "bilinear":
        return quantum.quantum_probe(rho, quantum.random_spectrum(d, 2), povm)
    if kind == "polynomial":
        spectrum = quantum.random_spectrum(d, 2, kind="equally-spaced", spacing=0.3)
        return quantum.quantum_probe(rho, spectrum, povm)
    if kind == "synthetic":
        return synthetic_probe(n_out, seed=4, mode_count=16)
    if kind == "cloud":
        ens = classical.contaminated_cat_ensemble(50, 0.1, seed=4)
        return classical.ensemble_probe(ens, classical.cat_map(), grid)
    return classical.classical_probe((0.2, 0.6), classical.cat_map(), grid)


def traced_peak(run) -> int:
    """Peak bytes that ``run()`` allocates, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkedBlocks:
    """Every sample block works through its times in chunks of at most
    ``core._CHUNK_ENTRIES`` entries a temporary: its memory beside its rows
    does not grow with the sample count, and its bits do not depend on
    where the chunks end."""

    # per time beside the output rows: nothing for the chunked blocks, and
    # for the orbit blocks the time order of the requests and their steps,
    # 2.0 words a time measured for the cloud and the point. Both counts
    # are past one block, so the blocks are full at both.
    @pytest.mark.parametrize("kind, words", [
        ("bilinear", 0), ("polynomial", 0), ("synthetic", 0), ("cloud", 2), ("point", 2),
    ])
    def test_no_block_memory_grows_with_the_sample_count(self, small_chunk, kind, words):
        probe = block_probe(kind)
        beside = []
        for m in (1_250, 12_500):
            times = np.sort(np.random.default_rng(m).uniform(0.0, m, m))
            probe.sample_many(times)  # once untraced, so no first-call cost is counted
            rows = 8 * m * (probe.outcome_count + words)
            beside.append(traced_peak(lambda: probe.sample_many(times)) - rows)
        assert beside[1] - beside[0] < 16 * core._CHUNK_ENTRIES

    def test_requests_in_any_order_hold_the_same(self, small_chunk):
        # the rows of each block go straight to the places of its requests,
        # so descending and shuffled times hold no second (M, N) array
        grid = classical.grid_partition([np.linspace(0.0, 1.0, 5)] * 2)
        ens = classical.contaminated_cat_ensemble(50, 0.1, seed=4)
        probe = classical.ensemble_probe(ens, classical.cat_map(), grid)
        ascending = np.arange(1_875.0)
        peaks = []
        for times in (ascending, ascending[::-1], np.random.default_rng(1).permutation(ascending)):
            probe.sample_many(times)
            peaks.append(traced_peak(lambda: probe.sample_many(times)))
        assert max(abs(peak - peaks[0]) for peak in peaks) < 8 * core._CHUNK_ENTRIES

    def test_a_fresh_block_is_taken_over(self, small_chunk):
        # a copy of the block would hold one more (M, N) array, 16 words
        # a time beside the rows against 8 through sample_many
        grid = classical.grid_partition([np.linspace(0.0, 1.0, 5)] * 2)
        ens = classical.contaminated_cat_ensemble(50, 0.1, seed=4)
        probe = classical.ensemble_probe(ens, classical.cat_map(), grid)
        times = np.arange(1_875.0)
        probe.sample_many(times)
        direct = traced_peak(lambda: probe.sample_many(times))
        read = traced_peak(lambda: probe.distributions_at(times))
        assert read - direct < 2 * 8 * times.size

    def test_a_point_block_is_sized_with_its_histogram_rows(self):
        # a block step of one point holds two Python floats, its cell and
        # its bins, far more than its coordinates: sized by coordinates
        # alone, 20,000 steps on 16 cells held 33 words a time beside the rows
        grid = classical.grid_partition([np.linspace(0.0, 1.0, 5)] * 2)
        point = (0.2, 0.6)
        probe = classical.classical_probe(point, classical.cat_map(), grid)
        m = 20_000
        times = np.arange(float(m))
        probe.sample_many(times)
        rows = 8 * m * grid.cell_count
        assert traced_peak(lambda: probe.sample_many(times)) - rows < 16 * 8 * m

    @pytest.mark.parametrize("entries", [1, 200, 448, 1000])
    @pytest.mark.parametrize("kind", ["bilinear", "polynomial", "synthetic"])
    def test_a_block_is_the_same_in_any_chunks(self, monkeypatch, kind, entries):
        # 300 times fit in one chunk at the real size; a lowered size splits
        # them into chunks of 1 to 66 rows, most with a short last one
        times = np.random.default_rng(5).uniform(0.0, 500.0, 300)
        whole = block_probe(kind).sample_many(times)
        monkeypatch.setattr(core, "_CHUNK_ENTRIES", entries)
        chunked = block_probe(kind).sample_many(times)
        if kind == "synthetic":
            assert chunked.tobytes() == whole.tobytes()
        else:
            # every step but the GEMM is row by row; the GEMM's rounding
            # depends on its shape (a 1-row chunk takes a matrix-vector
            # kernel, a short one an edge kernel), an ulp of 1 here
            assert np.abs(chunked - whole).max() <= 2.0**-52

    @pytest.mark.parametrize("outcomes, mode_count, samples, entries", [
        (1, 0, 50, 65_536), (3, 3, 2000, 65_536), (5, 0, 700, 16), (4, 16, 900, 1),
        (8, 16, 5000, 1000), (64, 32, 100, 65_536),
    ])
    def test_synthetic_block_is_the_unchunked_formula(
        self, monkeypatch, outcomes, mode_count, samples, entries
    ):
        monkeypatch.setattr(core, "_CHUNK_ENTRIES", entries)
        times = np.random.default_rng(outcomes).uniform(0.0, 300.0, samples)
        block = synthetic_probe(outcomes, 9, mode_count=mode_count).sample_many(times)
        assert block.tobytes() == unchunked_synthetic(outcomes, 9, mode_count, times).tobytes()
