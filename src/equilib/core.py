"""Theory-independent equilibration machinery.

Everything in this module works purely with measurement-outcome
distributions: how distinguishable two distributions are, how a
time-parametrized family of distributions averages out, and whether a
trajectory equilibrates towards its average. No classical or quantum
structure is assumed; those live in :mod:`equilib.classical` and
:mod:`equilib.quantum` and feed probes into the estimators here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

ENTRY_TOL = 1e-12  # per-entry tolerance on the [0, 1] range
NORM_TOL = 1e-9    # tolerance on the normalization of a distribution

# Absolute slack used when comparing a probability against an analytic
# threshold like 1 - eps/2, so that exact boundary cases are not decided
# by a 1-ulp rounding of the threshold.
THRESHOLD_SLACK = 1e-12

# Largest sample count of one time average: every count is an array length,
# so a larger one would fail with a MemoryError at run time, not at load.
MAX_SAMPLES = 1_000_000

VERDICT_EQUILIBRATES = "equilibrates"
VERDICT_DOES_NOT = "does-not-equilibrate"
VERDICT_INCONCLUSIVE = "inconclusive"

SCHEME_UNIFORM = "uniform-grid"
SCHEME_STRATIFIED = "stratified-random"


class DimensionError(ValueError):
    """Two objects that must share a dimension do not."""


class DomainError(ValueError):
    """A scalar argument lies outside its mathematical domain."""


class DistributionError(ValueError):
    """Data that should form a probability distribution does not."""


class ConfigError(ValueError):
    """A scenario configuration is inconsistent; message carries the field path."""


def check_epsilon(epsilon: float) -> None:
    """Raise DomainError unless the tolerance ``epsilon`` lies in [0, 1)."""
    if not 0.0 <= epsilon < 1.0:
        raise DomainError(f"epsilon must lie in [0, 1), got {epsilon!r}")


# per target dtype: the entry types it reads, and the dtype kinds of the
# arrays it takes as they are
_ENTRY_RULES = {float: ((int, float, np.integer, np.floating), "iuf"),
                complex: ((int, float, complex, np.number), "iufc"),
                bool: ((bool, np.bool_), "b")}


def typed_array(values, name: str, dtype: type = float) -> np.ndarray:
    """``values`` as an array of ``dtype`` (float, complex or bool), else a
    DomainError naming ``name``: the one reader of every outside number, in
    scenario fields, record files and Python calls alike. Any int or float
    is a number, one past int64 too, read as the nearest double; one past
    the double range fails. A string, None, a boolean among numbers or a
    number among booleans fails, though numpy would convert it, and float
    and complex entries must be finite. An array already of ``dtype`` comes
    back as it is, without a copy."""
    types, kinds = _ENTRY_RULES[dtype]
    what = "booleans" if dtype is bool else "numbers"
    if not isinstance(values, np.ndarray) or values.dtype == object:
        # one test per entry type: numpy would promote a boolean among
        # numbers and keep an integer past int64 as an object
        values = np.asarray(values, dtype=object)
        for t in set(map(type, values.flat)):
            if not issubclass(t, types) or (dtype is not bool and issubclass(t, bool)):
                bad = next(v for v in values.flat if type(v) is t)
                raise DomainError(f"{name} must be {what}, got {bad!r}")
    elif values.dtype.kind not in kinds:
        raise DomainError(f"{name} must be {what}, got {values.dtype} entries")
    try:
        arr = values.astype(dtype, copy=False)
    except OverflowError:
        raise DomainError(f"{name} has an integer beyond the double range") from None
    if dtype is not bool and not np.isfinite(arr).all():
        raise DomainError(f"{name} has non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probability vector over the outcomes of one measurement.

    Entries must lie in [0, 1] within ``ENTRY_TOL`` and sum to 1 within
    ``NORM_TOL``. The stored array is read-only.
    """

    probs: np.ndarray

    def __init__(self, probs: Sequence[float] | np.ndarray):
        arr = np.asarray(probs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise DistributionError("a distribution must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise DistributionError("distribution entries must be finite")
        if arr.min() < -ENTRY_TOL or arr.max() > 1.0 + ENTRY_TOL:
            raise DistributionError(
                f"entries outside [0, 1]: min={arr.min():.3e}, max={arr.max():.3e}"
            )
        total = float(arr.sum())
        if abs(total - 1.0) > NORM_TOL:
            raise DistributionError(f"entries sum to {total!r}, expected 1 within {NORM_TOL}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __len__(self) -> int:
        return self.probs.size

    def __getitem__(self, j: int) -> float:
        return float(self.probs[j])

    def __eq__(self, other) -> bool:
        if not isinstance(other, OutcomeDistribution):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)

    def __hash__(self):
        # + 0.0 maps -0.0 to 0.0, as == does
        return hash((self.probs + 0.0).tobytes())

    def allclose(self, other: "OutcomeDistribution", atol: float = 1e-9) -> bool:
        return len(self) == len(other) and bool(
            np.allclose(self.probs, other.probs, rtol=0.0, atol=atol)
        )

    @property
    def max_probability(self) -> float:
        return float(self.probs.max())



@dataclass(frozen=True)
class TrajectoryProbe:
    """A state, evolution and measurement bundled as ``times -> distributions``.

    ``sample_many`` maps a 1-d array of M times t >= 0 to an
    ``(M, outcome_count)`` array whose row k is the outcome distribution at
    ``times[k]``; at t = 0 it reproduces the initial state's outcome
    statistics. It must be a pure function of the times. ``distributions_at``
    is the one way to read it: it validates the block, keeps the last one,
    read-only, and returns it again for exactly the same times.
    """

    sample_many: Callable[[np.ndarray], np.ndarray]
    outcome_count: int
    _last: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.outcome_count < 1:
            raise DomainError("a probe needs at least one outcome")

    def distributions_at(self, times: np.ndarray) -> np.ndarray:
        """Stack probe samples at the given times into a read-only (M, N) array."""
        times = np.asarray(times, dtype=float)
        last = self._last[:]  # one read, so times and block always belong together
        if last and np.array_equal(last[0], times):
            return last[1]
        if times.size == 0:
            raise DimensionError("a sample block needs at least one time")
        block = np.array(self.sample_many(times), dtype=float)
        if block.shape != (times.size, self.outcome_count):
            raise DimensionError(
                f"sample_many returned shape {block.shape}, "
                f"expected {(times.size, self.outcome_count)}"
            )
        if not np.all(np.isfinite(block)):
            raise DistributionError("probe produced non-finite probabilities")
        if block.min() < -ENTRY_TOL or block.max() > 1.0 + ENTRY_TOL:
            raise DistributionError("probe produced probabilities outside [0, 1]")
        # a matrix-vector product: numpy's reduction over a short last axis
        # costs about 20 ns a row, some ten times as much
        sums = block @ np.ones(self.outcome_count)
        bad = np.abs(sums - 1.0) > NORM_TOL
        if bad.any():
            k = int(np.argmax(bad))
            raise DistributionError(f"probe sample {k} sums to {float(sums[k])!r}, expected 1")
        block.setflags(write=False)
        self._last[:] = [times.copy(), block]
        return block


@dataclass(frozen=True)
class TimeAverageConfig:
    """Finite-horizon approximation of the infinite time average.

    ``scheme`` is either ``"uniform-grid"`` (left endpoints of ``samples``
    equal sub-intervals of [0, horizon), reproducible against closed forms)
    or ``"stratified-random"`` (one uniform draw per sub-interval, immune to
    aliasing with periodic trajectories). All randomness comes from ``seed``.
    """

    horizon: float
    samples: int
    scheme: str = SCHEME_STRATIFIED
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise DomainError(f"horizon must be finite and positive, got {self.horizon!r}")
        if self.samples < 2:
            raise DomainError(f"need at least 2 samples, got {self.samples}")
        if self.samples > MAX_SAMPLES:
            raise DomainError(f"need at most {MAX_SAMPLES} samples, got {self.samples}")
        if self.scheme not in (SCHEME_UNIFORM, SCHEME_STRATIFIED):
            raise DomainError(f"unknown sampling scheme {self.scheme!r}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


def sample_times(cfg: TimeAverageConfig) -> np.ndarray:
    """Deterministic sampling times for ``cfg`` (ascending)."""
    step = cfg.horizon / cfg.samples
    if cfg.scheme == SCHEME_UNIFORM:
        return np.arange(cfg.samples) * step
    rng = np.random.default_rng(cfg.seed)
    return (np.arange(cfg.samples) + rng.random(cfg.samples)) * step


class AverageEstimate(NamedTuple):
    mean: float
    standard_error: float


def distinguishability(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """Half the L1 distance between two outcome distributions.

    This is the operational advantage a single measurement gives for telling
    the underlying states apart: 0 for identical statistics, 1 for disjoint
    support.
    """
    if len(p) != len(q):
        raise DimensionError(f"distribution lengths differ: {len(p)} vs {len(q)}")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def check_sufficiency(omega: OutcomeDistribution, epsilon: float) -> bool:
    """Universal sufficient condition for epsilon-equilibration.

    If the equilibrium distribution puts weight at least ``1 - epsilon/2``
    on a single outcome, every trajectory with this equilibrium distribution
    epsilon-equilibrates, in any theory. A False return says nothing either
    way.
    """
    check_epsilon(epsilon)
    return omega.max_probability >= 1.0 - epsilon / 2.0 - THRESHOLD_SLACK


def time_average_distribution(
    probe: TrajectoryProbe, cfg: TimeAverageConfig
) -> OutcomeDistribution:
    """Empirical time average of a probe's outcome distribution: the ω of
    ``equilibration_report``, read without the distances."""
    return _in_sample_omega(probe.distributions_at(sample_times(cfg)))


def average_distinguishability(
    probe: TrajectoryProbe, omega: OutcomeDistribution, cfg: TimeAverageConfig
) -> AverageEstimate:
    """Estimate the time-averaged distinguishability from ``omega``.

    The standard error is the sample standard deviation of the
    distinguishability time series divided by sqrt(samples). For strongly
    correlated trajectories this is a heuristic, not an exact error bar;
    stratified sampling keeps it conservative in practice.
    """
    _, mean, errors = _estimate(probe.distributions_at(sample_times(cfg)), omega)
    return AverageEstimate(mean, sum(errors.values()))


def average_multi_distinguishability(
    probes: Sequence[TrajectoryProbe],
    omegas: Sequence[OutcomeDistribution],
    cfg: TimeAverageConfig,
) -> AverageEstimate:
    """Time average of the max-distinguishability over several measurements.

    All probes are sampled at the same times; at each time the largest
    per-measurement distinguishability is taken before averaging.
    """
    if len(probes) == 0 or len(probes) != len(omegas):
        raise DimensionError("need equally many probes and equilibrium distributions")
    times = sample_times(cfg)
    series = np.max(
        [_distances(p.distributions_at(times), w) for p, w in zip(probes, omegas)], axis=0
    )
    mean, errors = _series_reduction(series)
    return AverageEstimate(mean, sum(errors.values()))


def _estimate(
    block: np.ndarray, omega: OutcomeDistribution | None = None
) -> tuple[OutcomeDistribution, float, dict[str, float]]:
    """The one reduction of an ``(M, N)`` sample block: ω (by default the
    block's in-sample mean), the mean distinguishability from it and the
    standard error by named component; the components sum, in their order,
    to the standard error."""
    if omega is None:
        omega = _in_sample_omega(block)
    return (omega, *_series_reduction(_distances(block, omega)))


def _in_sample_omega(block: np.ndarray) -> OutcomeDistribution:
    """The per-outcome mean over the sampled times, renormalized to sum
    exactly to 1 (each entry is already a mean of probabilities, so the
    shift is at the level of accumulated rounding)."""
    mean = block.mean(axis=0)
    return OutcomeDistribution(mean / mean.sum())


def _distances(block: np.ndarray, omega: OutcomeDistribution) -> np.ndarray:
    """The distinguishability of each row of ``block`` from ``omega``."""
    if len(omega) != block.shape[1]:
        raise DimensionError(f"omega has {len(omega)} outcomes, probe has {block.shape[1]}")
    return 0.5 * np.abs(block - omega.probs).sum(axis=1)


def _series_reduction(series: np.ndarray) -> tuple[float, dict[str, float]]:
    """The mean of a distinguishability series and its named error components."""
    mean = float(series.mean())
    return mean, {"time": float(series.std(ddof=1) / math.sqrt(series.size))}


def decide_verdict(mean: float, standard_error: float, epsilon: float) -> str:
    """Three-valued equilibration verdict.

    A finite-horizon estimate near epsilon cannot decide the asymptotic
    statement, hence the "inconclusive" band of width 2 standard errors on
    each side.
    """
    if mean + 2.0 * standard_error <= epsilon:
        return VERDICT_EQUILIBRATES
    if mean - 2.0 * standard_error > epsilon:
        return VERDICT_DOES_NOT
    return VERDICT_INCONCLUSIVE


@dataclass(frozen=True)
class EquilibrationReport:
    """Outcome of one equilibration measurement.

    ``standard_error`` is the total estimator uncertainty, finite: the
    time-sampling error plus, for quadrature-discretized ensembles, their
    resolution floor.
    ``bound_values`` maps bound names to analytic values that applied to the
    run.
    """

    mean_distinguishability: float
    standard_error: float
    equilibrium_distribution: OutcomeDistribution
    epsilon: float
    verdict: str
    bound_values: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.mean_distinguishability <= 1.0:
            raise DomainError("mean distinguishability must lie in [0, 1]")
        if not 0.0 <= self.standard_error < math.inf:
            raise DomainError(
                f"standard error must be finite and nonnegative, got {self.standard_error!r}"
            )
        check_epsilon(self.epsilon)
        verdict = decide_verdict(self.mean_distinguishability, self.standard_error, self.epsilon)
        if self.verdict != verdict:
            raise DomainError(f"verdict {self.verdict!r} disagrees with the estimate's {verdict!r}")


def equilibration_report(
    probe: TrajectoryProbe,
    epsilon: float,
    cfg: TimeAverageConfig,
    bound_values: dict[str, float] | None = None,
    quadrature_error_of: Callable[[OutcomeDistribution], float] | None = None,
) -> EquilibrationReport:
    """Measure a probe against the epsilon-equilibration definition.

    Draws the times of ``cfg`` once, reads one sample block and reduces it
    in one pass: the in-sample mean is the empirical equilibrium
    distribution ω, and the distinguishability from it is averaged over the
    same times. ``quadrature_error_of`` maps that ω to the resolution floor
    of a probe that is itself a finite quadrature of a continuous state (see
    ``classical.ensemble_noise_floor``); the floor is added to the
    time-sampling standard error.
    """
    check_epsilon(epsilon)
    omega, mean, errors = _estimate(probe.distributions_at(sample_times(cfg)))
    if quadrature_error_of is not None:
        floor = quadrature_error_of(omega)
        if not 0.0 <= floor < math.inf:
            raise DomainError(f"quadrature error must be finite and nonnegative, got {floor!r}")
        errors["quadrature"] = floor
    stderr = sum(errors.values())
    return EquilibrationReport(
        mean_distinguishability=mean,
        standard_error=stderr,
        equilibrium_distribution=omega,
        epsilon=epsilon,
        verdict=decide_verdict(mean, stderr, epsilon),
        bound_values=dict(bound_values or {}),
    )


def synthetic_probe(
    outcomes: int,
    seed: int,
    dominant_weight: float | None = None,
    mode_count: int = 3,
    amplitude: float = 0.6,
) -> TrajectoryProbe:
    """Random quasi-periodic probe with no physics behind it.

    Each outcome weight oscillates as a random superposition of
    ``mode_count`` incommensurate cosines around a random base distribution;
    the result is renormalized per time. ``dominant_weight`` pins the base
    weight of outcome 0, which makes it easy to construct probes whose
    empirical equilibrium distribution is highly uneven.
    """
    if outcomes < 1:
        raise DomainError("need at least one outcome")
    if not 0.0 <= amplitude < 1.0:
        raise DomainError("amplitude must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    base = rng.dirichlet(np.ones(outcomes))
    if dominant_weight is not None:
        if not 0.0 < dominant_weight <= 1.0:
            raise DomainError("dominant weight must lie in (0, 1]")
        rest = base[1:] / base[1:].sum() if outcomes > 1 else np.array([])
        base = np.concatenate(([dominant_weight], (1.0 - dominant_weight) * rest))
    # amplitudes normalized so each factor stays in (1 - amplitude, 1 + amplitude)
    amps = rng.random((outcomes, mode_count))
    amps *= amplitude / np.maximum(amps.sum(axis=1, keepdims=True), 1e-300)
    freqs = rng.uniform(0.5, 3.0, mode_count)
    phases = rng.uniform(0.0, 2.0 * np.pi, (outcomes, mode_count))

    def _raw(times: np.ndarray) -> np.ndarray:
        angles = np.multiply.outer(times, freqs)  # (M, modes)
        factors = 1.0 + np.einsum("jm,tjm->tj", amps, np.cos(angles[:, None, :] + phases))
        weights = base * factors
        return weights / weights.sum(axis=1, keepdims=True)

    return TrajectoryProbe(sample_many=_raw, outcome_count=outcomes)
