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

# Every sample block works through its times in chunks of at most this many
# entries a temporary, so its memory beside its (M, N) rows is fixed.
_CHUNK_ENTRIES = 65_536

VERDICT_EQUILIBRATES = "equilibrates"
VERDICT_DOES_NOT = "does-not-equilibrate"
VERDICT_INCONCLUSIVE = "inconclusive"

SCHEME_UNIFORM = "uniform-grid"
SCHEME_STRATIFIED = "stratified-random"


class DimensionError(ValueError):
    """Two objects that must share a dimension do not."""


class DomainError(ValueError):
    """A scalar argument lies outside its mathematical domain; ``name``, if
    given, is the argument's, as ``AttributeError.name`` is an attribute's."""

    def __init__(self, message: str = "", name: str | None = None):
        super().__init__(message)
        self.name = name


class DistributionError(ValueError):
    """Data that should form a probability distribution does not."""


class ConfigError(ValueError):
    """A scenario configuration is inconsistent; message carries the field path."""


def check_epsilon(epsilon: float) -> None:
    """Raise DomainError unless the tolerance ``epsilon`` lies in [0, 1)."""
    typed_scalar(epsilon, "epsilon", least=0.0, below=1.0)


# per target dtype: the entry types it reads, and the dtype kinds of the
# arrays it takes as they are
_ENTRY_RULES = {float: ((int, float, np.integer, np.floating), "iuf"),
                int: ((int, np.integer), "iu"),
                complex: ((int, float, complex, np.number), "iufc"),
                bool: ((bool, np.bool_), "b")}
# the bracket of each end of an interval in a refusal
_BRACKETS = {">=": "[", ">": "(", "<=": "]", "<": ")"}


def typed_scalar(value, name: str, dtype: type = float, least=None, most=None,
                 above=None, below=None):
    """``value`` as a Python ``dtype`` (float or int) in the interval that
    ``least`` and ``most`` (inclusive) and ``above`` and ``below``
    (exclusive) give, at most one end a side, else a DomainError whose
    ``name`` is ``name``: the one reader, and the one range rule, of every
    outside scalar, by ``typed_array``'s table and without an array. A
    string, None or a boolean fails; a float must be finite, and one past
    the double range fails. An int is an int or a numpy integer, never a
    float, so ``8.0`` is no count: JSON's integral floats are converted by
    ``bench``, which reads scenario and record files. Every refusal reads
    ``{name} must be {what}``, as in ``epsilon must be a finite number in
    [0.0, 1.0), got 2.0`` or ``dim must be an integer >= 1, got 0``."""
    if isinstance(value, _ENTRY_RULES[dtype][0]) and not isinstance(value, bool):
        try:
            number = dtype(value)
        except OverflowError:  # an int past the double range
            number = math.nan
        if ((dtype is int or math.isfinite(number))
                and (least is None or number >= least) and (above is None or number > above)
                and (most is None or number <= most) and (below is None or number < below)):
            return number
    what = "an integer" if dtype is int else "a finite number"
    ends = [(op, end) for op, end in ((">=", least), (">", above), ("<=", most), ("<", below))
            if end is not None]
    if len(ends) == 2:
        (low, lo), (high, hi) = ends
        what += f" in {_BRACKETS[low]}{lo}, {hi}{_BRACKETS[high]}"
    else:
        what += "".join(f" {op} {end}" for op, end in ends)
    raise DomainError(f"{name} must be {what}, got {value!r}", name=name)


def typed_array(values, name: str, dtype: type = float) -> np.ndarray:
    """``values`` as an array of ``dtype`` (float, int, complex or bool),
    else a DomainError naming ``name``: the one reader of every outside
    array, in scenario fields, record files and Python calls alike, whose
    table ``typed_scalar`` reads scalars by. Any int or float is a number,
    one past int64 too, read as the nearest double; one past the double
    range fails. A string, None, a boolean among numbers or a number among
    booleans fails, though numpy would convert it, and float and complex
    entries must be finite. An array already of ``dtype`` comes back as it
    is, without a copy."""
    types, kinds = _ENTRY_RULES[dtype]
    what = {bool: "booleans", int: "integers"}.get(dtype, "numbers")
    if not isinstance(values, np.ndarray) or values.dtype == object:
        # one test per entry type: numpy would promote a boolean among
        # numbers and keep an integer past int64 as an object
        values = np.asarray(values, dtype=object)
        for t in set(map(type, values.flat)):
            if not issubclass(t, types) or (dtype is not bool and issubclass(t, bool)):
                bad = next(v for v in values.flat if type(v) is t)
                raise DomainError(f"{name} must be {what}, got {bad!r}", name=name)
    elif values.dtype.kind not in kinds:
        raise DomainError(f"{name} must be {what}, got {values.dtype} entries", name=name)
    try:
        arr = values.astype(dtype, copy=False)
    except OverflowError:
        limit = "int64" if dtype is int else "double"
        raise DomainError(f"{name} has an integer beyond the {limit} range", name=name) from None
    if dtype is not bool and not np.isfinite(arr).all():
        raise DomainError(f"{name} has non-finite entries", name=name)
    return arr


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probability vector over the outcomes of one measurement.

    Entries are read by ``typed_array``, must lie in [0, 1] within
    ``ENTRY_TOL`` and sum to 1 within ``NORM_TOL``. The stored array is a
    read-only copy.
    """

    probs: np.ndarray

    def __init__(self, probs: Sequence[float] | np.ndarray):
        arr = np.array(typed_array(probs, "distribution entries"))
        if arr.ndim != 1 or arr.size < 1:
            raise DistributionError("a distribution must be a nonempty 1-d sequence")
        if arr.min() < -ENTRY_TOL or arr.max() > 1.0 + ENTRY_TOL:
            raise DistributionError(
                f"entries outside [0, 1]: min={arr.min():.3e}, max={arr.max():.3e}"
            )
        total = float(arr.sum())
        if abs(total - 1.0) > NORM_TOL:
            raise DistributionError(f"entries sum to {total!r}, expected 1 within {NORM_TOL}")
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

    @property
    def max_probability(self) -> float:
        return float(self.probs.max())


@dataclass(frozen=True)
class TrajectoryProbe:
    """A state, evolution and measurement bundled as ``times -> distributions``.

    ``sample_many`` maps a 1-d array of M times t >= 0 to an
    ``(M, outcome_count)`` array whose row k is the outcome distribution at
    ``times[k]``; at t = 0 it reproduces the initial state's outcome
    statistics. Row k depends on ``times[k]`` alone up to rounding: a time's
    rows in two blocks agree within a few ulps for quantum probes (the
    block's shape picks the BLAS kernel of their contraction) and exactly
    for classical and synthetic ones. ``distributions_at`` is the one way
    to read it: it validates the block, keeps the last one, read-only, and
    returns it again for exactly the same times. The block is read by
    ``typed_array``: a fresh float64 ndarray that owns its data is taken
    over and frozen, not copied, so ``sample_many`` must not keep or reuse
    it; a view, a read-only array or a subclass is copied. ``floor``, if
    set, maps the probe's ω to the resolution floor of a finite quadrature
    (``classical.ensemble_probe``).
    """

    sample_many: Callable[[np.ndarray], np.ndarray]
    outcome_count: int
    floor: Callable[[OutcomeDistribution], float] | None = field(default=None, compare=False)
    _last: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        typed_scalar(self.outcome_count, "outcome_count", int, least=1)

    def distributions_at(self, times: np.ndarray) -> np.ndarray:
        """Stack probe samples at the given times into a read-only (M, N) array."""
        times = typed_array(times, "times")
        last = self._last[:]  # one read, so times and block always belong together
        if last and np.array_equal(last[0], times):
            return last[1]
        if times.size == 0:
            raise DimensionError("a sample block needs at least one time")
        block = typed_array(self.sample_many(times), "a probe block")
        if not (type(block) is np.ndarray and block.flags.owndata and block.flags.writeable):
            block = np.array(block)
        if block.shape != (times.size, self.outcome_count):
            raise DimensionError(
                f"sample_many returned shape {block.shape}, "
                f"expected {(times.size, self.outcome_count)}"
            )
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
        typed_scalar(self.horizon, "horizon", above=0.0)
        typed_scalar(self.seed, "seed", int, least=0)
        typed_scalar(self.samples, "samples", int, least=2, most=MAX_SAMPLES)
        if self.scheme not in (SCHEME_UNIFORM, SCHEME_STRATIFIED):
            raise DomainError(f"unknown sampling scheme {self.scheme!r}", name="scheme")


def seeded_rng(seed: int) -> np.random.Generator:
    """The generator of ``seed``, an integer >= 0 by ``typed_scalar``: every
    sampler draws from one, so a seed of 2.5, True or -1 fails as a
    DomainError naming ``seed``."""
    return np.random.default_rng(typed_scalar(seed, "seed", int, least=0))


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
    distinguishability time series divided by sqrt(samples): it counts the
    scatter of the sampled times only. It holds no finite-horizon bias and
    no serial correlation between the samples, so it is not an error bar
    on the infinite time average: a deterministic orbit can sit more than
    two of it from the exact average, and a constant series reads 0.
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
    typed_scalar(mean, "mean")
    typed_scalar(standard_error, "standard_error")
    typed_scalar(epsilon, "epsilon")
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
    resolution floor; ``errors`` names them, summing in their order to
    ``standard_error`` (empty on a report read back from a record).
    ``bound_values`` maps bound names to analytic values that applied to the
    run.
    """

    mean_distinguishability: float
    standard_error: float
    equilibrium_distribution: OutcomeDistribution
    epsilon: float
    bound_values: dict[str, float] = field(default_factory=dict)
    errors: dict[str, float] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        typed_scalar(self.mean_distinguishability, "mean_distinguishability", least=0.0, most=1.0)
        typed_scalar(self.standard_error, "standard_error", least=0.0)
        check_epsilon(self.epsilon)
        for bound, value in self.bound_values.items():
            typed_scalar(value, bound)

    @property
    def verdict(self) -> str:
        """The three-valued verdict that the estimate gives."""
        return decide_verdict(self.mean_distinguishability, self.standard_error, self.epsilon)


def equilibration_report(
    probe: TrajectoryProbe,
    epsilon: float,
    cfg: TimeAverageConfig,
    bound_values: dict[str, float] | None = None,
) -> EquilibrationReport:
    """Measure a probe against the epsilon-equilibration definition.

    Draws the times of ``cfg`` once, reads one sample block and reduces it
    in one pass: the in-sample mean is the empirical equilibrium
    distribution ω, and the distinguishability from it is averaged over the
    same times. A probe's ``floor`` is evaluated once, at that ω, and kept
    as the ``"quadrature"`` error beside the time-sampling one.
    """
    check_epsilon(epsilon)
    omega, mean, errors = _estimate(probe.distributions_at(sample_times(cfg)))
    if probe.floor is not None:
        errors["quadrature"] = typed_scalar(probe.floor(omega), "quadrature", least=0.0)
    return EquilibrationReport(
        mean_distinguishability=mean,
        standard_error=sum(errors.values()),
        equilibrium_distribution=omega,
        epsilon=epsilon,
        bound_values=dict(bound_values or {}),
        errors=errors,
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
    typed_scalar(outcomes, "outcomes", int, least=1)
    typed_scalar(mode_count, "mode_count", int, least=0)
    typed_scalar(amplitude, "amplitude", least=0.0, below=1.0)
    if dominant_weight is not None:
        typed_scalar(dominant_weight, "dominant_weight", above=0.0, most=1.0)
    rng = seeded_rng(seed)
    base = rng.dirichlet(np.ones(outcomes))
    if dominant_weight is not None:
        rest = base[1:] / base[1:].sum() if outcomes > 1 else np.array([])
        base = np.concatenate(([dominant_weight], (1.0 - dominant_weight) * rest))
    # amplitudes normalized so each factor stays in (1 - amplitude, 1 + amplitude)
    amps = rng.random((outcomes, mode_count))
    amps *= amplitude / np.maximum(amps.sum(axis=1, keepdims=True), 1e-300)
    freqs = rng.uniform(0.5, 3.0, mode_count)
    phases = rng.uniform(0.0, 2.0 * np.pi, (outcomes, mode_count))
    chunk = max(1, _CHUNK_ENTRIES // (outcomes * max(1, mode_count)))

    def _raw(times: np.ndarray) -> np.ndarray:
        out = np.empty((times.size, outcomes))
        for start in range(0, times.size, chunk):
            ts = times[start : start + chunk]
            angles = np.multiply.outer(ts, freqs)[:, None, :] + phases  # (m, N, modes)
            weights = base * (1.0 + np.einsum("jm,tjm->tj", amps, np.cos(angles, out=angles)))
            out[start : start + ts.size] = weights / weights.sum(axis=1, keepdims=True)
        return out

    return TrajectoryProbe(sample_many=_raw, outcome_count=outcomes)
