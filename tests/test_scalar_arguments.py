"""Every scalar argument of the public library is read by ``core.typed_scalar``:
a string, a boolean or a non-finite number fails as a DomainError whose
``name`` is the argument, and so does a float where a count is asked for,
or a value just outside either end of the argument's range."""

import math

import numpy as np
import pytest

from equilib.classical import (
    _t_quantile,
    cat_map,
    contaminated_cat_ensemble,
    decorrelation_audit,
    grid_partition,
    mixed_equilibration_bound,
)
from equilib.core import (
    MAX_SAMPLES,
    DomainError,
    EquilibrationReport,
    OutcomeDistribution,
    TimeAverageConfig,
    TrajectoryProbe,
    check_epsilon,
    decide_verdict,
    equilibration_report,
    synthetic_probe,
)
from equilib.quantum import (
    POVM,
    HamiltonianSpectrum,
    equilibration_bound,
    extend_hamiltonian,
    extend_povm,
    gap_table,
    haar_unitary,
    max_outcomes_for_equilibration,
    partial_trace_ancilla,
    projective_povm,
    random_mixed_state,
    random_povm,
    random_pure_state,
    random_spectrum,
    uneven_povm,
)

QUBIT = HamiltonianSpectrum([0.0, 1.0])
QUBIT_POVM = POVM([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
QUADRANTS = grid_partition([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])
AUDITED = contaminated_cat_ensemble(40, 0.0, 1)
AUDIT_TIMES = TimeAverageConfig(64.0, 64, "uniform-grid")


def audit(**kwargs):
    """A small decorrelation audit with ``kwargs`` for its scalars."""
    args = {"pair_count": 3, "seed": 0, "batches": 4, "family_risk": 1e-3, **kwargs}
    return decorrelation_audit(AUDITED, cat_map(), QUADRANTS, AUDIT_TIMES, **args)


def block(times):
    return np.full((len(times), 2), 0.5)


HALVES = OutcomeDistribution([0.5, 0.5])


def report(mean=0.3, standard_error=0.0, bound=0.1):
    """A report of the even two-outcome ω with ``bound`` as its thm5 value."""
    return EquilibrationReport(mean, standard_error, HALVES, 0.35, {"thm5-spectral": bound})


def floored(floor):
    """The report of a constant probe whose quadrature floor is ``floor``."""
    probe = TrajectoryProbe(block, 2, floor=lambda omega: floor)
    return equilibration_report(probe, 0.3, TimeAverageConfig(1.0, 4))


# each scalar argument: its function, its name, its type, a value that the
# call takes, and a call that passes the value as that argument
ARGUMENTS = [
    # core
    ("check_epsilon", "epsilon", float, 0.3, check_epsilon),
    ("decide_verdict", "mean", float, 0.1, lambda v: decide_verdict(v, 0.01, 0.3)),
    ("decide_verdict", "standard_error", float, 0.01, lambda v: decide_verdict(0.1, v, 0.3)),
    ("decide_verdict", "epsilon", float, 0.3, lambda v: decide_verdict(0.1, 0.01, v)),
    ("TimeAverageConfig", "horizon", float, 2.0, lambda v: TimeAverageConfig(v, 4)),
    ("TimeAverageConfig", "samples", int, 4, lambda v: TimeAverageConfig(1.0, v)),
    ("TimeAverageConfig", "seed", int, 1, lambda v: TimeAverageConfig(1.0, 4, seed=v)),
    ("TrajectoryProbe", "outcome_count", int, 2, lambda v: TrajectoryProbe(block, v)),
    ("synthetic_probe", "outcomes", int, 3, lambda v: synthetic_probe(v, 0)),
    ("synthetic_probe", "seed", int, 1, lambda v: synthetic_probe(3, v)),
    ("synthetic_probe", "dominant_weight", float, 0.5,
     lambda v: synthetic_probe(3, 0, dominant_weight=v)),
    ("synthetic_probe", "mode_count", int, 2, lambda v: synthetic_probe(3, 0, mode_count=v)),
    ("synthetic_probe", "amplitude", float, 0.5, lambda v: synthetic_probe(3, 0, amplitude=v)),
    ("EquilibrationReport", "mean_distinguishability", float, 0.3, lambda v: report(mean=v)),
    ("EquilibrationReport", "standard_error", float, 0.0, lambda v: report(standard_error=v)),
    ("EquilibrationReport", "thm5-spectral", float, 0.1, lambda v: report(bound=v)),
    ("equilibration_report", "quadrature", float, 0.01, floored),
    # quantum
    ("gap_table", "gap_tol", float, 1e-6, lambda v: gap_table(QUBIT, v)),
    ("equilibration_bound", "outcomes", int, 2, lambda v: equilibration_bound(v, 1, 4.0)),
    ("equilibration_bound", "gap_degeneracy", int, 1, lambda v: equilibration_bound(2, v, 4.0)),
    ("equilibration_bound", "effective_dim", float, 4.0, lambda v: equilibration_bound(2, 1, v)),
    ("max_outcomes_for_equilibration", "epsilon", float, 0.3,
     lambda v: max_outcomes_for_equilibration(v, 4.0, 1)),
    ("max_outcomes_for_equilibration", "effective_dim", float, 4.0,
     lambda v: max_outcomes_for_equilibration(0.3, v, 1)),
    ("max_outcomes_for_equilibration", "gap_degeneracy", int, 1,
     lambda v: max_outcomes_for_equilibration(0.3, 4.0, v)),
    ("haar_unitary", "dim", int, 3, lambda v: haar_unitary(v, np.random.default_rng(0))),
    ("random_spectrum", "dim", int, 3, lambda v: random_spectrum(v, 0)),
    ("random_spectrum", "seed", int, 1, lambda v: random_spectrum(3, v)),
    ("random_spectrum", "spacing", float, 0.5,
     lambda v: random_spectrum(3, 0, "equally-spaced", spacing=v)),
    ("random_pure_state", "dim", int, 3, lambda v: random_pure_state(v, 0)),
    ("random_pure_state", "seed", int, 1, lambda v: random_pure_state(3, v)),
    ("random_mixed_state", "dim", int, 3, lambda v: random_mixed_state(v, 0)),
    ("random_mixed_state", "seed", int, 1, lambda v: random_mixed_state(3, v)),
    ("random_povm", "dim", int, 3, lambda v: random_povm(v, 2, 0)),
    ("random_povm", "outcomes", int, 2, lambda v: random_povm(3, v, 0)),
    ("random_povm", "seed", int, 1, lambda v: random_povm(3, 2, v)),
    ("projective_povm", "dim", int, 3, lambda v: projective_povm(v, 2, 0)),
    ("projective_povm", "outcomes", int, 2, lambda v: projective_povm(3, v, 0)),
    ("projective_povm", "seed", int, 1, lambda v: projective_povm(3, 2, v)),
    ("uneven_povm", "dim", int, 3, lambda v: uneven_povm(v, 3, 0.1, 0)),
    ("uneven_povm", "outcomes", int, 3, lambda v: uneven_povm(3, v, 0.1, 0)),
    ("uneven_povm", "leak", float, 0.1, lambda v: uneven_povm(3, 3, v, 0)),
    ("uneven_povm", "seed", int, 1, lambda v: uneven_povm(3, 3, 0.1, v)),
    ("extend_hamiltonian", "ancilla_dim", int, 2, lambda v: extend_hamiltonian(QUBIT, v)),
    ("extend_povm", "ancilla_dim", int, 2, lambda v: extend_povm(QUBIT_POVM, v)),
    ("partial_trace_ancilla", "system_dim", int, 2,
     lambda v: partial_trace_ancilla(random_pure_state(4, 0), v)),
    # classical
    ("cat_map", "lattice", int, 8, lambda v: cat_map(lattice=v)),
    ("mixed_equilibration_bound", "cell_count", int, 4,
     lambda v: mixed_equilibration_bound(v, 0.1)),
    ("mixed_equilibration_bound", "delta", float, 0.1, lambda v: mixed_equilibration_bound(4, v)),
    ("decorrelation_audit", "pair_count", int, 3, lambda v: audit(pair_count=v)),
    ("decorrelation_audit", "seed", int, 1, lambda v: audit(seed=v)),
    ("decorrelation_audit", "batches", int, 4, lambda v: audit(batches=v)),
    ("decorrelation_audit", "family_risk", float, 1e-3, lambda v: audit(family_risk=v)),
    ("contaminated_cat_ensemble", "count", int, 10,
     lambda v: contaminated_cat_ensemble(v, 0.1, 0)),
    ("contaminated_cat_ensemble", "delta", float, 0.1,
     lambda v: contaminated_cat_ensemble(10, v, 0)),
    ("contaminated_cat_ensemble", "seed", int, 1, lambda v: contaminated_cat_ensemble(10, 0.1, v)),
    ("contaminated_cat_ensemble", "lattice", int, 4,
     lambda v: contaminated_cat_ensemble(10, 0.1, 0, lattice=v)),
    ("_t_quantile", "tail", float, 0.05, lambda v: _t_quantile(v, 3)),
]

BELOW_ZERO = math.nextafter(0.0, -1.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)

# the values just outside each end of an argument's range, by its id
OUTSIDE = {
    # core
    "check_epsilon.epsilon": [BELOW_ZERO, 1.0],
    "TimeAverageConfig.horizon": [0.0],
    "TimeAverageConfig.samples": [1, MAX_SAMPLES + 1],
    "TimeAverageConfig.seed": [-1],
    "TrajectoryProbe.outcome_count": [0],
    "synthetic_probe.outcomes": [0],
    "synthetic_probe.seed": [-1],
    "synthetic_probe.dominant_weight": [0.0, ABOVE_ONE],
    "synthetic_probe.mode_count": [-1],
    "synthetic_probe.amplitude": [BELOW_ZERO, 1.0],
    "EquilibrationReport.mean_distinguishability": [BELOW_ZERO, ABOVE_ONE],
    "EquilibrationReport.standard_error": [BELOW_ZERO],
    "equilibration_report.quadrature": [BELOW_ZERO],
    # quantum
    "gap_table.gap_tol": [BELOW_ZERO],
    "equilibration_bound.outcomes": [0],
    "equilibration_bound.gap_degeneracy": [0],
    "equilibration_bound.effective_dim": [math.nextafter(1.0, 0.0)],
    "max_outcomes_for_equilibration.epsilon": [BELOW_ZERO, 1.0],
    "max_outcomes_for_equilibration.effective_dim": [math.nextafter(1.0, 0.0)],
    "max_outcomes_for_equilibration.gap_degeneracy": [0],
    "haar_unitary.dim": [0],
    "random_spectrum.dim": [0],
    "random_spectrum.seed": [-1],
    "random_spectrum.spacing": [0.0],
    "random_pure_state.dim": [0],
    "random_pure_state.seed": [-1],
    "random_mixed_state.dim": [0],
    "random_mixed_state.seed": [-1],
    "random_povm.dim": [0],
    "random_povm.outcomes": [0],
    "random_povm.seed": [-1],
    "projective_povm.dim": [0],
    "projective_povm.outcomes": [0, 4],
    "projective_povm.seed": [-1],
    "uneven_povm.dim": [0],
    "uneven_povm.outcomes": [1],
    "uneven_povm.leak": [BELOW_ZERO, 1.0],
    "uneven_povm.seed": [-1],
    "extend_hamiltonian.ancilla_dim": [0],
    "extend_povm.ancilla_dim": [0],
    "partial_trace_ancilla.system_dim": [0],
    # classical
    "cat_map.lattice": [0, 2**52 + 1],
    "mixed_equilibration_bound.cell_count": [0],
    "mixed_equilibration_bound.delta": [BELOW_ZERO, math.nextafter(0.5, 1.0)],
    "decorrelation_audit.pair_count": [0],
    "decorrelation_audit.seed": [-1],
    "decorrelation_audit.batches": [1],
    "decorrelation_audit.family_risk": [0.0, 1.0],
    "contaminated_cat_ensemble.count": [0],
    "contaminated_cat_ensemble.delta": [BELOW_ZERO, ABOVE_ONE],
    "contaminated_cat_ensemble.seed": [-1],
    "_t_quantile.tail": [0.0, 1.0],
}

# the values no argument of the type takes: a string, booleans, a
# non-finite float for a number, and floats, integral or not, for a count
REFUSED = {float: ["1", True, np.True_, math.nan, math.inf],
           int: ["1", True, np.True_, 2.5, 2.0, np.float64(3.0)]}


IDS = [f"{function}.{name}" for function, name, *_ in ARGUMENTS]


@pytest.mark.parametrize("function, name, dtype, good, call", ARGUMENTS, ids=IDS)
def test_a_scalar_argument_is_read_by_typed_scalar(function, name, dtype, good, call):
    call(good)
    what = "an integer" if dtype is int else "a finite number"
    for bad in REFUSED[dtype] + OUTSIDE.get(f"{function}.{name}", []):
        with pytest.raises(DomainError, match=f"^{name} must be {what}") as info:
            call(bad)
        assert info.value.name == name, bad


def test_every_range_end_belongs_to_an_argument():
    assert set(OUTSIDE) <= set(IDS)
