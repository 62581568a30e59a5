"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line with the measured numbers; run with
``pytest tests/test_acceptance.py -v -s`` to see them inline. Tolerances are
pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from equilib.classical import (
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
    rotation_map,
)
from equilib.core import (
    OutcomeDistribution,
    TimeAverageConfig,
    average_distinguishability,
    average_multi_distinguishability,
    check_sufficiency,
    decide_verdict,
    distinguishability,
    equilibration_report,
    sample_times,
    synthetic_probe,
    time_average_distribution,
)
from equilib.quantum import (
    POVM,
    DensityMatrix,
    HamiltonianSpectrum,
    default_average_config,
    dephase,
    effective_dimension,
    equilibration_bound,
    extend_hamiltonian,
    extend_povm,
    haar_unitary,
    max_gap_degeneracy,
    max_outcomes_for_equilibration,
    partial_trace_ancilla,
    projective_povm,
    projector_second_moment,
    purify,
    quantum_probe,
    random_mixed_state,
    random_povm,
    random_pure_state,
    random_spectrum,
    uneven_povm,
)

GOLDEN = (math.sqrt(5) - 1) / 2


def report_line(cid: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def thm5_sweep():
    """200 seeded random quantum instances shared by criteria 2 and 9."""
    rng = np.random.default_rng(5150)
    start = time.perf_counter()
    instances = []
    for i in range(200):
        d = int(rng.integers(2, 33))
        n = int(rng.integers(2, 9))
        spectrum_kind = "equally-spaced" if i % 4 == 0 else "generic"
        state_kind = "mixed" if i % 2 else "pure"
        seed = int(rng.integers(2**62))
        spectrum = random_spectrum(d, seed, kind=spectrum_kind)
        rho = (
            random_mixed_state(d, seed + 1)
            if state_kind == "mixed"
            else random_pure_state(d, seed + 1)
        )
        if i % 3 == 0 and n <= d:
            povm = projective_povm(d, n, seed + 2)
            povm_kind = "projective"
        else:
            povm = random_povm(d, n, seed + 2)
            povm_kind = "random"
        probe = quantum_probe(rho, spectrum, povm)
        cfg = default_average_config(spectrum, samples=3000, seed=seed + 3)
        omega = time_average_distribution(probe, cfg)
        est = average_distinguishability(probe, omega, cfg)
        instances.append(
            {
                "d": d,
                "n": n,
                "spectrum": spectrum_kind,
                "state": state_kind,
                "povm": povm_kind,
                "d_eff": effective_dimension(rho, spectrum),
                "d_g": max_gap_degeneracy(spectrum),
                "mean": est.mean,
                "stderr": est.standard_error,
            }
        )
    return instances, time.perf_counter() - start


class TestCriterion1:
    def test_qubit_benchmark(self):
        start = time.perf_counter()
        spectrum = HamiltonianSpectrum([0.0, 1.0])
        plus = DensityMatrix.from_vector([1.0, 1.0])
        povm = POVM(
            [
                np.array([[0.5, 0.5], [0.5, 0.5]]),
                np.array([[0.5, -0.5], [-0.5, 0.5]]),
            ]
        )
        probe = quantum_probe(plus, spectrum, povm)
        cfg = default_average_config(spectrum, samples=10_000, seed=11)
        omega = time_average_distribution(probe, cfg)
        est = average_distinguishability(probe, omega, cfg)
        bound = equilibration_bound(
            2, max_gap_degeneracy(spectrum), effective_dimension(plus, spectrum)
        )
        elapsed = time.perf_counter() - start
        ok = (
            abs(est.mean - 1 / math.pi) <= 0.01
            and abs(bound - 0.5 * math.sqrt(0.5)) < 1e-12
            and est.mean <= bound
            and elapsed < 1.0
        )
        report_line(
            "1 qubit-benchmark",
            ok,
            f"mean={est.mean:.5f} target=1/pi={1 / math.pi:.5f}+-0.01 "
            f"bound={bound:.5f} runtime={elapsed:.2f}s",
        )
        assert abs(est.mean - 1 / math.pi) <= 0.01
        assert abs(bound - 0.5 * math.sqrt(0.5)) < 1e-12
        assert est.mean <= bound
        assert elapsed < 1.0


class TestCriterion2:
    def test_spectral_bound_sweep(self, thm5_sweep):
        instances, elapsed = thm5_sweep
        violations = [
            inst
            for inst in instances
            if inst["mean"] - 3.0 * inst["stderr"]
            > equilibration_bound(inst["n"], inst["d_g"], inst["d_eff"])
        ]
        ok = len(instances) >= 200 and not violations and elapsed < 300.0
        report_line(
            "2 spectral-bound-sweep",
            ok,
            f"instances={len(instances)} violations={len(violations)} "
            f"runtime={elapsed:.1f}s (<300s)",
        )
        assert len(instances) >= 200
        assert not violations, violations[:3]
        assert elapsed < 300.0


def _second_moment_horizon(spectrum, samples: int) -> float:
    """Averaging horizon for squared-deviation series.

    The squared deviation oscillates not only at the gap frequencies but at
    every difference of two gaps (beats). Resolving the slowest such scale
    with at least two periods per stratum makes the stratified samples
    effectively independent, so the naive standard error is calibrated.
    """
    from equilib.quantum import gap_table

    table = gap_table(spectrum)
    # the first member of each class in stable sorted order
    order = np.argsort(table.values, kind="stable")
    _, first = np.unique(table.class_of[order], return_index=True)
    values = sorted(set(table.values[order[first]]))
    scales = {abs(v) for v in values if v != 0}
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            diff = abs(values[j] - values[i])
            if diff > 0:
                scales.add(diff)
    slowest = min(scales) if scales else 1.0
    return 2.0 * samples * 2.0 * math.pi / slowest


class TestCriterion3:
    def test_second_moment_oracle(self):
        start = time.perf_counter()
        rng = np.random.default_rng(31337)
        checked = 0
        failures = []
        cases = (
            [("generic", False)] * 30 + [("equally-spaced", False)] * 14
            + [("generic", True)] * 6
        )
        for kind, degenerate_levels in cases:
            d = int(rng.integers(3, 9))
            seed = int(rng.integers(2**62))
            if degenerate_levels:
                vals = np.sort(rng.uniform(0.0, float(d), d - 1))
                vals = np.sort(np.append(vals, vals[0]))  # one doubled level
                spectrum = HamiltonianSpectrum(vals, haar_unitary(d, np.random.default_rng(seed)))
            else:
                spectrum = random_spectrum(d, seed, kind=kind)
            rho = random_pure_state(d, seed + 1)
            rank = int(rng.integers(1, d))
            basis = haar_unitary(d, np.random.default_rng(seed + 2))[:, :rank]
            proj = basis @ basis.conj().T
            exact = projector_second_moment(rho, proj, spectrum)
            probe = quantum_probe(rho, spectrum, POVM([proj, np.eye(d) - proj]))
            cfg = TimeAverageConfig(
                horizon=_second_moment_horizon(spectrum, 4000),
                samples=4000,
                seed=seed + 3,
            )
            block = probe.distributions_at(sample_times(cfg))
            omega_weight = float(np.real(np.trace(proj @ dephase(rho, spectrum).matrix)))
            series = (block[:, 0] - omega_weight) ** 2
            stderr = series.std(ddof=1) / math.sqrt(series.size)
            checked += 1
            if abs(series.mean() - exact) > 3.0 * stderr + 1e-12:
                failures.append((kind, d, series.mean(), exact, stderr))
        elapsed = time.perf_counter() - start
        ok = checked >= 50 and not failures and elapsed < 120.0
        report_line(
            "3 second-moment-oracle",
            ok,
            f"instances={checked} failures={len(failures)} runtime={elapsed:.1f}s (<120s)",
        )
        assert checked >= 50
        assert not failures, failures[:3]
        assert elapsed < 120.0


def _classical_pure_cases(count, rng):
    """Random (probe, partition, report-ready) pure classical sweep cases."""
    cases = []
    cfg = TimeAverageConfig(horizon=2048, samples=2048, scheme="uniform-grid")
    for trial in range(count):
        n_cells = int(rng.integers(2, 9))
        if trial % 2 == 0:
            mapping = rotation_map(GOLDEN if trial % 4 == 0 else float(rng.uniform(0.05, 0.95)))
            edges = np.sort(rng.uniform(0.02, 0.98, size=n_cells - 1))
            partition = interval_partition([0.0, *edges, 1.0])
            x = float(rng.uniform(0, 1))
        else:
            mapping = cat_map()
            rows = n_cells // 2 if n_cells % 2 == 0 else n_cells
            cols = n_cells // rows
            xedges = [0.0, *np.sort(rng.uniform(0.1, 0.9, size=rows - 1)), 1.0]
            yedges = [0.0, *np.sort(rng.uniform(0.1, 0.9, size=cols - 1)), 1.0]
            partition = grid_partition([xedges, yedges])
            x = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        probe = classical_probe(x, mapping, partition)
        omega = time_average_distribution(probe, cfg)
        est = average_distinguishability(probe, omega, cfg)
        cases.append({"omega": omega, "mean": est.mean, "stderr": est.standard_error})
    return cases


@pytest.fixture(scope="module")
def pure_cases():
    return _classical_pure_cases(50, np.random.default_rng(424242))


class TestCriteria4and5:
    def test_criterion4_closed_form(self, pure_cases):
        failures = [
            c
            for c in pure_cases
            if abs(c["mean"] - (1.0 - float(np.sum(c["omega"].probs ** 2))))
            > 3.0 * c["stderr"] + 1e-12
        ]
        ok = len(pure_cases) >= 50 and not failures
        worst = max(
            abs(c["mean"] - (1.0 - float(np.sum(c["omega"].probs ** 2))))
            for c in pure_cases
        )
        report_line(
            "4 classical-closed-form",
            ok,
            f"cases={len(pure_cases)} failures={len(failures)} worst-gap={worst:.2e}",
        )
        assert len(pure_cases) >= 50
        assert not failures

    def test_criterion5_necessity(self, pure_cases):
        counterexamples = []
        for c in pure_cases:
            for eps in (0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9):
                equilibrated = c["mean"] <= eps - 3.0 * c["stderr"]
                if equilibrated and not check_necessity(c["omega"], eps):
                    counterexamples.append((c, eps))
        ok = not counterexamples
        report_line(
            "5 classical-necessity",
            ok,
            f"cases={len(pure_cases)} x 7 epsilons, counterexamples={len(counterexamples)}",
        )
        assert not counterexamples


class TestCriterion6:
    def test_sufficiency_across_theories(self):
        rng = np.random.default_rng(606)
        checked = {"synthetic": 0, "classical": 0, "quantum": 0}
        violations = []

        for _ in range(40):  # synthetic probes
            eps = float(rng.uniform(0.05, 0.5))
            probe = synthetic_probe(
                int(rng.integers(2, 7)),
                seed=int(rng.integers(2**62)),
                dominant_weight=1.0 - eps / 2.0 * float(rng.uniform(0.2, 0.9)),
                amplitude=float(rng.uniform(0.1, 0.5)),
            )
            cfg = TimeAverageConfig(horizon=300.0, samples=512, seed=int(rng.integers(2**62)))
            rep = equilibration_report(probe, eps, cfg)
            if check_sufficiency(rep.equilibrium_distribution, eps):
                checked["synthetic"] += 1
                if rep.mean_distinguishability > eps + 3.0 * rep.standard_error:
                    violations.append(("synthetic", eps, rep.mean_distinguishability))

        cfg = TimeAverageConfig(horizon=2048, samples=2048, scheme="uniform-grid")
        for _ in range(40):  # classical probes with one dominant cell
            eps = float(rng.uniform(0.1, 0.6))
            partition = interval_partition([0.0, 1.0 - eps / 3.0, 1.0])
            probe = classical_probe(
                float(rng.uniform(0, 1)),
                rotation_map(GOLDEN),
                partition,
            )
            rep = equilibration_report(probe, eps, cfg)
            if check_sufficiency(rep.equilibrium_distribution, eps):
                checked["classical"] += 1
                if rep.mean_distinguishability > eps + 3.0 * rep.standard_error:
                    violations.append(("classical", eps, rep.mean_distinguishability))

        for _ in range(40):  # quantum probes with a near-identity element
            eps = float(rng.uniform(0.1, 0.5))
            d = int(rng.integers(2, 9))
            seed = int(rng.integers(2**62))
            spectrum = random_spectrum(d, seed)
            rho = random_pure_state(d, seed + 1) if rng.random() < 0.5 else (
                random_mixed_state(d, seed + 1)
            )
            povm = uneven_povm(
                d, int(rng.integers(2, 6)), leak=eps / 2.0 * float(rng.uniform(0.3, 0.95)),
                seed=seed + 2,
            )
            probe = quantum_probe(rho, spectrum, povm)
            qcfg = default_average_config(spectrum, samples=1500, seed=seed + 3)
            rep = equilibration_report(probe, eps, qcfg)
            if check_sufficiency(rep.equilibrium_distribution, eps):
                checked["quantum"] += 1
                if rep.mean_distinguishability > eps + 3.0 * rep.standard_error:
                    violations.append(("quantum", eps, rep.mean_distinguishability))

        ok = not violations and all(v >= 25 for v in checked.values())
        report_line(
            "6 universal-sufficiency",
            ok,
            f"qualifying={checked} violations={len(violations)}",
        )
        assert all(v >= 25 for v in checked.values())
        assert not violations, violations[:3]


class TestCriterion7:
    PARTITIONS = {
        2: [[0.0, 0.5, 1.0], [0.0, 1.0]],
        4: [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]],
        8: [[0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.5, 1.0]],
    }

    def test_mixing_bound_and_audit(self):
        cfg = TimeAverageConfig(horizon=1024, samples=1024, scheme="uniform-grid")
        mapping = cat_map()
        failures = []
        rows = []
        for delta in (0.0, 0.02, 0.1):
            for n_cells, edges in self.PARTITIONS.items():
                ensemble = contaminated_cat_ensemble(
                    1000, delta=delta, seed=7000 + int(delta * 100) * 10 + n_cells
                )
                partition = grid_partition(edges)
                probe = ensemble_probe(ensemble, mapping, partition)
                omega = time_average_distribution(probe, cfg)
                floor = ensemble_noise_floor(ensemble, omega)
                est = average_distinguishability(probe, omega, cfg)
                bound = mixed_equilibration_bound(n_cells, ensemble.periodic_weight)
                tol = bound + 3.0 * (est.standard_error + floor)
                rows.append((delta, n_cells, est.mean, tol))
                if est.mean > tol:
                    failures.append((delta, n_cells, est.mean, tol))

        audit_fracs = []
        for delta in (0.0, 0.1):
            ensemble = contaminated_cat_ensemble(1000, delta=delta, seed=9100)
            partition = grid_partition(self.PARTITIONS[4])
            frac, tested = decorrelation_audit(
                ensemble,
                mapping,
                partition,
                TimeAverageConfig(horizon=2048, samples=2048, scheme="uniform-grid"),
                pair_count=100,
                seed=17,
            )
            audit_fracs.append(frac)
            assert tested == 100

        ok = not failures and all(f >= 0.99 for f in audit_fracs)
        worst = max(r[2] - r[3] for r in rows)
        report_line(
            "7 mixing-bound",
            ok,
            f"runs={len(rows)} failures={len(failures)} worst-margin={worst:.3e} "
            f"audit-pass-fractions={audit_fracs}",
        )
        assert not failures, failures
        assert all(f >= 0.99 for f in audit_fracs), audit_fracs


class TestCriterion8:
    def test_purification_invariance(self):
        rng = np.random.default_rng(808)
        worst_traj = 0.0
        worst_deff = 0.0
        for trial in range(20):
            d = int(rng.integers(2, 6))
            seed = int(rng.integers(2**62))
            rho = random_mixed_state(d, seed)
            spectrum = random_spectrum(d, seed + 1)
            povm = random_povm(d, int(rng.integers(2, 5)), seed + 2)
            pure = purify(rho)
            assert pure.is_pure
            recovered = partial_trace_ancilla(pure, d)
            assert np.abs(recovered.matrix - rho.matrix).max() < 1e-12
            spectrum2 = extend_hamiltonian(spectrum, d)
            povm2 = extend_povm(povm, d)
            worst_deff = max(
                worst_deff,
                abs(
                    effective_dimension(rho, spectrum)
                    - effective_dimension(pure, spectrum2)
                ),
            )
            assert max_gap_degeneracy(spectrum) == max_gap_degeneracy(spectrum2)
            omega1 = povm.probabilities(dephase(rho, spectrum))
            omega2 = povm2.probabilities(dephase(pure, spectrum2))
            times = np.linspace(0.0, 60.0, 64)
            block1 = quantum_probe(rho, spectrum, povm).distributions_at(times)
            block2 = quantum_probe(pure, spectrum2, povm2).distributions_at(times)
            d1 = 0.5 * np.abs(block1 - omega1.probs).sum(axis=1)
            d2 = 0.5 * np.abs(block2 - omega2.probs).sum(axis=1)
            worst_traj = max(worst_traj, float(np.abs(d1 - d2).max()))
        ok = worst_traj < 1e-9 and worst_deff < 1e-9
        report_line(
            "8 purification",
            ok,
            f"states=20 worst-trajectory-gap={worst_traj:.2e} "
            f"worst-d_eff-gap={worst_deff:.2e}",
        )
        assert worst_traj < 1e-9
        assert worst_deff < 1e-9


class TestCriterion9:
    def test_corollary_outcome_budget(self, thm5_sweep):
        instances, _ = thm5_sweep
        qualifying = 0
        failures = []
        for inst in instances:
            eps = equilibration_bound(inst["n"], inst["d_g"], inst["d_eff"])
            if not eps < 1.0:
                continue  # no valid epsilon satisfies the outcome budget
            # at this eps the budget holds with equality:
            assert inst["n"] <= max_outcomes_for_equilibration(eps, inst["d_eff"], inst["d_g"])
            qualifying += 1
            verdict = decide_verdict(inst["mean"], inst["stderr"], eps)
            consistent = verdict == "equilibrates" or (
                verdict == "inconclusive"
                and inst["mean"] <= eps + 3.0 * inst["stderr"]
            )
            if not consistent:
                failures.append((inst["n"], inst["d_eff"], inst["d_g"], inst["mean"], eps))
        ok = not failures and qualifying >= 100
        report_line(
            "9 corollary-outcome-budget",
            ok,
            f"qualifying={qualifying}/200 failures={len(failures)}",
        )
        assert qualifying >= 100
        assert not failures, failures[:3]


class TestCriterion10:
    def test_multi_measurement_budget_chain(self):
        rng = np.random.default_rng(1010)
        failures = []
        details = []
        for k in (2, 3, 5):
            eps = 0.3
            d = 6
            seed = int(rng.integers(2**62))
            spectrum = random_spectrum(d, seed)
            rho = random_pure_state(d, seed + 1)
            povms = [
                uneven_povm(d, 3, leak=eps / (2.0 * k), seed=seed + 2 + i)
                for i in range(k)
            ]
            probes = [quantum_probe(rho, spectrum, p) for p in povms]
            cfg = default_average_config(spectrum, samples=3000, seed=seed + 50)
            omegas = [time_average_distribution(p, cfg) for p in probes]
            per_measurement = [
                average_distinguishability(p, w, cfg)
                for p, w in zip(probes, omegas)
            ]
            budget = eps / k
            assert all(est.mean <= budget + 3.0 * est.standard_error
                       for est in per_measurement)
            max_est = average_multi_distinguishability(probes, omegas, cfg)
            total = sum(est.mean for est in per_measurement)
            details.append((k, max_est.mean))
            if max_est.mean > eps + 3.0 * max_est.standard_error:
                failures.append((k, max_est.mean, eps))
            if max_est.mean > total + 1e-12:
                failures.append((k, "chain", max_est.mean, total))
        ok = not failures
        report_line(
            "10 multi-measurement",
            ok,
            f"K-and-mean={[(k, round(m, 4)) for k, m in details]} eps=0.3 "
            f"failures={len(failures)}",
        )
        assert not failures, failures
