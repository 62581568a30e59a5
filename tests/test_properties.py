"""Property tests: metric axioms, bound algebra, and the randomized
soundness sweeps behind the universal sufficiency and chain inequalities."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from equilib.classical import (
    cat_map,
    check_necessity,
    classical_probe,
    interval_partition,
    grid_partition,
    pure_average_distinguishability,
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
    synthetic_probe,
    time_average_distribution,
)
from equilib.quantum import (
    equilibration_bound,
    max_outcomes_for_equilibration,
    quantum_probe,
    random_pure_state,
    random_spectrum,
    uneven_povm,
    default_average_config,
)


@st.composite
def distribution_triples(draw):
    dim = draw(st.integers(min_value=1, max_value=6))
    out = []
    for _ in range(3):
        raw = draw(
            st.lists(
                st.floats(min_value=1e-3, max_value=1.0),
                min_size=dim,
                max_size=dim,
            )
        )
        arr = np.asarray(raw)
        out.append(OutcomeDistribution(arr / arr.sum()))
    return out


class TestMetricAxioms:
    @given(distribution_triples())
    @settings(max_examples=200, deadline=None)
    def test_metric(self, triple):
        p, q, r = triple
        dpq = distinguishability(p, q)
        assert dpq >= 0.0
        assert dpq == distinguishability(q, p)
        assert distinguishability(p, p) == 0.0
        # zero only for identical vectors
        if dpq == 0.0:
            assert np.array_equal(p.probs, q.probs)
        # triangle inequality
        assert distinguishability(p, r) <= dpq + distinguishability(q, r) + 1e-12


class TestBoundAlgebra:
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=1.0, max_value=1e6),
    )
    @settings(max_examples=200)
    def test_monotonicity(self, n, dg, deff):
        base = equilibration_bound(n, dg, deff)
        assert equilibration_bound(n + 1, dg, deff) >= base
        assert equilibration_bound(n, dg + 1, deff) >= base
        assert equilibration_bound(n, dg, deff + 1.0) <= base
        assert base >= 0.0

    @given(
        st.floats(min_value=0.0, max_value=0.99),
        st.floats(min_value=1.0, max_value=1e5),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200)
    def test_max_outcomes_consistent_with_bound(self, eps, deff, dg):
        n = max_outcomes_for_equilibration(eps, deff, dg)
        assert n >= 1
        # the guaranteed bound at the returned outcome count is within eps
        assert equilibration_bound(n, dg, deff) <= eps + 1e-9


class TestVerdictAlgebra:
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.2),
        st.floats(min_value=0.0, max_value=0.999),
    )
    @settings(max_examples=200)
    def test_verdict_consistency(self, mean, err, eps):
        verdict = decide_verdict(mean, err, eps)
        if verdict == "equilibrates":
            assert mean + 2 * err <= eps
        elif verdict == "does-not-equilibrate":
            assert mean - 2 * err > eps
        else:
            assert abs(mean - eps) <= 2 * err


class TestSufficiencySoundness:
    def test_thousand_random_probes(self):
        # no physics assumed: random oscillatory probes whose empirical
        # equilibrium satisfies the unevenness threshold must equilibrate
        rng = np.random.default_rng(20260808)
        cfg_proto = dict(horizon=200.0, samples=256)
        qualifying = 0
        for trial in range(1000):
            eps = float(rng.uniform(0.02, 0.5))
            outcomes = int(rng.integers(2, 7))
            dominant = 1.0 - eps / 2.0 * float(rng.uniform(0.0, 1.2))
            probe = synthetic_probe(
                outcomes,
                seed=int(rng.integers(2**63)),
                dominant_weight=min(dominant, 1.0),
                amplitude=float(rng.uniform(0.1, 0.7)),
            )
            cfg = TimeAverageConfig(seed=int(rng.integers(2**63)), **cfg_proto)
            report = equilibration_report(probe, eps, cfg)
            omega = report.equilibrium_distribution
            if not check_sufficiency(omega, eps):
                continue
            qualifying += 1
            assert (
                report.mean_distinguishability
                <= eps + 3.0 * report.standard_error
            ), f"trial {trial}: sufficiency violated"
        assert qualifying >= 400  # the sweep must actually exercise the theorem


class TestMaxDistinguishabilityChain:
    def test_average_max_below_sum(self):
        # time-averaged max over measurements never exceeds the summed
        # per-measurement averages
        rng = np.random.default_rng(7)
        for trial in range(20):
            k = int(rng.integers(2, 6))
            probes = [
                synthetic_probe(int(rng.integers(2, 5)), seed=int(rng.integers(2**63)))
                for _ in range(k)
            ]
            cfg = TimeAverageConfig(
                horizon=150.0, samples=256, seed=int(rng.integers(2**63))
            )
            omegas = [time_average_distribution(p, cfg) for p in probes]
            max_est = average_multi_distinguishability(probes, omegas, cfg)
            total = sum(
                average_distinguishability(p, w, cfg).mean
                for p, w in zip(probes, omegas)
            )
            assert max_est.mean <= total + 1e-12


class TestClassicalTheoremSweeps:
    def test_necessity_contrapositive_zero_violations(self):
        # whenever a pure classical probe measures as equilibrated, its
        # occupation vector must be lopsided enough
        rng = np.random.default_rng(99)
        cfg = TimeAverageConfig(horizon=1024, samples=1024, scheme="uniform-grid")
        for trial in range(60):
            if trial % 2 == 0:
                mapping = rotation_map(float(rng.uniform(0.1, 0.9)))
                edges = np.sort(rng.uniform(0.05, 0.95, size=int(rng.integers(1, 4))))
                partition = interval_partition([0.0, *edges, 1.0])
                x = float(rng.uniform(0, 1))
            else:
                mapping = cat_map()
                cut = lambda: [0.0, float(rng.uniform(0.2, 0.8)), 1.0]  # noqa: E731
                partition = grid_partition([cut(), cut()])
                x = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            probe = classical_probe(x, mapping, partition)
            for eps in (0.05, 0.2, 0.5, 0.8):
                report = equilibration_report(probe, eps, cfg)
                statistically_equilibrated = (
                    report.mean_distinguishability
                    <= eps - 3.0 * report.standard_error
                )
                if statistically_equilibrated:
                    assert check_necessity(report.equilibrium_distribution, eps)

    def test_engineered_uneven_partition_equilibrates(self):
        # one cell of occupation >= 1 - eps/2 forces measured equilibration
        rng = np.random.default_rng(31)
        cfg = TimeAverageConfig(horizon=2048, samples=2048, scheme="uniform-grid")
        golden = (math.sqrt(5) - 1) / 2
        checked = 0
        for trial in range(20):
            eps = float(rng.uniform(0.1, 0.6))
            big = 1.0 - eps / 3.0  # cell [0, big) occupation ~ big >= 1 - eps/2
            partition = interval_partition([0.0, big, 1.0])
            probe = classical_probe(float(rng.uniform(0, 1)), rotation_map(golden), partition)
            report = equilibration_report(probe, eps, cfg)
            if check_sufficiency(report.equilibrium_distribution, eps):
                checked += 1
                assert (
                    report.mean_distinguishability
                    <= eps + 3.0 * report.standard_error
                )
        assert checked >= 15

    def test_closed_form_bounds_necessity(self):
        # algebra linking the closed form and the threshold: if the exact
        # average is below eps then max weight exceeds 1 - eps
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            raw = rng.dirichlet(np.ones(n))
            omega = OutcomeDistribution(raw)
            eps = float(rng.uniform(0.01, 0.99))
            if pure_average_distinguishability(omega) < eps:
                assert check_necessity(omega, eps)


class TestQuantumSufficiencyCrossCheck:
    def test_uneven_povm_forces_equilibration(self):
        # measurement with a near-identity element: universal sufficiency
        # applies to quantum dynamics as-is
        rng = np.random.default_rng(55)
        for trial in range(10):
            d = int(rng.integers(2, 9))
            eps = float(rng.uniform(0.1, 0.5))
            spectrum = random_spectrum(d, int(rng.integers(2**63)))
            rho = random_pure_state(d, int(rng.integers(2**63)))
            povm = uneven_povm(d, int(rng.integers(2, 5)), leak=eps / 2.0,
                               seed=int(rng.integers(2**63)))
            probe = quantum_probe(rho, spectrum, povm)
            cfg = default_average_config(spectrum, samples=2000,
                                         seed=int(rng.integers(2**63)))
            report = equilibration_report(probe, eps, cfg)
            assert check_sufficiency(report.equilibrium_distribution, eps)
            assert (
                report.mean_distinguishability <= eps + 3.0 * report.standard_error
            )
