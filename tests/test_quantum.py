"""Quantum spectra, probes, dephasing, bounds and proof-object operations."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from equilib import core, quantum
from equilib.bench import STATUS_SATISFIED, _matrix_node, _Node, load_scenario, run_scenario
from equilib.core import (
    DimensionError,
    DomainError,
    OutcomeDistribution,
    TimeAverageConfig,
    sample_times,
    time_average_distribution,
)
from equilib.quantum import (
    POVM,
    _energy_coefficients,
    DensityMatrix,
    DEGENERACY_REL_TOL,
    GAP_REL_TOL,
    HamiltonianSpectrum,
    default_average_config,
    dephase,
    effective_dimension,
    eigenspace_weights,
    equilibration_bound,
    extend_hamiltonian,
    extend_povm,
    gap_degeneracy_sensitivity,
    gap_table,
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

PLUS = DensityMatrix.from_vector([1.0, 1.0])
MINUS = DensityMatrix.from_vector([1.0, -1.0])
QUBIT_H = HamiltonianSpectrum([0.0, 1.0])
SIGMA_X_POVM = POVM(
    [
        np.array([[0.5, 0.5], [0.5, 0.5]]),
        np.array([[0.5, -0.5], [-0.5, 0.5]]),
    ]
)


def traced_peak(run) -> int:
    """Peak bytes that ``run()`` allocates, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def brute_force_gap_degeneracy(energies, tol):
    """Independent oracle: O(P^2) pairwise comparison of eigenspace gaps."""
    gaps = [
        energies[n] - energies[j]
        for n in range(len(energies))
        for j in range(len(energies))
        if n != j
    ]
    best = 1
    for g in gaps:
        count = sum(1 for h in gaps if abs(g - h) < tol)
        best = max(best, count)
    return best


def tuple_gap_table(spectrum, gap_tol=None):
    """Reference gap table: nested-loop pairs and tuple classes, each class
    the stable-sorted run of gaps whose consecutive spacing is < gap_tol."""
    if gap_tol is None:
        gap_tol = GAP_REL_TOL * spectrum.spectral_range
    energies = spectrum.eigenspace_energies
    s = energies.size
    pairs = [(n, j) for n in range(s) for j in range(s) if n != j]
    values = np.array([energies[n] - energies[j] for n, j in pairs])
    order = np.argsort(values, kind="stable")
    classes = []
    for rank, k in enumerate(order):
        if classes and gap_tol > 0 and values[k] - values[order[rank - 1]] < gap_tol:
            classes[-1].append(int(k))
        else:
            classes.append([int(k)])
    return pairs, values, classes


def loop_eigenspaces(values):
    """Reference eigenspaces: a Python loop over ascending ``values`` that
    starts a new group wherever the spacing reaches DEGENERACY_REL_TOL times
    the spectral range (one group when that range is 0)."""
    spread = values[-1] - values[0]
    if spread == 0.0:
        return [list(range(len(values)))]
    tol = DEGENERACY_REL_TOL * spread
    groups = [[0]]
    for k in range(1, len(values)):
        if values[k] - values[k - 1] < tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


def planted_clusters(rng):
    """Ascending levels in clusters of 1-9 copies, each copy within a few
    1e-13 of its cluster's centre, so the clusters are unambiguous."""
    centres = np.sort(rng.uniform(-5.0, 5.0, size=rng.integers(1, 8)))
    vals = [c + rng.uniform(0.0, 1e-13) * rng.integers(0, 2)
            for c in centres for _ in range(rng.integers(1, 10))]
    return np.sort(vals)


def reference_evolution(rho, spectrum, t):
    """Reference evolution U(t) rho U(t)^dagger, U(t) = V exp(-i E t) V^dagger
    from the spectrum's eigenvectors V and energies E."""
    vecs = spectrum.eigenvectors
    u = (vecs * np.exp(-1j * spectrum.eigenvalues * t)) @ vecs.conj().T
    return u @ rho.matrix @ u.conj().T


def assert_probe_matches_evolution(rho, spectrum, povm, times):
    """The probe's block equals tr(M_j rho_t) from the reference evolution."""
    expected = np.array([
        [np.trace(m @ reference_evolution(rho, spectrum, t)).real for m in povm.elements]
        for t in times
    ])
    block = quantum_probe(rho, spectrum, povm).sample_many(np.asarray(times, dtype=float))
    assert np.abs(block - expected).max() < 1e-12
    return expected


def einsum_block(rho, spectrum, povm, times):
    """Reference sample block: the direct three-operand contraction."""
    rho_e = spectrum.to_energy_basis(rho.matrix)
    coeff = np.stack([rho_e * spectrum.to_energy_basis(m).T for m in povm.elements])
    u = np.exp(-1j * np.outer(times, spectrum.eigenvalues))
    p = np.einsum("jnm,tn,tm->tj", coeff, u, u.conj(), optimize=True).real
    return np.clip(p, 0.0, 1.0)


def scatter_second_moment(rho, projector, spectrum):
    """Reference second moment: the amplitudes tr(rho_ab M_ba) scattered into
    an (s, s) table with np.add.at, then summed per gap class."""
    rho_e = spectrum.to_energy_basis(rho.matrix)
    proj_e = spectrum.to_energy_basis(np.asarray(projector, dtype=complex))
    labels = spectrum.space_of_index
    block_trace = np.zeros((spectrum.eigenspace_count,) * 2, dtype=complex)
    np.add.at(block_trace, (labels[:, None], labels[None, :]), rho_e * proj_e.T)
    table = gap_table(spectrum)
    amplitude = block_trace[table.pairs[:, 0], table.pairs[:, 1]]
    per_class = np.bincount(table.class_of, weights=amplitude.real) + 1j * np.bincount(
        table.class_of, weights=amplitude.imag
    )
    return float(np.sum(np.abs(per_class) ** 2))


def kron_purify(rho):
    """Reference purification: sqrt(lambda_i) v_i (x) e_i summed one positive
    eigenvalue at a time, as a density matrix."""
    vals, vecs = np.linalg.eigh(rho.matrix)
    vals = np.clip(vals, 0.0, None)
    d = rho.dim
    psi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        if vals[i] > 0.0:
            ancilla = np.zeros(d)
            ancilla[i] = 1.0
            psi += math.sqrt(vals[i]) * np.kron(vecs[:, i], ancilla)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def paired_spectrum(dim, seed):
    """Levels 0, 0, 1, 1, 2, ... in a Haar basis: eigenspaces of size 2."""
    return HamiltonianSpectrum(np.arange(dim) // 2, haar_unitary(dim, np.random.default_rng(seed)))


def degenerate_spectrum(seed):
    """Six levels in three eigenspaces (multiplicities 2, 3, 1), Haar basis."""
    vals = [0.0, 0.0, 1.3, 1.3, 1.3, 2.9]
    return HamiltonianSpectrum(vals, haar_unitary(6, np.random.default_rng(seed)))


GAP_SPECTRA = {
    "generic": lambda: random_spectrum(12, 40),
    "ladder": lambda: random_spectrum(9, 41, kind="equally-spaced"),
    # eigenspaces with repeated levels, and gaps 0.2 and 0.25 apart
    "degenerate": lambda: HamiltonianSpectrum(
        [0.0, 0.0, 1.0, 2.0, 2.0, 2.0, 3.2, 4.45, 4.45, 6.0]
    ),
}


class TestDensityMatrix:
    def test_valid(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert rho.dim == 2
        assert rho.purity == pytest.approx(0.5)
        assert not rho.is_pure

    def test_from_vector_normalizes(self):
        rho = DensityMatrix.from_vector([3.0, 4.0])
        assert rho.is_pure
        assert np.trace(rho.matrix) == pytest.approx(1.0)

    def test_only_a_state_from_a_vector_keeps_it(self):
        rho = DensityMatrix.from_vector([3.0, 4.0j])
        assert np.abs(rho.vector - [0.6, 0.8j]).max() < 1e-15
        assert np.array_equal(rho.matrix, np.outer(rho.vector, rho.vector.conj()))
        assert not rho.vector.flags.writeable
        assert "vector" not in repr(rho)
        assert DensityMatrix(rho.matrix).vector is None
        assert random_mixed_state(3, 0).vector is None
        assert dephase(rho, QUBIT_H).vector is None

    def test_a_state_from_a_vector_forms_its_matrix_when_read(self):
        rho = DensityMatrix.from_vector([3.0, 4.0j, -1.0 + 2.0j])
        first, second = rho.matrix, rho.matrix
        # formed at each read and not kept on the state
        assert first is not second
        assert not any(np.ndim(value) == 2 for value in vars(rho).values())
        outer = np.outer(rho.vector, rho.vector.conj())
        for arr in (first, second):
            assert arr.tobytes() == outer.tobytes()
            assert not arr.flags.writeable
        assert rho.dim == 3

    def test_from_vector_at_the_largest_dimension_holds_no_matrix(self):
        # v v^H at d = 2048 is 67 MB, and it peaked at 201.5 MB being formed
        # and checked; the vector and its scaled copy are 33 kB each
        v = np.random.default_rng(0).normal(size=2048) + 0j
        assert traced_peak(lambda: DensityMatrix.from_vector(v)) < 1e6

    def test_purity_at_the_largest_dimension_forms_no_matrix(self):
        # v v^H times itself peaked at 134 MB here; |v|^4 reads the vector
        rho = random_pure_state(2048, 0)
        purity = []
        assert traced_peak(lambda: purity.append(rho.purity)) < 1e5
        assert abs(purity[0] - 1.0) <= quantum.PURITY_TOL
        assert rho.is_pure

    @pytest.mark.parametrize("d", [1, 2, 7, 40])
    def test_purity_is_the_trace_of_the_square(self, d):
        for seed in range(3):
            rho = random_mixed_state(d, seed)
            assert abs(rho.purity - np.trace(rho.matrix @ rho.matrix).real) < 1e-12
        # a mixture of a pure and a maximally mixed state, purity (1 + 3 p^2) / 4
        psi = random_pure_state(4, 9).matrix
        for p in (0.0, 0.3, 1.0):
            rho = DensityMatrix(p * psi + (1 - p) * np.eye(4) / 4)
            assert abs(rho.purity - (1 + 3 * p * p) / 4) < 1e-12
            assert rho.is_pure == (p == 1.0)

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 5e-324, 1.7e308])
    def test_from_vector_at_extreme_scales(self, scale):
        # |v| itself underflows to 0 or overflows to inf for each of these
        for v in ([scale, scale], [scale, 1j * scale]):
            rho = DensityMatrix.from_vector(v)
            expected = DensityMatrix.from_vector([1.0, v[1] / scale]).matrix
            # scaled entries round differently from 1.0 by a few ulps
            assert np.abs(rho.matrix - expected).max() <= 1e-15

    @pytest.mark.parametrize("dim", [1, 2, 7, 64, 256])
    def test_from_vector_keeps_the_bits_of_a_representable_norm(self, dim):
        # the reference is the plain v / |v|, exact wherever |v| is finite and
        # nonzero; random_pure_state draws its vector as the first draw here
        for seed in range(3):
            rng = np.random.default_rng(seed)
            vectors = [rng.normal(size=dim) + 1j * rng.normal(size=dim)]
            vectors += [scale * vectors[0] for scale in (1e-150, 3e-7, 4e12, 1e150)]
            for v in vectors:
                unit = v / np.linalg.norm(v)
                rho = DensityMatrix.from_vector(v)
                assert np.array_equal(rho.matrix, np.outer(unit, unit.conj()))
            assert np.array_equal(
                random_pure_state(dim, seed).matrix, DensityMatrix.from_vector(vectors[0]).matrix
            )

    def test_does_not_alias_its_input(self):
        arr = np.eye(2, dtype=complex) / 2
        rho = DensityMatrix(arr)
        arr[0, 0] = 0.9
        assert rho.matrix[0, 0] == 0.5
        assert not rho.matrix.flags.writeable

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        # every other check is a `> tol` comparison, which NaN passes
        with pytest.raises(DomainError, match="non-finite"):
            DensityMatrix(np.full((2, 2), bad))
        with pytest.raises(DomainError, match="non-finite"):
            DensityMatrix(np.array([[0.5, bad], [bad, 0.5]]))
        with pytest.raises(DomainError, match="non-finite"):
            DensityMatrix.from_vector([bad, 1.0])


class TestPOVM:
    def test_valid(self):
        assert SIGMA_X_POVM.outcome_count == 2
        probs = SIGMA_X_POVM.probabilities(PLUS)
        np.testing.assert_allclose(probs.probs, [1.0, 0.0], rtol=0.0, atol=1e-12)

    def test_rejects_incomplete(self):
        with pytest.raises(DomainError):
            POVM([np.eye(2) * 0.5])

    def test_rejects_non_psd(self):
        with pytest.raises(DomainError):
            POVM([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])])

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimensionError):
            POVM([np.eye(2) * 0.5, np.eye(3) * 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="element 1 has non-finite"):
            POVM([np.eye(2) * 0.5, np.array([[0.5, bad], [bad, 0.5]])])

    def test_identity_povm(self):
        povm = POVM([np.eye(3)])
        assert povm.probabilities(DensityMatrix(np.eye(3) / 3)) == OutcomeDistribution([1.0])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SIGMA_X_POVM,
            lambda: random_povm(5, 3, 1),
            lambda: projective_povm(5, 2, 1),
            lambda: uneven_povm(5, 3, 0.2, 1),
            lambda: extend_povm(SIGMA_X_POVM, 2),
        ],
        ids=["public", "random", "projective", "uneven", "extended"],
    )
    def test_elements_are_one_read_only_stack(self, build):
        povm = build()
        n, d = povm.outcome_count, povm.dim
        assert isinstance(povm.elements, np.ndarray)
        assert povm.elements.shape == (n, d, d) and povm.elements.dtype == complex
        assert len(povm.elements) == n and len(list(povm.elements)) == n
        assert np.array_equal(povm.elements[n - 1], list(povm.elements)[-1])
        assert not povm.elements.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            povm.elements[0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            povm.elements[n - 1] += 1.0

    def test_does_not_alias_its_input(self):
        arrays = [np.eye(2, dtype=complex) * 0.25, np.eye(2, dtype=complex) * 0.75]
        povm = POVM(arrays)
        arrays[0][0, 0] = 9.0
        assert np.array_equal(povm.elements, [np.eye(2) * 0.25, np.eye(2) * 0.75])
        # a stack passed whole is copied too
        stack = np.array(arrays)
        stack[0, 0, 0] = 0.25
        povm = POVM(stack)
        stack[1] = 0.0
        assert np.array_equal(povm.elements, [np.eye(2) * 0.25, np.eye(2) * 0.75])


# every quantum constructor, given strings, booleans or None where numbers belong
NOT_NUMBERS = [
    (HamiltonianSpectrum, ["0", "1"]),
    (HamiltonianSpectrum, [False, True]),
    (HamiltonianSpectrum, [0.0, True]),
    (lambda v: HamiltonianSpectrum([0.0, 1.0], v), [["1", "0"], ["0", "1"]]),
    (lambda v: HamiltonianSpectrum([0.0, 1.0], v), [[True, 0.0], [0.0, 1.0]]),
    (HamiltonianSpectrum.from_matrix, [["0", "0"], ["0", "1"]]),
    (DensityMatrix.from_vector, ["1", "0"]),
    (DensityMatrix.from_vector, [True, False]),
    (DensityMatrix.from_vector, [1.0, None]),
    (DensityMatrix, [["1", "0"], ["0", "0"]]),
    (DensityMatrix, [[True, False], [False, False]]),
    (lambda v: POVM([v, np.diag([0.0, 1.0])]), [[1.0, 0.0], [0.0, False]]),
]


@pytest.mark.parametrize("build, values", NOT_NUMBERS)
def test_constructors_refuse_strings_and_booleans(build, values):
    with pytest.raises(DomainError, match="must be numbers"):
        build(values)


@pytest.mark.parametrize("build, values, name", [
    (HamiltonianSpectrum, [[0, 1], [2, 3]], "eigenvalues"),
    (DensityMatrix.from_vector, [[1, 0], [0, 1]], "a state vector"),
])
def test_vector_constructors_refuse_nesting(build, values, name):
    # each used to flatten the list into a 4-vector
    with pytest.raises(DomainError, match=rf"^{name} must be .*1-d.*, got shape \(2, 2\)$"):
        build(values)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: DensityMatrix(np.ones((2, 3)) / 3), DimensionError,
                 "a density matrix must be a square matrix, got shape (2, 3)", id="non-square"),
    pytest.param(lambda: DensityMatrix.from_vector([0.0, -0.0]), DomainError,
                 "cannot build a state from the zero vector", id="zero-vector"),
    pytest.param(lambda: POVM([]), DomainError, "a measurement needs at least one element",
                 id="no-elements"),
    pytest.param(lambda: SIGMA_X_POVM.probabilities(random_pure_state(3, 0)), DimensionError,
                 "state is 3-d, measurement is 2-d", id="probabilities-dimension"),
    pytest.param(lambda: dephase(random_pure_state(3, 0), QUBIT_H), DimensionError,
                 "state is 3-d, spectrum is 2-d", id="dephase-dimension"),
    pytest.param(lambda: eigenspace_weights(random_pure_state(3, 0), QUBIT_H), DimensionError,
                 "state is 3-d, spectrum is 2-d", id="weights-dimension"),
    pytest.param(lambda: HamiltonianSpectrum([0.0, 1.0], np.eye(3)), DimensionError,
                 "eigenvector matrix does not match the eigenvalues", id="eigenvector-size"),
    pytest.param(lambda: max_outcomes_for_equilibration(0.5, 2.0, 0), DomainError,
                 "gap_degeneracy must be an integer >= 1, got 0", id="gap-degeneracy"),
    pytest.param(lambda: partial_trace_ancilla(random_pure_state(3, 0), 2), DimensionError,
                 "cannot split dimension 3 as system 2 x ancilla", id="indivisible"),
])
def test_each_refusal_names_its_fault(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestHamiltonianSpectrum:
    def test_requires_ascending(self):
        with pytest.raises(DomainError):
            HamiltonianSpectrum([1.0, 0.0])

    def test_requires_unitary(self):
        with pytest.raises(DomainError):
            HamiltonianSpectrum([0.0, 1.0], np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="eigenvector matrix has non-finite"):
            HamiltonianSpectrum([0.0, 1.0], np.array([[1.0, 0.0], [0.0, bad]]))
        with pytest.raises(DomainError, match="Hamiltonian has non-finite"):
            HamiltonianSpectrum.from_matrix(np.array([[0.0, bad], [bad, 1.0]]))

    def test_eigenspace_grouping(self):
        spec = HamiltonianSpectrum([0.0, 0.0, 1.0, 2.0])
        assert spec.space_of_index.tolist() == [0, 0, 1, 2]
        assert spec.eigenspace_count == 3

    def test_fully_degenerate(self):
        spec = HamiltonianSpectrum([2.0, 2.0, 2.0])
        assert spec.space_of_index.tolist() == [0, 0, 0]
        assert spec.minimum_gap() == 0.0

    @pytest.mark.parametrize(
        "values",
        [[0.0, 0.0, 1.0, 2.0], [2.0, 2.0, 2.0], [1.5]]
        + [planted_clusters(np.random.default_rng(seed)) for seed in range(20)],
        ids=["levels", "degenerate", "single"] + [f"planted{seed}" for seed in range(20)],
    )
    def test_labels_match_the_loop(self, values):
        d = len(values)
        rng = np.random.default_rng(d)
        spec = HamiltonianSpectrum(values, haar_unitary(d, rng))
        rho = random_mixed_state(d, d + 1)
        groups = loop_eigenspaces(np.asarray(values))
        expected = np.empty(d, dtype=np.int64)
        for s, group in enumerate(groups):
            expected[group] = s
        assert spec.space_of_index.tolist() == expected.tolist()
        assert spec.eigenspace_count == len(groups)
        diag = np.real(np.diag(spec.to_energy_basis(rho.matrix)))
        np.testing.assert_allclose(
            spec.eigenspace_energies, [spec.eigenvalues[g].mean() for g in groups],
            rtol=1e-15, atol=0)
        np.testing.assert_allclose(
            eigenspace_weights(rho, spec), [diag[g].sum() for g in groups],
            rtol=1e-15, atol=0)

    def test_labels_are_read_only(self):
        with pytest.raises(ValueError):
            HamiltonianSpectrum([0.0, 1.0]).space_of_index[0] = 1

    def test_ambiguous_chain(self):
        # each neighbour is within the 1e-9 tolerance, the chain is not
        with pytest.raises(DomainError, match="ambiguous"):
            HamiltonianSpectrum([0.0, 7e-10, 1.4e-9, 1.0])
        spec = HamiltonianSpectrum([0.0, 7e-10, 1.0])
        assert spec.space_of_index.tolist() == [0, 0, 1]

    def test_from_matrix(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = 0.5 * (g + g.conj().T)
        spec = HamiltonianSpectrum.from_matrix(h)
        rebuilt = spec.from_energy_basis(np.diag(spec.eigenvalues).astype(complex))
        assert np.abs(rebuilt - h).max() < 1e-10


class TestEvolveDensity:
    """``quantum_probe`` against a plain-numpy oracle: rho_t = U(t) rho U(t)^dagger,
    then tr(M_j rho_t)."""

    def test_time_zero(self):
        assert np.abs(reference_evolution(PLUS, QUBIT_H, 0.0) - PLUS.matrix).max() < 1e-15
        probs = assert_probe_matches_evolution(PLUS, QUBIT_H, SIGMA_X_POVM, [0.0])
        assert np.abs(probs - [1.0, 0.0]).max() < 1e-12

    def test_eigenstate_stationary(self):
        ground = DensityMatrix(np.diag([1.0, 0.0]))
        assert np.abs(reference_evolution(ground, QUBIT_H, 17.3) - ground.matrix).max() < 1e-12
        probs = assert_probe_matches_evolution(ground, QUBIT_H, SIGMA_X_POVM, [0.0, 17.3])
        assert np.abs(probs - 0.5).max() < 1e-12

    def test_plus_to_minus_at_pi(self):
        assert np.abs(reference_evolution(PLUS, QUBIT_H, math.pi) - MINUS.matrix).max() < 1e-12
        probs = assert_probe_matches_evolution(PLUS, QUBIT_H, SIGMA_X_POVM, [math.pi])
        assert np.abs(probs - [0.0, 1.0]).max() < 1e-12

    def test_unitary_invariants(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            d = int(rng.integers(2, 7))
            rho = random_mixed_state(d, seed)
            spec = random_spectrum(d, seed + 50)
            times = rng.uniform(0, 20, size=4)
            out = reference_evolution(rho, spec, float(times[0]))
            assert abs(np.trace(out) - 1.0) < 1e-9
            assert np.abs(out - out.conj().T).max() < 1e-9
            assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho.matrix), atol=1e-9)
            assert_probe_matches_evolution(rho, spec, random_povm(d, 3, seed + 90), times)

    def test_large_times(self):
        # an auto horizon grows as 1 / (minimum gap), so phases E t can reach 1e10
        rng = np.random.default_rng(8)
        spec = random_spectrum(10, 81)
        times = np.concatenate([np.geomspace(1.0, 1e9, 10), rng.uniform(1e8, 1e9, size=6)])
        assert np.outer(times, spec.eigenvalues).max() > 5e9
        assert_probe_matches_evolution(
            random_mixed_state(10, 82), spec, random_povm(10, 4, 83), times
        )

    def test_phases_at_odd_multiples_of_pi(self):
        # E_n t = (2k + 1) pi puts tan(E_n t / 2) at a pole of the phase
        # formula, up to the rounding of pi
        spec = HamiltonianSpectrum([0.0, 0.7, 1.0, 2.3], haar_unitary(4, np.random.default_rng(9)))
        odd = np.array([1.0, 3.0, 5.0, 101.0, 100_001.0])
        times = np.concatenate([odd * math.pi / e for e in spec.eigenvalues[1:]])
        assert_probe_matches_evolution(
            random_pure_state(4, 91), spec, random_povm(4, 3, 92), times
        )

    def test_sampled_block_starts_at_the_initial_statistics(self):
        rho = random_mixed_state(6, 93)
        spec = random_spectrum(6, 94)
        povm = random_povm(6, 4, 95)
        times = sample_times(TimeAverageConfig(horizon=40.0, samples=64, scheme="uniform-grid"))
        assert times[0] == 0.0
        block = assert_probe_matches_evolution(rho, spec, povm, times)
        assert np.abs(block[0] - povm.probabilities(rho).probs).max() < 1e-12


class TestDephase:
    def test_diagonal_nondegenerate_unchanged(self):
        rho = DensityMatrix(np.diag([0.2, 0.3, 0.5]))
        spec = HamiltonianSpectrum([0.0, 1.0, 2.5])
        assert np.abs(dephase(rho, spec).matrix - rho.matrix).max() < 1e-14

    def test_plus_dephases_to_mixed(self):
        out = dephase(PLUS, QUBIT_H)
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-14

    def test_fully_degenerate_identity(self):
        spec = HamiltonianSpectrum([1.0, 1.0])
        assert np.abs(dephase(PLUS, spec).matrix - PLUS.matrix).max() < 1e-14

    def test_idempotent_and_positive(self):
        rho = random_mixed_state(5, 3)
        spec = random_spectrum(5, 4)
        once = dephase(rho, spec)
        twice = dephase(once, spec)
        assert np.abs(once.matrix - twice.matrix).max() < 1e-12
        assert np.linalg.eigvalsh(once.matrix).min() > -1e-10

    def test_long_time_average_matches_dephasing(self):
        # the empirical equilibrium distribution converges to the dephased
        # state's statistics
        rho = random_pure_state(6, 9)
        spec = random_spectrum(6, 10)
        povm = random_povm(6, 3, 11)
        probe = quantum_probe(rho, spec, povm)
        cfg = default_average_config(spec, samples=4000, seed=12)
        omega_hat = time_average_distribution(probe, cfg)
        omega_true = povm.probabilities(dephase(rho, spec))
        block = probe.distributions_at(sample_times(cfg))
        stderr = block.std(axis=0, ddof=1) / math.sqrt(cfg.samples)
        assert np.all(
            np.abs(omega_hat.probs - omega_true.probs) <= 3.0 * stderr + 1e-12
        )


class TestEffectiveDimension:
    def test_eigenstate(self):
        ground = DensityMatrix(np.diag([1.0, 0.0]))
        assert effective_dimension(ground, QUBIT_H) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        d = 5
        rho = DensityMatrix(np.eye(d) / d)
        spec = HamiltonianSpectrum(np.arange(d, dtype=float))
        assert effective_dimension(rho, spec) == pytest.approx(d)

    def test_plus_state(self):
        assert effective_dimension(PLUS, QUBIT_H) == pytest.approx(2.0)

    def test_eigenstates_of_haar_spectra(self):
        # rounded eigenspace weights can put 1/sum(w^2) a hair below 1, the
        # domain edge of the spectral bound; the result is clamped there
        below = 0
        for d in range(2, 9):
            for seed in range(5):
                spec = random_spectrum(d, seed)
                for k in range(d):
                    eigenstate = DensityMatrix.from_vector(spec.eigenvectors[:, k])
                    weights = eigenspace_weights(eigenstate, spec)
                    below += 1.0 / np.sum(weights**2) < 1.0
                    d_eff = effective_dimension(eigenstate, spec)
                    assert 1.0 <= d_eff <= 1.0 + 1e-12
                    assert equilibration_bound(2, 1, d_eff) == pytest.approx(0.5)
        assert below > 0

    def test_weights_sum_to_one(self):
        rho = random_mixed_state(6, 2)
        spec = random_spectrum(6, 3)
        assert eigenspace_weights(rho, spec).sum() == pytest.approx(1.0, abs=1e-12)

    def test_one_product_matches_the_full_basis_change(self):
        # the reference reads the diagonal of the whole V^H rho V
        def two_products(rho, spec):
            diag = np.real(np.diag(spec.to_energy_basis(rho.matrix)))
            weights = np.bincount(spec.space_of_index, weights=diag)
            return max(1.0, 1.0 / float(np.sum(weights**2)))

        spectra = [QUBIT_H, degenerate_spectrum(3), paired_spectrum(8, 4)]
        spectra += [make() for make in GAP_SPECTRA.values()]
        spectra += [random_spectrum(d, d) for d in (1, 2, 5, 32, 64)]
        spectra += [extend_hamiltonian(random_spectrum(4, 5), 3)]
        for spec in spectra:
            d = spec.dim
            states = [random_pure_state(d, d + 1), random_mixed_state(d, d + 2)]
            states += [DensityMatrix(np.eye(d) / d)]
            states += [DensityMatrix.from_vector(spec.eigenvectors[:, k]) for k in (0, d - 1)]
            for rho in states:
                expected = two_products(rho, spec)
                assert effective_dimension(rho, spec) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec", [
        random_spectrum(1, 1), random_spectrum(2, 2), degenerate_spectrum(3),
        random_spectrum(64, 64),
    ], ids=["d1", "d2", "degenerate", "d64"])
    def test_a_kept_vector_gives_the_matrix_weights(self, spec):
        # a state from its vector reads |psi^H V|^2; the same matrix without
        # the vector reads the diagonal of V^H rho V
        for seed in range(4):
            pure = random_pure_state(spec.dim, seed)
            by_matrix = DensityMatrix(pure.matrix)
            assert pure.vector is not None and by_matrix.vector is None
            np.testing.assert_allclose(
                eigenspace_weights(pure, spec), eigenspace_weights(by_matrix, spec),
                rtol=0, atol=1e-12)
            assert effective_dimension(pure, spec) == pytest.approx(
                effective_dimension(by_matrix, spec), rel=1e-12, abs=0)


class TestGapDegeneracy:
    def test_generic_spectrum_vs_brute_force(self):
        for seed in range(5):
            spec = random_spectrum(6, seed)
            tol = GAP_REL_TOL * spec.spectral_range
            expected = brute_force_gap_degeneracy(spec.eigenspace_energies, tol)
            assert max_gap_degeneracy(spec) == expected == 1

    def test_ladder(self):
        spec = HamiltonianSpectrum([0.0, 1.0, 2.0, 3.0])
        assert max_gap_degeneracy(spec) == 3
        assert brute_force_gap_degeneracy(spec.eigenspace_energies, 1e-9) == 3

    def test_two_levels(self):
        assert max_gap_degeneracy(QUBIT_H) == 1

    @pytest.mark.parametrize("delta, expected", [(1e-8, 1), (1e-10, 2)])
    def test_default_tolerance_is_a_billionth_of_the_range(self, delta, expected):
        # the gaps 1 and 1 + 2 delta differ by delta times the spectral range
        # 2 + 2 delta, so a default tolerance of 1e-9 of the range parts them
        # at delta 1e-8 and joins them at 1e-10
        spec = HamiltonianSpectrum([0.0, 1.0, 2.0 + 2.0 * delta])
        assert max_gap_degeneracy(spec) == expected

    def test_single_eigenspace_convention(self):
        assert max_gap_degeneracy(HamiltonianSpectrum([1.0, 1.0])) == 1

    def test_degenerate_levels_count_once(self):
        # eigenspaces at 0 and 1; one gap either way regardless of multiplicity
        spec = HamiltonianSpectrum([0.0, 0.0, 1.0, 1.0, 1.0])
        assert max_gap_degeneracy(spec) == 1

    def test_antisymmetry_and_monotonicity(self):
        spec = HamiltonianSpectrum([0.0, 1.0, 2.0, 3.5])
        table = gap_table(spec)
        lookup = {tuple(pair): table.values[k] for k, pair in enumerate(table.pairs.tolist())}
        for (n, j), value in lookup.items():
            assert lookup[(j, n)] == -value
        assert max_gap_degeneracy(spec, 1e-12) <= max_gap_degeneracy(spec, 1.0)


class TestGapTable:
    @pytest.mark.parametrize("gap_tol", [None, 0.0, 0.3], ids=["default", "zero", "0.3"])
    @pytest.mark.parametrize("kind", sorted(GAP_SPECTRA))
    def test_equals_tuple_table(self, kind, gap_tol):
        spec = GAP_SPECTRA[kind]()
        pairs, values, classes = tuple_gap_table(spec, gap_tol)
        table = gap_table(spec, gap_tol)
        assert table.pairs.shape == (len(pairs), 2)
        assert [tuple(p) for p in table.pairs.tolist()] == pairs
        assert np.array_equal(table.values, values)
        expected = np.empty(len(pairs), dtype=np.int64)
        for c, cls in enumerate(classes):
            expected[cls] = c
        assert np.array_equal(table.class_of, expected)
        assert table.max_degeneracy == max(len(c) for c in classes)
        assert max_gap_degeneracy(spec, gap_tol) == max(len(c) for c in classes)

    def test_single_eigenspace_is_empty(self):
        table = gap_table(HamiltonianSpectrum([2.0, 2.0, 2.0]))
        assert table.pairs.shape == (0, 2)
        assert table.values.size == 0 and table.class_of.size == 0
        assert table.max_degeneracy == 1

    @pytest.mark.parametrize("gap_tol", [None, 0.0, 0.3], ids=["default", "zero", "0.3"])
    @pytest.mark.parametrize("kind", sorted(GAP_SPECTRA))
    def test_sensitivity_equals_three_tables(self, kind, gap_tol):
        spec = GAP_SPECTRA[kind]()
        table = gap_table(spec, gap_tol)
        assert gap_degeneracy_sensitivity(table) == {
            f: max_gap_degeneracy(spec, f * table.tolerance) for f in (0.1, 1.0, 10.0)
        }

    def test_single_eigenspace_sensitivity(self):
        table = gap_table(HamiltonianSpectrum([2.0, 2.0, 2.0]))
        assert gap_degeneracy_sensitivity(table) == {0.1: 1, 1.0: 1, 10.0: 1}

    @pytest.mark.parametrize("gap_tol", [math.nan, math.inf, -1e-12])
    def test_a_bad_tolerance_is_refused(self, gap_tol):
        # a NaN tolerance used to put every gap in one class: D_G 6, not 1
        with pytest.raises(DomainError, match=r"^gap_tol must be a finite number >= 0\.0, got "):
            gap_table(HamiltonianSpectrum([0.0, 1.0, 3.0]), gap_tol)
        assert gap_table(HamiltonianSpectrum([0.0, 1.0, 3.0])).max_degeneracy == 1

    def test_arrays_are_read_only(self):
        table = gap_table(GAP_SPECTRA["ladder"]())
        for arr in (table.pairs, table.values, table.class_of):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestBounds:
    def test_single_outcome_is_zero(self):
        assert equilibration_bound(1, 1, 10.0) == 0.0

    def test_values(self):
        assert equilibration_bound(2, 1, 2.0) == pytest.approx(
            0.5 * math.sqrt(0.5), abs=1e-15
        )
        assert equilibration_bound(5, 1, 100.0) == pytest.approx(0.1, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            equilibration_bound(0, 1, 1.0)
        with pytest.raises(DomainError):
            equilibration_bound(2, 0, 1.0)
        with pytest.raises(DomainError):
            equilibration_bound(2, 1, 0.5)

    @pytest.mark.parametrize(
        "eps,deff,dg,expected",
        [(0.0, 10.0, 1, 1), (0.1, 100.0, 1, 5), (0.5, 2.0, 1, 3)],
    )
    def test_max_outcomes(self, eps, deff, dg, expected):
        assert max_outcomes_for_equilibration(eps, deff, dg) == expected

    def test_max_outcomes_domain(self):
        with pytest.raises(DomainError):
            max_outcomes_for_equilibration(1.0, 2.0, 1)

    @pytest.mark.parametrize("d_eff", [math.nan, math.inf, -math.inf])
    def test_non_finite_effective_dimension(self, d_eff):
        # a NaN passes a `< 1` check; an infinite one overflowed the floor
        with pytest.raises(DomainError, match="finite"):
            equilibration_bound(2, 1, d_eff)
        with pytest.raises(DomainError, match="finite"):
            max_outcomes_for_equilibration(0.5, d_eff, 1)

    @pytest.mark.parametrize("eps,deff", [(0.9, 1e308), (0.99, 5e307)])
    def test_max_outcomes_beyond_the_float_range(self, eps, deff):
        # 4 d_eff eps^2 is inf for a finite d_eff, which the floor cannot take
        with pytest.raises(DomainError, match="exceeds the largest float"):
            max_outcomes_for_equilibration(eps, deff, 1)

    def test_max_outcomes_near_the_float_range(self):
        value = max_outcomes_for_equilibration(0.9, 4e307, 2)
        assert value == int(4.0 * 4e307 * 0.9 * 0.9 / 2 + 1.0)


class TestQuantumProbe:
    def test_stationary_state_constant(self):
        ground = DensityMatrix(np.diag([1.0, 0.0]))
        probe = quantum_probe(ground, QUBIT_H, SIGMA_X_POVM)
        a, b = probe.distributions_at([0.0, 13.7])
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)

    def test_qubit_analytic(self):
        probe = quantum_probe(PLUS, QUBIT_H, SIGMA_X_POVM)
        for t in np.linspace(0.0, 12.0, 25):
            expected = [(1 + math.cos(t)) / 2, (1 - math.cos(t)) / 2]
            assert np.allclose(probe.distributions_at([t])[0], expected, rtol=0.0, atol=1e-12)

    def test_identity_povm_constant_one(self):
        probe = quantum_probe(PLUS, QUBIT_H, POVM([np.eye(2)]))
        assert np.allclose(probe.distributions_at([3.2])[0], [1.0], rtol=0.0, atol=1e-12)

    def test_sample_zero_is_initial_statistics(self):
        rho = random_mixed_state(5, 8)
        spec = random_spectrum(5, 9)
        povm = random_povm(5, 3, 10)
        probe = quantum_probe(rho, spec, povm)
        first = OutcomeDistribution(probe.distributions_at([0.0])[0])
        np.testing.assert_allclose(first.probs, povm.probabilities(rho).probs, rtol=0.0, atol=1e-12)

    def test_scalar_vector_agree(self):
        rho = random_mixed_state(4, 1)
        spec = random_spectrum(4, 2)
        povm = random_povm(4, 3, 3)
        probe = quantum_probe(rho, spec, povm)
        times = np.linspace(0.0, 40.0, 17)
        block = probe.distributions_at(times)
        for k, t in enumerate(times):
            row = probe.distributions_at([t])[0]
            assert np.allclose(row, block[k], rtol=0.0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            quantum_probe(PLUS, random_spectrum(3, 0), SIGMA_X_POVM)
        # pure states from a vector, which build no tensor, name all three
        with pytest.raises(DimensionError, match="state 2, spectrum 3, measurement 3"):
            quantum_probe(PLUS, random_spectrum(3, 0), random_povm(3, 2, 1))
        with pytest.raises(DimensionError, match="state 3, spectrum 3, measurement 2"):
            quantum_probe(random_pure_state(3, 0), random_spectrum(3, 0), SIGMA_X_POVM)

    @pytest.mark.parametrize("offset", [2.0**10, 2.0**20, 2.0**30, -(2.0**30)])
    def test_energy_offset_is_a_global_phase(self, offset):
        # levels on a 2^-20 grid stay exact under these shifts, so only the
        # offset itself could move the block
        rng = np.random.default_rng(31)
        levels = np.sort(rng.integers(0, 2**22, 8)) * 2.0**-20
        vecs = haar_unitary(8, rng)
        rho, povm = random_mixed_state(8, 32), random_povm(8, 3, 33)
        times = rng.uniform(0.0, 500.0, 300)
        block = quantum_probe(rho, HamiltonianSpectrum(levels, vecs), povm).sample_many(times)
        shifted = HamiltonianSpectrum(levels + offset, vecs)
        assert np.array_equal(shifted.eigenvalues - offset, levels)
        moved = quantum_probe(rho, shifted, povm).sample_many(times)
        assert np.abs(moved - block).max() < 1e-10

    @pytest.mark.parametrize(
        "d, n_out, kind, spacing, mixed, projective, samples",
        [
            (5, 3, "generic", None, False, False, 300),
            (6, 2, "equally-spaced", 1.0, True, True, 300),
            (6, 3, "degenerate", None, False, True, 300),
            (6, 4, "degenerate", None, True, False, 300),
            (8, 3, "equally-spaced", 1.0, False, False, 3000),
            # chunk is 65,536 // (8 * 64) = 128; 1000 is not a multiple of it
            (64, 8, "generic", None, True, False, 1000),
            # ladders, which take the polynomial block
            (4, 2, "equally-spaced", 0.1, False, False, 300),
            (7, 3, "equally-spaced", 0.3, True, True, 300),
            (12, 4, "equally-spaced", 1e-3, True, False, 300),
            (9, 5, "equally-spaced", 7.0, False, True, 300),
            # more outcomes than powers: chunk is 65,536 // 4
            (2, 4, "equally-spaced", 0.3, True, False, 300),
            (10, 3, "offset-ladder", 0.25, True, False, 300),
            (10, 4, "offset-ladder", 0.25, False, True, 300),
            (32, 5, "equally-spaced", 0.3, True, True, 1000),
            # chunk is 65,536 // 31 = 2114, so the second chunk is short
            (32, 8, "equally-spaced", 1.0, False, False, 3000),
        ],
    )
    def test_block_equals_einsum(self, d, n_out, kind, spacing, mixed, projective, samples):
        seed = 7 * d + n_out
        if kind == "degenerate":
            spec = degenerate_spectrum(seed)
        elif kind == "offset-ladder":
            # E_0 = 5: on a dyadic step the levels stay an exact ladder
            levels = 5.0 + spacing * np.arange(d)
            spec = HamiltonianSpectrum(levels, haar_unitary(d, np.random.default_rng(seed)))
        elif kind == "equally-spaced":
            spec = random_spectrum(d, seed, kind=kind, spacing=spacing)
        else:
            spec = random_spectrum(d, seed, kind=kind)
        rho = (random_mixed_state if mixed else random_pure_state)(d, seed + 1)
        povm = (projective_povm if projective else random_povm)(d, n_out, seed + 2)
        times = np.random.default_rng(seed + 3).uniform(0.0, 500.0, samples)
        block = quantum_probe(rho, spec, povm).sample_many(times)
        assert block.shape == (samples, n_out)
        assert np.abs(block - einsum_block(rho, spec, povm, times)).max() < 1e-12

    def test_ladders_take_the_polynomial_block(self, monkeypatch):
        steps = []
        polynomial = quantum._polynomial_block

        def spy(coeff, step):
            steps.append(step)
            return polynomial(coeff, step)

        monkeypatch.setattr(quantum, "_polynomial_block", spy)
        rng = np.random.default_rng(47)
        times = rng.uniform(0.0, 500.0, 200)

        def matches_einsum(spec):
            d = spec.dim
            rho, povm = random_mixed_state(d, 48), random_povm(d, 3, 49)
            block = quantum_probe(rho, spec, povm).sample_many(times)
            return np.abs(block - einsum_block(rho, spec, povm, times)).max() < 1e-12

        # the sampler's spacing * arange(d) is an exact ladder at any spacing
        for spacing in (0.1, 0.3, 1e-3, 7.0, 1.0 / 3.0, 2.0**-30):
            for d in (2, 3, 17, 32):
                steps.clear()
                spec = random_spectrum(d, d, kind="equally-spaced", spacing=spacing)
                assert matches_einsum(spec)
                assert steps == [spacing]
        vecs = haar_unitary(6, rng)
        steps.clear()
        assert matches_einsum(HamiltonianSpectrum(5.0 + 0.25 * np.arange(6), vecs))
        assert steps == [0.25]
        # [0.1, 0.2, 0.3] is no ladder in float64: 0.3 - 0.1 != 2 * (0.2 - 0.1)
        for levels in ([0.0, 1.0, 3.0], [0.1, 0.2, 0.3], [0.0, 0.0, 1.0], [0.7], [2.0] * 3):
            steps.clear()
            d = len(levels)
            assert matches_einsum(HamiltonianSpectrum(levels, haar_unitary(d, rng)))
            assert steps == []

    @pytest.mark.parametrize("n_out", [1, 4, 8])
    @pytest.mark.parametrize("d", [2, 3, 5, 16, 33, 64])
    def test_ladder_coefficients_are_the_label_bincount(self, d, n_out):
        # the label-difference bincount that the row sums replaced, kept as
        # their oracle: bin (n - m + d - 1) * N + j of the real and the
        # imaginary parts, each bin adding its terms in increasing n
        rho = (random_mixed_state if d % 2 else random_pure_state)(d, d + 1)
        spec = random_spectrum(d, d, kind="equally-spaced", spacing=0.3)
        coeff = _energy_coefficients(rho, spec, random_povm(d, n_out, d + 2).elements)
        n, j, m = np.ogrid[:d, :n_out, :d]
        label = ((n - m + d - 1) * n_out + j).ravel()
        bins = (2 * d - 1) * n_out
        c = np.bincount(label, coeff.real.ravel(), bins) + 1j * np.bincount(
            label, coeff.imag.ravel(), bins
        )
        c = c.reshape(2 * d - 1, n_out)
        # the block holds c_0 and a_q = c_q + conj(c_-q) in its closure
        block = quantum._polynomial_block(coeff, 0.3)
        held = {name: cell.cell_contents
                for name, cell in zip(block.__code__.co_freevars, block.__closure__)}
        assert held["c0"].tobytes() == c[d - 1].real.tobytes()
        assert held["a"].tobytes() == (c[d:] + c[d - 2 :: -1].conj()).T.tobytes()

    def test_ladder_offset_drops_out(self):
        # the polynomial block sees only the step, so E_0 moves no bit
        rng = np.random.default_rng(53)
        vecs = haar_unitary(9, rng)
        rho, povm = random_pure_state(9, 54), projective_povm(9, 3, 55)
        times = rng.uniform(0.0, 500.0, 300)
        blocks = [
            quantum_probe(rho, HamiltonianSpectrum(origin + 0.125 * np.arange(9), vecs), povm)
            .sample_many(times)
            for origin in (0.0, 5.0, -(2.0**30))
        ]
        assert np.array_equal(blocks[0], blocks[1])
        assert np.array_equal(blocks[0], blocks[2])

    def test_block_memory_is_bounded(self):
        # the (M, N*d) GEMM intermediate is chunked at 1 MB; unchunked it
        # would be 3000 * 8 * 64 complex entries, about 25 MB
        d, n_out = 64, 8
        probe = quantum_probe(
            random_pure_state(d, 1), random_spectrum(d, 2), random_povm(d, n_out, 3)
        )
        times = np.linspace(0.0, 300.0, 3000)
        assert traced_peak(lambda: probe.sample_many(times)) < 4e6

    def test_build_memory_at_d_256(self):
        # a pure state from its vector builds no tensor here (9 kB measured);
        # TestPureRoute bounds the tensor where it is built
        rho, spec, povm = random_pure_state(256, 1), random_spectrum(256, 2), random_povm(256, 4, 3)
        assert traced_peak(lambda: quantum_probe(rho, spec, povm)) < 8.4e6


def tensors_built(monkeypatch) -> list:
    """Spy on ``quantum._energy_coefficients``: one entry per tensor built."""
    built = []
    energy_coefficients = quantum._energy_coefficients

    def spy(*args):
        built.append(args)
        return energy_coefficients(*args)

    monkeypatch.setattr(quantum, "_energy_coefficients", spy)
    return built


def matrices_formed(monkeypatch) -> list:
    """Spy on ``DensityMatrix.matrix``: one entry per matrix formed from a
    state's vector."""
    formed = []
    read = DensityMatrix.matrix

    def spy(rho):
        if rho.vector is not None:
            formed.append(rho)
        return read.fget(rho)

    monkeypatch.setattr(DensityMatrix, "matrix", property(spy))
    return formed


def seven_pass_block(rho, spectrum, povm, times):
    """The coefficient tensor's bilinear block as written before the
    pure-state route, kept as the oracle of its bits: phase rows 2r - 1 and
    -2 tau r from r = 1 / (1 + tau^2), then per chunk of times one GEMM and
    the real-view contraction."""
    coeff = _energy_coefficients(rho, spectrum, povm.elements)
    d, n_out = coeff.shape[:2]
    flat = coeff.reshape(d, n_out * d)
    low, high = spectrum.eigenvalues[0], spectrum.eigenvalues[-1]
    within_two = 0.0 < low and high <= 2.0 * low or high < 0.0 and 2.0 * high <= low
    half = 0.5 * (spectrum.eigenvalues - (low if within_two else 0.0))
    chunk = max(1, core._CHUNK_ENTRIES // (n_out * d))
    out = np.empty((times.size, n_out))
    for start in range(0, times.size, chunk):
        tau = np.tan(times[start : start + chunk, None] * half)
        r = 1.0 / (tau * tau + 1.0)
        u = np.empty(tau.shape, dtype=complex)
        u.real = r * 2.0 - 1.0
        u.imag = (tau * r) * -2.0
        x = u @ flat
        out[start : start + len(u)] = np.einsum(
            "tjm,tm->tj", x.view(float).reshape(len(u), n_out, 2 * d), u.view(float))
    return np.clip(out, 0.0, 1.0)


class TestPureRoute:
    """The first block that needs the coefficient tensor builds it: any
    block on a ladder or of a state without a vector. A state built from its
    vector, on a spectrum that is no ladder, samples a block of
    M < 2 (N + 1) d times by rotating its vector and builds the tensor in
    its first longer block."""

    @pytest.mark.parametrize("d, n_out", [(8, 3), (64, 2)])
    def test_both_sides_of_the_threshold_match_the_evolution(self, monkeypatch, d, n_out):
        rho, spec = random_pure_state(d, d), random_spectrum(d, d + 1)
        povm = random_povm(d, n_out, d + 2)
        long_block = 2 * (n_out + 1) * d
        times = np.random.default_rng(d).uniform(0.0, 500.0, long_block)
        built = tensors_built(monkeypatch)
        tensor = quantum_probe(DensityMatrix(rho.matrix), spec, povm)
        # a state without a vector builds its tensor in its first block, of any length
        assert not built
        tensor.sample_many(times[:1])
        assert len(built) == 1
        for m, tensors in ((long_block - 1, 1), (long_block, 2)):
            rows = assert_probe_matches_evolution(rho, spec, povm, times[:m])
            assert len(built) == tensors
            assert np.abs(rows - tensor.sample_many(times[:m])).max() < 1e-12
        rotated = quantum_probe(rho, spec, povm).sample_many(times[:-1])
        assert np.abs(rotated - tensor.sample_many(times[:-1])).max() < 1e-12
        assert len(built) == 2

    def test_a_probe_sampled_below_then_above_keeps_its_rows(self, monkeypatch):
        d, n_out = 16, 3
        rho, spec, povm = random_pure_state(d, 1), random_spectrum(d, 2), random_povm(d, n_out, 3)
        times = np.random.default_rng(4).uniform(0.0, 500.0, 2 * (n_out + 1) * d)
        built = tensors_built(monkeypatch)
        probe = quantum_probe(rho, spec, povm)
        short = probe.sample_many(times[:40])
        assert not built
        full = probe.sample_many(times)
        again = probe.sample_many(times[:40])
        # the first long block built the tensor, which samples every later block
        assert len(built) == 1
        assert np.abs(full[:40] - short).max() < 1e-12
        assert np.abs(again - short).max() < 1e-12
        tensor = quantum_probe(DensityMatrix(rho.matrix), spec, povm)
        assert np.array_equal(again, tensor.sample_many(times[:40]))
        assert np.array_equal(full, tensor.sample_many(times))

    @pytest.mark.parametrize("state", ["mixed", "matrix", "long-pure"])
    @pytest.mark.parametrize("d, n_out, samples", [(1, 2, 8), (12, 3, 300), (33, 4, 700)])
    def test_a_tensor_block_keeps_its_bits(self, state, d, n_out, samples):
        # 700 times at d 33, N 4 span two chunks of 496
        rho = (random_mixed_state if state == "mixed" else random_pure_state)(d, 5)
        if state == "matrix":
            rho = DensityMatrix(rho.matrix)
        spec, povm = random_spectrum(d, 6), random_povm(d, n_out, 7)
        if state == "long-pure":
            samples = 2 * (n_out + 1) * d
        times = np.random.default_rng(8).uniform(0.0, 500.0, samples)
        block = quantum_probe(rho, spec, povm).sample_many(times)
        assert block.tobytes() == seven_pass_block(rho, spec, povm, times).tobytes()

    @pytest.mark.parametrize("d", [2, 9, 32])
    def test_a_ladder_ignores_the_vector(self, monkeypatch, d):
        rho = random_pure_state(d, 9)
        spec, povm = random_spectrum(d, 10, kind="equally-spaced"), random_povm(d, 3, 11)
        times = np.random.default_rng(12).uniform(0.0, 500.0, 20)
        built = tensors_built(monkeypatch)
        block = quantum_probe(rho, spec, povm).sample_many(times)
        assert len(built) == 1
        matrix = quantum_probe(DensityMatrix(rho.matrix), spec, povm).sample_many(times)
        assert block.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("state, kind", [("mixed", "generic"), ("matrix", "generic"),
                                             ("vector", "equally-spaced"), ("vector", "generic")])
    def test_the_build_holds_no_tensor_at_d_256(self, state, kind):
        # the build checks dimensions and, for a vector state on no ladder,
        # holds psi~ and views; the 7.3 MB tensor build waits for a block
        rho = (random_mixed_state if state == "mixed" else random_pure_state)(256, 1)
        if state == "matrix":
            rho = DensityMatrix(rho.matrix)
        spec, povm = random_spectrum(256, 2, kind=kind), random_povm(256, 4, 3)
        assert traced_peak(lambda: quantum_probe(rho, spec, povm)) < 1e5

    def test_memory_at_d_256(self):
        # the tensor, built in place in a matrix state's first block or a
        # vector state's first long one, peaks at 7.3 MB
        rho, spec, povm = random_pure_state(256, 1), random_spectrum(256, 2), random_povm(256, 4, 3)
        probe = quantum_probe(rho, spec, povm)
        assert traced_peak(lambda: probe.sample_many(np.linspace(0.0, 9.0, 500))) < 2.5e6
        assert traced_peak(lambda: probe.sample_many(np.linspace(0.0, 9.0, 3000))) < 8.4e6
        matrix = quantum_probe(DensityMatrix(rho.matrix), spec, povm)
        assert traced_peak(lambda: matrix.sample_many(np.linspace(0.0, 9.0, 500))) < 8.4e6

    @pytest.mark.parametrize("spectrum, samples, formed", [
        ("generic", 500, 0), ("equally-spaced", 500, 1), ("generic", 2 * 5 * 256, 1),
    ], ids=["rotation", "ladder", "long-block"])
    def test_where_a_pure_point_forms_its_matrix(self, monkeypatch, spectrum, samples, formed):
        # scenario-pipeline's d = 256 point reads its state's vector alone; a
        # ladder, or a block of 2 (N + 1) d times, forms v v^H once, for the
        # tensor
        scenario = {
            "kind": "quantum", "epsilon": 0.3,
            "average": {"horizon": "auto", "samples": samples, "seed": 2},
            "system": {"sampler": {"dim": 256, "seed": 1, "spectrum": spectrum,
                                   "state": "pure"}},
            "measurement": {"sampler": {"name": "random", "outcomes": 4, "seed": 3}},
        }
        reads = matrices_formed(monkeypatch)
        (record,) = run_scenario(load_scenario(scenario))
        assert record.error is None
        assert len(reads) == formed

    def test_unit_phases_are_the_seven_pass_bits(self):
        tau = np.concatenate([sign * np.logspace(-3, 12, 20_000) for sign in (1.0, -1.0)])
        tau = np.concatenate([tau, [0.0, -0.0]])
        u, r = np.empty(tau.size, dtype=complex), np.empty(tau.size)
        quantum._unit_phases(tau.copy(), r, u)
        t = np.tan(tau)
        ref = 1.0 / (t * t + 1.0)
        assert u.real.tobytes() == (ref * 2.0 - 1.0).tobytes()
        assert u.imag.tobytes() == ((t * ref) * -2.0).tobytes()

    @pytest.mark.parametrize("shape", [(17,), (17, 17), (64, 64)])
    def test_complex_draws_are_the_sum_form(self, shape):
        old, new = np.random.default_rng(3), np.random.default_rng(3)
        expected = old.normal(size=shape) + 1j * old.normal(size=shape)
        drawn = quantum._complex_gaussian(new, np.empty(shape, dtype=complex))
        assert drawn.tobytes() == expected.tobytes()
        assert new.normal() == old.normal()


def five_buffer_block(flat, eigenvalues, amplitudes=None, basis=None):
    """``quantum._bilinear_block`` as written before its chunk temporaries
    shared storage, kept as the oracle of its bits: per block, one fresh
    buffer each for tau, r, u, the rows phi (u itself on the tensor route)
    and the GEMM's product x."""
    d = eigenvalues.size
    n_out = flat.shape[1] // d
    low, high = eigenvalues[0], eigenvalues[-1]
    within_two = 0.0 < low and high <= 2.0 * low or high < 0.0 and 2.0 * high <= low
    half = 0.5 * (eigenvalues - (low if within_two else 0.0))
    chunk = max(1, core._CHUNK_ENTRIES // (n_out * d))

    def block(times):
        out = np.empty((times.size, n_out))
        rows = min(chunk, times.size)
        tau_buf, r_buf = np.empty((rows, d)), np.empty((rows, d))
        u_buf = np.empty((rows, d), dtype=complex)
        phi_buf = u_buf if amplitudes is None else np.empty((rows, d), dtype=complex)
        x_buf = np.empty((rows, n_out * d), dtype=complex)
        for start in range(0, times.size, chunk):
            ts = times[start : start + chunk]
            m = ts.size
            tau, r, u, w, x = tau_buf[:m], r_buf[:m], u_buf[:m], phi_buf[:m], x_buf[:m]
            np.multiply(ts[:, None], half, out=tau)
            quantum._unit_phases(tau, r, u)
            if amplitudes is not None:
                u *= amplitudes
                np.matmul(u, basis, out=w)
            np.matmul(w, flat, out=x)
            np.einsum("tjm,tm->tj", x.view(float).reshape(m, n_out, 2 * d), w.view(float),
                      out=out[start : start + m])
        return np.clip(out, 0.0, 1.0, out=out)

    return block


def bilinear_operands(d, n_out, seed):
    """The ``_bilinear_block`` arguments of both routes, as ``quantum_probe``
    passes them: a mixed state's tensor, and a pure state's rotation."""
    spec, povm = random_spectrum(d, seed), random_povm(d, n_out, seed + 1)
    coeff = _energy_coefficients(random_mixed_state(d, seed + 2), spec, povm.elements)
    amplitudes = np.conj(random_pure_state(d, seed + 3).vector.conj() @ spec.eigenvectors)
    return {
        "tensor": (coeff.reshape(d, n_out * d), spec.eigenvalues),
        "rotation": (povm.elements.reshape(n_out * d, d).T, spec.eigenvalues, amplitudes,
                     spec.eigenvectors.T),
    }


class TestBilinearBlock:
    """A block keeps two chunk buffers, w and x, and every other temporary
    lives in one of them, with the bits of the five-buffer loop."""

    # N = 1 fills x with tau and r exactly; the long blocks cross a chunk
    # boundary (65,536 rows at d = N = 1, 13,107 at d = 5, 1,365 at d 16, N 3)
    @pytest.mark.parametrize("route", ["tensor", "rotation"])
    @pytest.mark.parametrize("d, n_out, samples", [
        (1, 1, 70_000), (1, 3, 100), (5, 1, 14_000), (16, 3, 1500), (64, 2, 300),
    ])
    def test_rows_are_the_five_buffer_bits(self, route, d, n_out, samples):
        args = bilinear_operands(d, n_out, d + n_out)[route]
        times = np.random.default_rng(samples).uniform(0.0, 500.0, samples)
        block = quantum._bilinear_block(*args)
        expected = five_buffer_block(*args)(times)
        assert block(times).tobytes() == expected.tobytes()
        # and a shorter block, inside one chunk, its first rows
        assert block(times[:7]).tobytes() == expected[:7].tobytes()

    # the parent's five buffers peaked at 2.28 and 1.67 MB, two buffers at
    # 1.75 and 1.06 MB
    @pytest.mark.parametrize("state, d, samples, bound", [
        ("mixed", 32, 3000, 2.0e6), ("pure", 64, 300, 1.35e6),
    ], ids=["tensor", "rotation"])
    def test_a_block_holds_two_chunk_buffers(self, state, d, samples, bound):
        rho = (random_mixed_state if state == "mixed" else random_pure_state)(d, 1)
        probe = quantum_probe(rho, random_spectrum(d, 2), random_povm(d, 2, 3))
        times = np.linspace(0.0, 9.0, samples)
        # the tensor route's first block builds the tensor; the rotation
        # route's builds none
        probe.sample_many(times[:1])
        assert traced_peak(lambda: probe.sample_many(times)) < bound


class TestEnergyCoefficients:
    @pytest.mark.parametrize("d, n_out", [(1, 1), (2, 3), (5, 4), (12, 2)])
    def test_matches_per_element_products(self, d, n_out):
        for seed in (0, 1):
            spec = (random_spectrum if seed else paired_spectrum)(d, seed)
            rho, povm = random_mixed_state(d, seed + 2), random_povm(d, n_out, seed + 3)
            coeff = _energy_coefficients(rho, spec, povm.elements)
            assert coeff.shape == (d, n_out, d)
            vecs = spec.eigenvectors
            rho_e = vecs.conj().T @ rho.matrix @ vecs
            for j, m in enumerate(povm.elements):
                assert np.array_equal(coeff[:, j], rho_e * (vecs.conj().T @ m @ vecs).T)

    def test_dimension_mismatch(self):
        message = "inconsistent dimensions: state 2, spectrum 3, measurement 3"
        with pytest.raises(DimensionError, match=message):
            _energy_coefficients(PLUS, random_spectrum(3, 0), random_povm(3, 2, 1).elements)
        with pytest.raises(DimensionError, match="state 2, spectrum 2, measurement 3"):
            projector_second_moment(PLUS, np.eye(3), QUBIT_H)


class TestSecondMoment:
    def test_bits_of_the_scatter_routine(self):
        # generic, ladder and ancilla-degenerate (H (x) I) spectra, pure and
        # mixed states, two elements per instance: 240 comparisons
        rng = np.random.default_rng(19)
        for i in range(120):
            d = int(rng.integers(1, 13))
            kind = ("generic", "ladder", "ancilla")[i % 3]
            if kind == "ancilla":
                system = max(1, d // 2)
                spec, d = extend_hamiltonian(random_spectrum(system, i), 2), 2 * system
            else:
                spec = random_spectrum(d, i, kind="equally-spaced" if kind == "ladder" else kind)
            rho = (random_mixed_state if i % 2 else random_pure_state)(d, i + 1)
            for m in random_povm(d, 2, i + 2).elements:
                assert projector_second_moment(rho, m, spec) == scatter_second_moment(
                    rho, m, spec
                )

    def test_eigenstate_is_zero(self):
        ground = DensityMatrix(np.diag([1.0, 0.0]))
        proj = SIGMA_X_POVM.elements[0]
        assert projector_second_moment(ground, proj, QUBIT_H) == pytest.approx(0.0, abs=1e-15)

    def test_qubit_hand_value(self):
        # v_01 = v_10 = 1/4, distinct gap classes: total 2 * (1/4)^2 = 1/8
        value = projector_second_moment(PLUS, SIGMA_X_POVM.elements[0], QUBIT_H)
        assert value == pytest.approx(0.125, abs=1e-12)

    def test_mixed_state_with_povm_element(self):
        # no purification needed: the block-trace sum equals the purified
        # route and the time-sampled second moment
        for kind, seed in (("generic", 5), ("equally-spaced", 6)):
            d = 4
            rho = random_mixed_state(d, seed)
            spec = random_spectrum(d, seed + 20, kind=kind)
            povm = random_povm(d, 3, seed + 40)
            element = povm.elements[0]
            assert np.abs(element @ element - element).max() > 1e-3  # not a projector
            exact = projector_second_moment(rho, element, spec)
            purified = projector_second_moment(
                purify(rho), np.kron(element, np.eye(d)), extend_hamiltonian(spec, d)
            )
            assert exact == pytest.approx(purified, abs=1e-12)
            cfg = default_average_config(spec, samples=4000, seed=seed)
            block = quantum_probe(rho, spec, povm).distributions_at(sample_times(cfg))
            omega_p = povm.probabilities(dephase(rho, spec))[0]
            series = (block[:, 0] - omega_p) ** 2
            stderr = series.std(ddof=1) / math.sqrt(series.size)
            assert abs(series.mean() - exact) <= 3.0 * stderr + 1e-12

    @pytest.mark.parametrize("kind", ["generic", "equally-spaced"])
    def test_matches_time_sampling(self, kind):
        for seed in (3, 4):
            d = 6
            rho = random_pure_state(d, seed)
            spec = random_spectrum(d, seed + 20, kind=kind)
            proj_basis = haar_unitary(d, np.random.default_rng(seed + 40))[:, :2]
            proj = proj_basis @ proj_basis.conj().T
            exact = projector_second_moment(rho, proj, spec)
            probe = quantum_probe(rho, spec, POVM([proj, np.eye(d) - proj]))
            cfg = default_average_config(spec, samples=4000, seed=seed)
            block = probe.distributions_at(sample_times(cfg))
            omega_p = float(
                np.real(np.trace(proj @ dephase(rho, spec).matrix))
            )
            series = (block[:, 0] - omega_p) ** 2
            stderr = series.std(ddof=1) / math.sqrt(series.size)
            assert abs(series.mean() - exact) <= 3.0 * stderr + 1e-12

    def test_degenerate_levels_basis_choice(self):
        # repeated eigenvalues force the support rotation inside eigenspaces
        rng = np.random.default_rng(77)
        vals = np.array([0.0, 0.0, 1.0, 2.3])
        spec = HamiltonianSpectrum(vals, haar_unitary(4, rng))
        rho = random_pure_state(4, 78)
        proj_basis = haar_unitary(4, rng)[:, :1]
        proj = proj_basis @ proj_basis.conj().T
        exact = projector_second_moment(rho, proj, spec)
        probe = quantum_probe(rho, spec, POVM([proj, np.eye(4) - proj]))
        cfg = default_average_config(spec, samples=6000, seed=79)
        block = probe.distributions_at(sample_times(cfg))
        omega_p = float(np.real(np.trace(proj @ dephase(rho, spec).matrix)))
        series = (block[:, 0] - omega_p) ** 2
        stderr = series.std(ddof=1) / math.sqrt(series.size)
        assert abs(series.mean() - exact) <= 3.0 * stderr + 1e-12


def pairs_of(values) -> list:
    """Complex entries, flattened, as a scenario's [real, imag] pairs."""
    return [[float(z.real), float(z.imag)] for z in np.ravel(values)]


def matrix_field(matrix) -> dict:
    return {"rows": matrix.shape[0], "cols": matrix.shape[1], "data": pairs_of(matrix)}


def tight_scenario(d, n_out, seed):
    """A member of the family where the spectral bound is tight: a generic
    spectrum (D_G = 1), a pure state flat in the energy basis with random
    phases (d_eff = d), and projectors onto the energy-basis Fourier
    vectors dealt round-robin into n_out groups, all conjugated by one Haar
    unitary. Each projector has rank r = d / n_out and the flat diagonal
    r / d, so m2_j = (N - 1) / (N^2 d) for every j and the certificate
    C = 1/2 sum_j sqrt(m2_j) is 1/2 sqrt((N - 1) / d), the bound itself.
    Returns the scenario and the state, spectrum and elements it holds."""
    rng = np.random.default_rng(seed)
    vals = np.sort(rng.uniform(0.0, float(d), d))
    basis = haar_unitary(d, rng)
    psi = basis @ (np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, d)) / math.sqrt(d))
    fourier = np.exp(2j * math.pi * np.outer(np.arange(d), np.arange(d)) / d) / math.sqrt(d)
    groups = [basis @ fourier[:, j::n_out] for j in range(n_out)]
    elements = [g @ g.conj().T for g in groups]
    config = {
        "name": "tight", "kind": "quantum", "epsilon": 0.5,
        "average": {"horizon": "auto", "samples": 20_000, "seed": seed + 1},
        "system": {"hamiltonian": {"eigenvalues": vals.tolist(), "eigenvectors": matrix_field(basis)},
                   "state": {"vector": pairs_of(psi)}},
        "measurement": {"povm": [matrix_field(m) for m in elements]},
    }
    return config, DensityMatrix.from_vector(psi), HamiltonianSpectrum(vals, basis), elements


class TestTightFamily:
    """Where the spectral bound's Cauchy-Schwarz steps over outcomes and
    gap pairs are equalities, only <|X|> <= sqrt(<X^2>) is slack, so the
    mean sits near sqrt(2 / pi) ~ 0.80 of the bound. A vector state on a
    generic spectrum: its 20,000-time block builds the tensor lazily."""

    @pytest.mark.parametrize("d, n_out", [(4, 2), (6, 3), (8, 2), (8, 4), (12, 3), (16, 2),
                                          (16, 4), (24, 3), (32, 2), (32, 8)])
    def test_the_check_runs_near_the_bound(self, d, n_out):
        config, rho, spectrum, elements = tight_scenario(d, n_out, 100 * d + n_out)
        (record,) = run_scenario(load_scenario(config))
        assert record.error is None
        check = record.bounds["thm5-spectral"]
        assert record.params["D_G"] == 1
        assert record.params["d_eff"] == pytest.approx(d, rel=1e-12)
        certificate = 0.5 * sum(math.sqrt(projector_second_moment(rho, m, spectrum))
                                for m in elements)
        assert abs(certificate - check.value) < 1e-12
        assert abs(check.value - 0.5 * math.sqrt((n_out - 1) / d)) < 1e-12
        assert check.status == STATUS_SATISFIED
        assert record.report.mean_distinguishability >= 0.75 * check.value


class TestPurification:
    def test_pure_input(self):
        pure = purify(PLUS)
        assert pure.is_pure
        recovered = partial_trace_ancilla(pure, 2)
        assert np.abs(recovered.matrix - PLUS.matrix).max() < 1e-12

    def test_maximally_mixed_qubit(self):
        rho = DensityMatrix(np.eye(2) / 2)
        pure = purify(rho)
        assert pure.is_pure
        assert np.abs(partial_trace_ancilla(pure, 2).matrix - rho.matrix).max() < 1e-12
        # maximal entanglement: ancilla side also maximally mixed
        swapped = pure.matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        ancilla = partial_trace_ancilla(DensityMatrix(swapped), 2)
        assert np.abs(ancilla.matrix - np.eye(2) / 2).max() < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 16])
    def test_values_of_the_kron_loop(self, d):
        # full-rank, pure (rank 1) and dephased states; a pure state's zero
        # eigenvalues give zeros that may differ only in sign
        states = [random_mixed_state(d, d), random_pure_state(d, d + 1),
                  dephase(random_pure_state(d, d + 2), random_spectrum(d, d + 3))]
        for rho in states:
            assert np.array_equal(purify(rho).matrix, kron_purify(rho))

    @pytest.mark.parametrize("d, ancilla", [(1, 1), (2, 3), (5, 2), (4, 4)])
    def test_extend_povm_is_m_kron_identity(self, d, ancilla):
        povm = random_povm(d, 3, d + ancilla)
        extended = extend_povm(povm, ancilla).elements
        assert extended.shape == (3, d * ancilla, d * ancilla)
        for m, big in zip(povm.elements, extended):
            assert np.array_equal(big, np.kron(m, np.eye(ancilla)))

    def test_preserves_average_distinguishability(self):
        rho = random_mixed_state(3, 13)
        spec = random_spectrum(3, 14)
        povm = random_povm(3, 4, 15)
        pure = purify(rho)
        spec2 = extend_hamiltonian(spec, 3)
        povm2 = extend_povm(povm, 3)
        assert effective_dimension(rho, spec) == pytest.approx(
            effective_dimension(pure, spec2), abs=1e-9
        )
        assert max_gap_degeneracy(spec) == max_gap_degeneracy(spec2)
        times = np.linspace(0.0, 80.0, 40)
        block1 = quantum_probe(rho, spec, povm).distributions_at(times)
        block2 = quantum_probe(pure, spec2, povm2).distributions_at(times)
        assert np.abs(block1 - block2).max() < 1e-9


# the samplers that skip the O(d^3) eigenvalue test because their output is
# positive semidefinite by construction; projective_povm deals one basis
# vector per outcome up to d = 64 and 4 outcomes at 256, where one element
# per basis vector would cost 256 eigvalsh calls on 256 x 256 matrices
BY_CONSTRUCTION = {
    "random_povm": lambda d, seed: random_povm(d, 3, seed),
    "projective_povm": lambda d, seed: projective_povm(d, d if d <= 64 else 4, seed),
    "uneven_povm-leak-0": lambda d, seed: uneven_povm(d, 3, 0.0, seed),
    "uneven_povm-leak-0.999": lambda d, seed: uneven_povm(d, 3, 0.999, seed),
    "random_mixed_state": random_mixed_state,
    "random_pure_state": random_pure_state,
}


# the derived objects that skip the eigenvalue test: a pinching (dephase), a
# partial trace, an outer product (purify) and M_j (x) I (extend_povm) of
# valid inputs are positive semidefinite by construction
DERIVED = {
    "dephase": lambda d, seed: dephase(random_mixed_state(d, seed), random_spectrum(d, seed)),
    "dephase-paired": lambda d, seed: dephase(
        random_pure_state(d, seed), paired_spectrum(d, seed)
    ),
    "partial_trace_ancilla": lambda d, seed: partial_trace_ancilla(
        random_mixed_state(3 * d, seed), d
    ),
    "extend_povm": lambda d, seed: extend_povm(random_povm(d, 3, seed), 2),
}


class TestValidByConstruction:
    """The guarantee the samplers' skipped eigenvalue test gave at run time:
    their outputs pass the full public check."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 33, 64, 256])
    @pytest.mark.parametrize("sampler", list(BY_CONSTRUCTION))
    def test_outputs_pass_the_full_check(self, sampler, dim):
        for seed in (0, 1, 2):
            built = BY_CONSTRUCTION[sampler](dim, seed)
            if isinstance(built, POVM):
                checked = POVM(built.elements).elements
                assert all(np.array_equal(a, b) for a, b in zip(checked, built.elements))
            else:
                assert np.array_equal(DensityMatrix(built.matrix).matrix, built.matrix)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 33, 64])
    @pytest.mark.parametrize("derive", list(DERIVED))
    def test_derived_objects_pass_the_full_check(self, derive, dim):
        for seed in (0, 1, 2):
            built = DERIVED[derive](dim, seed)
            if isinstance(built, POVM):
                assert np.array_equal(POVM(built.elements).elements, built.elements)
            else:
                assert np.array_equal(DensityMatrix(built.matrix).matrix, built.matrix)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 16])
    def test_purify_passes_the_full_check(self, dim):
        # the output is dim^2-dimensional, so the dimensions stop at 16
        for seed in (0, 1, 2):
            for rho in (random_mixed_state(dim, seed), random_pure_state(dim, seed)):
                pure = purify(rho)
                assert np.array_equal(DensityMatrix(pure.matrix).matrix, pure.matrix)
                traced = partial_trace_ancilla(pure, dim)
                assert np.array_equal(DensityMatrix(traced.matrix).matrix, traced.matrix)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 33, 64, 256])
    def test_from_vector_passes_the_full_check(self, dim):
        # a file's state.vector reaches from_vector as it stands
        rng = np.random.default_rng(dim)
        vectors = [np.eye(dim)[dim - 1], np.full(dim, -3.0)]
        for scale in (1e-100, 1.0, 1e100):
            vectors.append(scale * (rng.normal(size=dim) + 1j * rng.normal(size=dim)))
        for v in vectors:
            rho = DensityMatrix.from_vector(v)
            assert np.array_equal(DensityMatrix(rho.matrix).matrix, rho.matrix)

    @pytest.mark.parametrize("dim", [0, -2])
    def test_samplers_refuse_dim_below_one(self, dim):
        samplers = [
            lambda: random_spectrum(dim, 0),
            lambda: random_spectrum(dim, 0, kind="equally-spaced"),
            lambda: random_pure_state(dim, 0),
            lambda: random_mixed_state(dim, 0),
            lambda: random_povm(dim, 2, 0),
            lambda: projective_povm(dim, 1, 0),
            lambda: uneven_povm(dim, 3, 0.1, 0),
        ]
        for sample in samplers:
            with pytest.raises(DomainError, match=f"dim must be an integer >= 1, got {dim}"):
                sample()

    @pytest.mark.parametrize("build, name", [
        (lambda: random_spectrum(0, 0), "dim"),
        (lambda: random_spectrum(3, 0, spacing=0.0), "spacing"),
        # used to fail as "eigenvalues must be ascending"
        (lambda: random_spectrum(3, 0, kind="equally-spaced", spacing=-1.0), "spacing"),
        (lambda: random_spectrum(3, 0, kind="gaussian"), "kind"),
        (lambda: random_povm(3, 0, 0), "outcomes"),
        (lambda: projective_povm(3, 4, 0), "outcomes"),
        (lambda: uneven_povm(3, 1, 0.1, 0), "outcomes"),
        (lambda: uneven_povm(3, 3, 1.0, 0), "leak"),
        (lambda: HamiltonianSpectrum([]), "eigenvalues"),
        (lambda: HamiltonianSpectrum([1.0, 0.0]), "eigenvalues"),
    ], ids=["dim", "spacing-0", "spacing-negative", "kind", "random-outcomes",
            "projective-outcomes", "uneven-outcomes", "leak", "eigenvalues-empty",
            "eigenvalues-descending"])
    def test_a_domain_error_names_its_argument(self, build, name):
        with pytest.raises(DomainError) as info:
            build()
        assert info.value.name == name

    @pytest.mark.parametrize("value", [0, -2, 2.5, True], ids=["0", "-2", "2.5", "True"])
    @pytest.mark.parametrize("call, name", [
        (lambda v: partial_trace_ancilla(purify(PLUS), v), "system_dim"),
        (lambda v: extend_hamiltonian(QUBIT_H, v), "ancilla_dim"),
        (lambda v: extend_povm(SIGMA_X_POVM, v), "ancilla_dim"),
    ], ids=["partial_trace_ancilla", "extend_hamiltonian", "extend_povm"])
    def test_the_ancilla_helpers_refuse_a_dimension_below_one(self, call, name, value):
        # partial_trace_ancilla's 0 was a ZeroDivisionError and its -2 a
        # reshape ValueError; 2.5 was a bare TypeError in both extensions
        with pytest.raises(DomainError, match=f"^{name} must be an integer >= 1, got ") as info:
            call(value)
        assert info.value.name == name

    def test_ladder_spacing_must_not_overflow(self):
        with pytest.raises(DomainError, match="overflows"):
            random_spectrum(3, 0, kind="equally-spaced", spacing=1e308)
        # the top level 1e308 of a two-level ladder is finite
        assert random_spectrum(2, 0, kind="equally-spaced", spacing=1e308).dim == 2


class TestSamplerMemory:
    """At d = 256 one element is 1.05 MB and N = 4 elements 4.2 MB. Each
    sampler writes its elements into one stack that the POVM takes over, so
    it holds about two element sets at its peak (measured: random 7.5 MB,
    uneven 10.6 MB, projective 8.5 MB; random builds S = total^-1/2 in
    the buffers of total and its eigenvectors, where two more temporaries
    peaked at 9.4 MB). A sampler that built a list of elements for the
    POVM to copy would peak at 19.5, 16.4 and 12.2 MB."""

    @pytest.mark.parametrize(
        "build, limit",
        [
            (lambda: random_povm(256, 4, 0), 9e6),
            (lambda: uneven_povm(256, 4, 0.1, 0), 12e6),
            (lambda: projective_povm(256, 4, 0), 10e6),
        ],
        ids=["random", "uneven", "projective"],
    )
    def test_peak_at_d_256(self, build, limit):
        assert traced_peak(build) < limit


class TestGenerators:
    def test_seeded_determinism(self):
        assert np.array_equal(
            random_spectrum(5, 3).eigenvalues, random_spectrum(5, 3).eigenvalues
        )
        assert np.array_equal(
            random_mixed_state(4, 7).matrix, random_mixed_state(4, 7).matrix
        )
        assert np.array_equal(
            random_povm(3, 2, 9).elements[0], random_povm(3, 2, 9).elements[0]
        )

    def test_equally_spaced(self):
        spec = random_spectrum(5, 0, kind="equally-spaced", spacing=0.5)
        assert np.allclose(np.diff(spec.eigenvalues), 0.5)
        assert max_gap_degeneracy(spec) == 4

    def test_projective_povm_is_projective(self):
        povm = projective_povm(6, 3, 5)
        for m in povm.elements:
            assert np.abs(m @ m - m).max() < 1e-10

    def test_uneven_povm_dominant_outcome(self):
        povm = uneven_povm(4, 3, leak=0.04, seed=6)
        rho = random_mixed_state(4, 7)
        probs = povm.probabilities(rho)
        assert probs[0] == pytest.approx(0.96, abs=1e-10)

    def test_haar_unitary_is_unitary(self):
        u = haar_unitary(5, np.random.default_rng(1))
        assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-10


class TestCodecsAndExport:
    def test_matrix_roundtrip(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        pairs = [[float(v.real), float(v.imag)] for v in m.reshape(-1)]
        clone = _matrix_node(_Node({"rows": 3, "cols": 3, "data": pairs}, "matrix"))
        assert np.array_equal(clone, m)

    def test_matrix_from_pairs_errors(self):
        from equilib.core import ConfigError

        with pytest.raises(ConfigError, match="matrix.data"):
            _matrix_node(_Node({"rows": 2, "cols": 2, "data": [[0, 0]]}, "matrix"))
        with pytest.raises(ConfigError, match="matrix.rows"):
            _matrix_node(_Node({"cols": 2, "data": []}, "matrix"))

    def test_default_average_config(self):
        cfg = default_average_config(QUBIT_H, samples=128, seed=4)
        assert cfg.horizon == pytest.approx(1000 * 2 * math.pi)
        flat = default_average_config(HamiltonianSpectrum([1.0, 1.0]))
        assert flat.horizon == 1.0
