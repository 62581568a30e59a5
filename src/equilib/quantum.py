"""Finite-dimensional quantum dynamics and spectral equilibration bounds.

Hamiltonians are handled through their spectral data (hbar = 1 throughout):
evolution multiplies energy-basis matrix elements by gap phases, the
equilibrium state is the dephasing across energy eigenspaces, and the
analytic bound on average distinguishability is controlled by two spectral
quantities, the effective dimension of the state and the largest number of
coinciding energy gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (
    DimensionError,
    DomainError,
    OutcomeDistribution,
    TimeAverageConfig,
    TrajectoryProbe,
)

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-9
UNITARY_TOL = 1e-9
PURITY_TOL = 1e-9

# Relative factor applied to the spectral range to decide when two
# eigenvalues, or two gaps, count as equal. Exposed because both the
# eigenspace structure and the gap degeneracy are discontinuous in it.
DEGENERACY_REL_TOL = 1e-9
GAP_REL_TOL = 1e-9


def _as_square_complex(matrix, what: str) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{what} must be a square matrix, got shape {arr.shape}")
    # every check below is a `> tol` comparison, which NaN passes
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} has non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Quantum state: Hermitian, unit-trace, positive semidefinite matrix."""

    matrix: np.ndarray

    def __init__(self, matrix):
        arr = _as_square_complex(matrix, "a density matrix")
        if np.abs(arr - arr.conj().T).max() > HERMITIAN_TOL:
            raise DomainError("density matrix is not Hermitian")
        tr = complex(np.trace(arr))
        if abs(tr - 1.0) > TRACE_TOL:
            raise DomainError(f"density matrix has trace {tr!r}, expected 1")
        if np.linalg.eigvalsh(arr).min() < -PSD_TOL:
            raise DomainError("density matrix has a negative eigenvalue")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    @property
    def is_pure(self) -> bool:
        return abs(self.purity - 1.0) <= PURITY_TOL

    @staticmethod
    def from_vector(psi: Sequence[complex] | np.ndarray) -> "DensityMatrix":
        v = np.asarray(psi, dtype=complex).reshape(-1)
        if not np.isfinite(v).all():
            raise DomainError("state vector has non-finite entries")
        norm = np.linalg.norm(v)
        if norm == 0:
            raise DomainError("cannot build a state from the zero vector")
        v = v / norm
        return DensityMatrix(np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class POVM:
    """Measurement: positive operators summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __init__(self, elements: Sequence):
        if len(elements) == 0:
            raise DomainError("a measurement needs at least one element")
        mats = []
        dim = None
        for k, el in enumerate(elements):
            arr = _as_square_complex(el, f"measurement element {k}")
            if dim is None:
                dim = arr.shape[0]
            elif arr.shape[0] != dim:
                raise DimensionError("measurement elements have mixed dimensions")
            if np.abs(arr - arr.conj().T).max() > HERMITIAN_TOL:
                raise DomainError(f"measurement element {k} is not Hermitian")
            if np.linalg.eigvalsh(arr).min() < -PSD_TOL:
                raise DomainError(f"measurement element {k} is not positive semidefinite")
            arr = arr.copy()
            arr.setflags(write=False)
            mats.append(arr)
        total = sum(mats)
        if np.abs(total - np.eye(dim)).max() > TRACE_TOL:
            raise DomainError("measurement elements do not sum to the identity")
        object.__setattr__(self, "elements", tuple(mats))

    @property
    def outcome_count(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def probabilities(self, rho: DensityMatrix) -> OutcomeDistribution:
        if rho.dim != self.dim:
            raise DimensionError(f"state is {rho.dim}-d, measurement is {self.dim}-d")
        p = [float(np.real(np.trace(m @ rho.matrix))) for m in self.elements]
        return OutcomeDistribution(p)


def _group_close(values: np.ndarray, tol: float) -> list[list[int]]:
    """Group indices of ascending ``values`` whose consecutive spacing is < tol."""
    groups: list[list[int]] = [[0]]
    for k in range(1, values.size):
        if values[k] - values[k - 1] < tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


@dataclass(frozen=True, eq=False)
class HamiltonianSpectrum:
    """Spectral data of a Hamiltonian: ascending eigenvalues, a unitary of
    eigenvector columns, and the grouping of indices into degenerate
    eigenspaces at the construction tolerance."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    eigenspaces: tuple[tuple[int, ...], ...]

    def __init__(self, eigenvalues, eigenvectors=None):
        vals = np.asarray(eigenvalues, dtype=float).reshape(-1)
        if vals.size < 1 or not np.all(np.isfinite(vals)):
            raise DomainError("need a nonempty list of finite eigenvalues")
        if np.any(np.diff(vals) < 0):
            raise DomainError("eigenvalues must be ascending")
        d = vals.size
        if eigenvectors is None:
            vecs = np.eye(d, dtype=complex)
        else:
            vecs = _as_square_complex(eigenvectors, "the eigenvector matrix")
            if vecs.shape[0] != d:
                raise DimensionError("eigenvector matrix does not match the eigenvalues")
            if np.abs(vecs.conj().T @ vecs - np.eye(d)).max() > UNITARY_TOL:
                raise DomainError("eigenvector columns are not orthonormal")
        spread = float(vals[-1] - vals[0])
        degeneracy_tol = DEGENERACY_REL_TOL * spread
        if spread == 0.0:
            groups = [list(range(d))]
        else:
            groups = _group_close(vals, degeneracy_tol)
            for g in groups:
                if vals[g[-1]] - vals[g[0]] >= degeneracy_tol > 0:
                    raise DomainError(
                        "eigenvalue clustering is ambiguous at this tolerance "
                        f"(chained spread {vals[g[-1]] - vals[g[0]]:.3e})"
                    )
        vals = vals.copy()
        vals.setflags(write=False)
        vecs = vecs.copy()
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)
        object.__setattr__(self, "eigenspaces", tuple(tuple(g) for g in groups))

    @staticmethod
    def from_matrix(hamiltonian) -> "HamiltonianSpectrum":
        arr = _as_square_complex(hamiltonian, "a Hamiltonian")
        if np.abs(arr - arr.conj().T).max() > HERMITIAN_TOL:
            raise DomainError("Hamiltonian is not Hermitian")
        vals, vecs = np.linalg.eigh(arr)
        return HamiltonianSpectrum(vals, vecs)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def eigenspace_count(self) -> int:
        return len(self.eigenspaces)

    @cached_property
    def eigenspace_energies(self) -> np.ndarray:
        """Representative (mean) energy per eigenspace, ascending."""
        return np.array([self.eigenvalues[list(g)].mean() for g in self.eigenspaces])

    @cached_property
    def space_of_index(self) -> np.ndarray:
        labels = np.empty(self.dim, dtype=np.int64)
        for s, group in enumerate(self.eigenspaces):
            labels[list(group)] = s
        return labels

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    def to_energy_basis(self, matrix: np.ndarray) -> np.ndarray:
        return self.eigenvectors.conj().T @ matrix @ self.eigenvectors

    def from_energy_basis(self, matrix: np.ndarray) -> np.ndarray:
        return self.eigenvectors @ matrix @ self.eigenvectors.conj().T

    def minimum_gap(self) -> float:
        """Smallest energy difference between distinct eigenspaces (0 if none)."""
        if self.eigenspace_count < 2:
            return 0.0
        return float(np.diff(self.eigenspace_energies).min())


@dataclass(frozen=True, eq=False)
class GapTable:
    """All ordered energy gaps between distinct eigenspaces, clustered into
    equal-gap classes at ``tolerance``.

    ``pairs[k]`` is the eigenspace index pair (n, j) of gap ``values[k]`` and
    ``class_of[k]`` its class; classes are numbered in ascending gap order.
    Pairs run row-major over n, then j. Antisymmetry is built in: every
    (n, j) appears along with (j, n) carrying the opposite value.
    """

    pairs: np.ndarray
    values: np.ndarray
    class_of: np.ndarray
    tolerance: float

    @property
    def max_degeneracy(self) -> int:
        if self.class_of.size == 0:
            return 1
        return int(np.bincount(self.class_of).max())


def gap_table(spectrum: HamiltonianSpectrum, gap_tol: float | None = None) -> GapTable:
    """Enumerate and cluster the energy gaps of a spectrum.

    Gaps are taken between distinct eigenspaces only: degenerate levels
    contribute one gap per eigenspace pair, and the zero gaps internal to an
    eigenspace are excluded. Sorted gaps chain into one class while
    consecutive ones differ by less than ``gap_tol`` (default: GAP_REL_TOL
    times the spectral range); at a tolerance of 0 every gap is its own class.
    """
    if gap_tol is None:
        gap_tol = GAP_REL_TOL * spectrum.spectral_range
    energies = spectrum.eigenspace_energies
    s = energies.size
    n, j = np.nonzero(~np.eye(s, dtype=bool))
    values = energies[n] - energies[j]
    order = np.argsort(values, kind="stable")
    # a class starts at every sorted gap at least gap_tol above its
    # predecessor; sorted differences are >= 0, so gap_tol <= 0 splits all
    starts = np.zeros(values.size, dtype=np.int64)
    starts[1:] = np.diff(values[order]) >= gap_tol
    class_of = np.empty(values.size, dtype=np.int64)
    class_of[order] = np.cumsum(starts)
    pairs = np.stack([n, j], axis=1)
    for arr in (pairs, values, class_of):
        arr.setflags(write=False)
    return GapTable(pairs=pairs, values=values, class_of=class_of, tolerance=float(gap_tol))


def max_gap_degeneracy(spectrum: HamiltonianSpectrum, gap_tol: float | None = None) -> int:
    """Largest number of ordered eigenspace pairs sharing one gap value.

    A spectrum with fewer than two eigenspaces has no gaps; by convention the
    degeneracy is then 1 (the resulting bound is vacuous and callers should
    flag it).
    """
    if spectrum.eigenspace_count < 2:
        return 1
    return gap_table(spectrum, gap_tol).max_degeneracy


def dephase(rho: DensityMatrix, spectrum: HamiltonianSpectrum) -> DensityMatrix:
    """Equilibrium state: erase coherences between distinct eigenspaces.

    Blocks within one degenerate eigenspace survive; everything else is
    zeroed. Idempotent, and equal to the infinite-time average of the
    evolved state.
    """
    if rho.dim != spectrum.dim:
        raise DimensionError(f"state is {rho.dim}-d, spectrum is {spectrum.dim}-d")
    labels = spectrum.space_of_index
    mask = labels[:, None] == labels[None, :]
    rho_e = spectrum.to_energy_basis(rho.matrix)
    out = spectrum.from_energy_basis(np.where(mask, rho_e, 0.0))
    return DensityMatrix(0.5 * (out + out.conj().T))


def eigenspace_weights(rho: DensityMatrix, spectrum: HamiltonianSpectrum) -> np.ndarray:
    """Population of each energy eigenspace, tr(P_s rho)."""
    if rho.dim != spectrum.dim:
        raise DimensionError(f"state is {rho.dim}-d, spectrum is {spectrum.dim}-d")
    diag = np.real(np.diag(spectrum.to_energy_basis(rho.matrix)))
    return np.array([diag[list(g)].sum() for g in spectrum.eigenspaces])


def effective_dimension(rho: DensityMatrix, spectrum: HamiltonianSpectrum) -> float:
    """Inverse participation ratio over energy eigenspaces.

    Roughly the number of eigenspaces the state populates significantly; 1
    for an energy eigenstate, the full dimension for the maximally mixed
    state of a nondegenerate Hamiltonian.
    """
    weights = eigenspace_weights(rho, spectrum)
    return 1.0 / float(np.sum(weights**2))


def equilibration_bound(outcomes: int, gap_degeneracy: int, effective_dim: float) -> float:
    """Bound on the time-averaged distinguishability from spectral data:
    (1/2) sqrt(gap_degeneracy * (outcomes - 1) / effective_dim)."""
    if outcomes < 1:
        raise DomainError(f"outcome count must be >= 1, got {outcomes}")
    if gap_degeneracy < 1:
        raise DomainError(f"gap degeneracy must be >= 1, got {gap_degeneracy}")
    if effective_dim < 1.0:
        raise DomainError(f"effective dimension must be >= 1, got {effective_dim!r}")
    return 0.5 * math.sqrt(gap_degeneracy * (outcomes - 1) / effective_dim)


def max_outcomes_for_equilibration(
    epsilon: float, effective_dim: float, gap_degeneracy: int
) -> int:
    """Largest measurement size that still guarantees epsilon-equilibration:
    floor(4 * effective_dim * epsilon^2 / gap_degeneracy + 1)."""
    if not 0.0 <= epsilon < 1.0:
        raise DomainError(f"epsilon must lie in [0, 1), got {epsilon!r}")
    if effective_dim < 1.0:
        raise DomainError(f"effective dimension must be >= 1, got {effective_dim!r}")
    if gap_degeneracy < 1:
        raise DomainError(f"gap degeneracy must be >= 1, got {gap_degeneracy}")
    value = 4.0 * effective_dim * epsilon * epsilon / gap_degeneracy + 1.0
    return int(math.floor(value + 1e-12))


def quantum_probe(
    rho: DensityMatrix, spectrum: HamiltonianSpectrum, povm: POVM
) -> TrajectoryProbe:
    """Probe whose sample(t) lists tr(M_j rho_t) for the POVM elements."""
    if rho.dim != spectrum.dim or povm.dim != spectrum.dim:
        raise DimensionError(
            f"dimensions differ: state {rho.dim}, spectrum {spectrum.dim}, "
            f"measurement {povm.dim}"
        )
    rho_e = spectrum.to_energy_basis(rho.matrix)
    d = spectrum.dim
    n_out = povm.outcome_count
    # coefficient tensor: p_j(t) = sum_{nm} coeff[j, n, m] u_n(t) conj(u_m(t)),
    # u_n(t) = exp(-i E_n t); flat[n, j*d + m] = coeff[j, n, m] (a contiguous
    # copy), so the sum over n is one GEMM per chunk of times
    coeff = np.stack([rho_e * spectrum.to_energy_basis(m).T for m in povm.elements])
    flat = coeff.transpose(1, 0, 2).reshape(d, n_out * d)
    # halving is exact, so ts * half is exactly theta / 2 for theta = E t
    half = 0.5 * spectrum.eigenvalues
    # at most 65,536 complex entries (1 MB) in the (m, N*d) intermediate
    chunk = max(1, 65_536 // (n_out * d))

    def _block(times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        out = np.empty((times.size, n_out))
        # one set of chunk buffers per block: fresh temporaries per chunk cost
        # page faults and raised peak memory
        rows = min(chunk, times.size)
        tau_buf, r_buf = np.empty((rows, d)), np.empty((rows, d))
        u_buf = np.empty((rows, d), dtype=complex)
        x_buf = np.empty((rows, n_out * d), dtype=complex)
        for start in range(0, times.size, chunk):
            ts = times[start : start + chunk]
            m = ts.size
            tau, r, u, x = tau_buf[:m], r_buf[:m], u_buf[:m], x_buf[:m]
            # u = exp(-i theta) from tau = tan(theta / 2) and r = 1 / (1 + tau^2):
            # cos theta = 2r - 1 and sin theta = 2 tau r
            np.multiply(ts[:, None], half, out=tau)
            np.tan(tau, out=tau)
            np.multiply(tau, tau, out=r)
            r += 1.0
            np.reciprocal(r, out=r)
            np.multiply(r, 2.0, out=u.real)
            u.real -= 1.0
            np.multiply(tau, r, out=u.imag)
            u.imag *= -2.0
            np.matmul(u, flat, out=x)
            # Re(x conj(u)) = x_re u_re + x_im u_im: one real contraction over
            # the interleaved (re, im) views, with no conjugate copy
            np.einsum(
                "tjm,tm->tj",
                x.view(float).reshape(m, n_out, 2 * d),
                u.view(float),
                out=out[start : start + m],
            )
        # clip 1-ulp excursions so strict downstream validation stays happy
        return np.clip(out, 0.0, 1.0)

    return TrajectoryProbe(sample_many=_block, outcome_count=n_out)


def default_average_config(
    spectrum: HamiltonianSpectrum,
    samples: int = 10_000,
    seed: int = 0,
) -> TimeAverageConfig:
    """Averaging horizon resolving the slowest oscillation of the spectrum.

    The horizon covers 1,000 periods of the smallest nonzero gap,
    under stratified-random sampling. A single-eigenspace spectrum has no
    dynamics at all; any horizon works and 1.0 is used.
    """
    gap = spectrum.minimum_gap()
    horizon = 1_000.0 * 2.0 * math.pi / gap if gap > 0 else 1.0
    return TimeAverageConfig(horizon=horizon, samples=samples, seed=seed)


def projector_second_moment(
    rho: DensityMatrix, projector, spectrum: HamiltonianSpectrum
) -> float:
    """Exact infinite-time average of |tr(M (rho_t - omega))|^2.

    For any state, pure or mixed, and any Hermitian ``projector`` M (a
    projector or any other POVM element): tr(M rho_t) - tr(M omega) is a sum
    over ordered pairs (a, b) of distinct eigenspaces of
    exp(-i (E_a - E_b) t) tr(rho_ab M_ba), with rho_ab = P_a rho P_b, so the
    average is the closed sum over equal-gap classes of
    |sum over the class of tr(rho_ab M_ba)|^2.
    """
    proj = _as_square_complex(projector, "the projector")
    if rho.dim != spectrum.dim or proj.shape[0] != spectrum.dim:
        raise DimensionError("state, projector and spectrum dimensions differ")
    rho_e = spectrum.to_energy_basis(rho.matrix)
    proj_e = spectrum.to_energy_basis(proj)
    # block_trace[a, b] = tr(rho_ab M_ba), the amplitude of gap E_a - E_b
    labels = spectrum.space_of_index
    block_trace = np.zeros((spectrum.eigenspace_count,) * 2, dtype=complex)
    np.add.at(block_trace, (labels[:, None], labels[None, :]), rho_e * proj_e.T)
    table = gap_table(spectrum)
    amplitude = block_trace[table.pairs[:, 0], table.pairs[:, 1]]
    per_class = np.bincount(table.class_of, weights=amplitude.real) + 1j * np.bincount(
        table.class_of, weights=amplitude.imag
    )
    return float(np.sum(np.abs(per_class) ** 2))


def purify(rho: DensityMatrix) -> DensityMatrix:
    """Pure state on the doubled space whose partial trace over the ancilla
    reproduces ``rho``.

    Built from the eigendecomposition: sqrt-eigenvalue superposition of
    eigenvector (x) ancilla-basis pairs. Pair with ``extend_hamiltonian`` /
    ``extend_povm`` (null ancilla dynamics), under which the purification
    has the same outcome trajectories, effective dimension and gap structure
    as the original state.
    """
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
    return DensityMatrix(np.outer(psi, psi.conj()))


def partial_trace_ancilla(rho: DensityMatrix, system_dim: int) -> DensityMatrix:
    """Trace out an ancilla of dimension rho.dim / system_dim."""
    d = rho.dim
    if d % system_dim != 0:
        raise DimensionError(f"cannot split dimension {d} as system {system_dim} x ancilla")
    da = d // system_dim
    reshaped = rho.matrix.reshape(system_dim, da, system_dim, da)
    return DensityMatrix(np.einsum("iaja->ij", reshaped))


def extend_hamiltonian(spectrum: HamiltonianSpectrum, ancilla_dim: int) -> HamiltonianSpectrum:
    """Spectral data of H (x) identity: the system Hamiltonian extended by a
    null ancilla. Eigenvalues repeat per ancilla level, so the distinct
    energies, and with them the gap structure, are unchanged."""
    if ancilla_dim < 1:
        raise DomainError("ancilla dimension must be >= 1")
    vals = np.repeat(spectrum.eigenvalues, ancilla_dim)
    vecs = np.kron(spectrum.eigenvectors, np.eye(ancilla_dim))
    return HamiltonianSpectrum(vals, vecs)


def extend_povm(povm: POVM, ancilla_dim: int) -> POVM:
    """The measurement M_j (x) identity acting on system plus ancilla."""
    if ancilla_dim < 1:
        raise DomainError("ancilla dimension must be >= 1")
    eye = np.eye(ancilla_dim)
    return POVM([np.kron(m, eye) for m in povm.elements])


# --- seeded generators for random instances ---------------------------------

def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_spectrum(
    dim: int,
    seed: int,
    kind: str = "generic",
    spacing: float = 1.0,
) -> HamiltonianSpectrum:
    """Random Hamiltonian spectral data.

    ``kind="generic"`` draws eigenvalues uniformly over [0, dim] (all gaps
    distinct with probability one); ``kind="equally-spaced"`` builds the
    ladder 0, spacing, 2*spacing, ... whose gaps are maximally degenerate.
    Both use a Haar-random eigenbasis.
    """
    rng = np.random.default_rng(seed)
    if kind == "generic":
        vals = np.sort(rng.uniform(0.0, float(dim), dim))
    elif kind == "equally-spaced":
        vals = spacing * np.arange(dim, dtype=float)
    else:
        raise DomainError(f"unknown spectrum kind {kind!r}")
    return HamiltonianSpectrum(vals, haar_unitary(dim, rng))


def random_pure_state(dim: int, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return DensityMatrix.from_vector(psi)


def random_mixed_state(dim: int, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m))


def random_povm(dim: int, outcomes: int, seed: int) -> POVM:
    """Random positive decomposition of the identity: normalize random PSD
    matrices by the inverse square root of their sum."""
    if outcomes < 1:
        raise DomainError("need at least one outcome")
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        parts.append(g @ g.conj().T)
    total = sum(parts)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.conj().T
    return POVM([inv_sqrt @ p @ inv_sqrt for p in parts])


def projective_povm(dim: int, outcomes: int, seed: int) -> POVM:
    """Projective measurement from a Haar-random basis, its vectors dealt
    round-robin into ``outcomes`` groups."""
    if not 1 <= outcomes <= dim:
        raise DomainError(f"projective measurement needs 1 <= outcomes <= dim, got {outcomes}")
    rng = np.random.default_rng(seed)
    u = haar_unitary(dim, rng)
    elements = [np.zeros((dim, dim), dtype=complex) for _ in range(outcomes)]
    for col in range(dim):
        v = u[:, col]
        elements[col % outcomes] += np.outer(v, v.conj())
    return POVM(elements)


def uneven_povm(dim: int, outcomes: int, leak: float, seed: int) -> POVM:
    """Measurement with one near-identity element: element 0 is
    (1 - leak) * identity and the rest share leak * identity randomly.
    Any state then has a dominant outcome of weight 1 - leak."""
    if not 0.0 <= leak < 1.0:
        raise DomainError("leak must lie in [0, 1)")
    if outcomes < 2:
        raise DomainError("need at least two outcomes")
    rest = random_povm(dim, outcomes - 1, seed)
    eye = np.eye(dim)
    return POVM([(1.0 - leak) * eye] + [leak * m for m in rest.elements])
