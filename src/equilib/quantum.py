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
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import core
from .core import (
    DimensionError,
    DomainError,
    OutcomeDistribution,
    TimeAverageConfig,
    TrajectoryProbe,
    check_epsilon,
    seeded_rng,
    typed_array,
    typed_scalar,
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
    arr = typed_array(matrix, what, complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{what} must be a square matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Quantum state: Hermitian, unit-trace, positive semidefinite matrix.

    A state built by ``from_vector`` holds only its read-only unit vector,
    ``vector``. Its ``matrix``, v v^H, is formed read-only each time it is
    read and is not kept, so a reader that needs it twice reads it once. Any
    other state holds its matrix, and its ``vector`` is None."""

    _matrix: np.ndarray | None
    vector: np.ndarray | None

    def __init__(self, matrix):
        # the one copy: the state never aliases the caller's array
        numbers = np.array(typed_array(matrix, "a density matrix", complex))
        arr = self._by_construction(numbers).matrix
        if np.linalg.eigvalsh(arr).min() < -PSD_TOL:
            raise DomainError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "_matrix", arr)
        object.__setattr__(self, "vector", None)

    @classmethod
    def _by_construction(cls, matrix: np.ndarray) -> "DensityMatrix":
        """A state from a fresh complex matrix that is positive semidefinite by
        construction: every check of ``__init__`` but its O(d^3) eigenvalue
        test, which the tests run on each sampler's output instead. The state
        takes ``matrix`` over and freezes it, so no caller may keep it."""
        arr = _as_square_complex(matrix, "a density matrix")
        if np.abs(arr - arr.conj().T).max() > HERMITIAN_TOL:
            raise DomainError("density matrix is not Hermitian")
        tr = complex(np.trace(arr))
        if abs(tr - 1.0) > TRACE_TOL:
            raise DomainError(f"density matrix has trace {tr!r}, expected 1")
        arr.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "_matrix", arr)
        object.__setattr__(rho, "vector", None)
        return rho

    def __repr__(self) -> str:
        return f"DensityMatrix(matrix={self.matrix!r})"

    @property
    def matrix(self) -> np.ndarray:
        v = self.vector
        if v is None:
            return self._matrix
        arr = np.outer(v, v.conj())
        arr.setflags(write=False)
        return arr

    @property
    def dim(self) -> int:
        return self._matrix.shape[0] if self.vector is None else self.vector.size

    @property
    def purity(self) -> float:
        """tr rho^2, with no d x d product: |v|^4 for a state held as its
        vector, else sum |rho_ij|^2, which is tr rho^2 for a Hermitian rho."""
        v = self.vector
        if v is not None:
            return float(np.vdot(v, v).real ** 2)
        return float(np.vdot(self._matrix, self._matrix).real)

    @property
    def is_pure(self) -> bool:
        return abs(self.purity - 1.0) <= PURITY_TOL

    @staticmethod
    def from_vector(psi: Sequence[complex] | np.ndarray) -> "DensityMatrix":
        v = typed_array(psi, "a state vector", complex)
        if v.ndim != 1:
            raise DomainError(f"a state vector must be 1-d, got shape {v.shape}")
        peak = max(np.abs(v.real).max(initial=0.0), np.abs(v.imag).max(initial=0.0))
        if peak == 0:
            raise DomainError("cannot build a state from the zero vector")
        # the norm of a finite vector can overflow or underflow. Scaling by
        # the power of two just above its largest entry first keeps it in
        # range, and the scaling is exact, so v / |v| keeps its bits wherever
        # the unscaled norm was representable
        exp = math.frexp(peak)[1]
        scaled = np.empty_like(v)
        np.ldexp(v.real, -exp, out=scaled.real)
        np.ldexp(v.imag, -exp, out=scaled.imag)
        v = scaled / np.linalg.norm(scaled)
        # v v^H is square, finite, Hermitian, of unit trace and positive
        # semidefinite for every finite unit v, so no d x d check runs here
        v.setflags(write=False)
        rho = object.__new__(DensityMatrix)
        object.__setattr__(rho, "_matrix", None)
        object.__setattr__(rho, "vector", v)
        return rho


@dataclass(frozen=True, eq=False)
class POVM:
    """Measurement: positive operators summing to the identity, held as one
    read-only complex ``(N, d, d)`` array whose slice ``elements[j]`` is
    element j."""

    elements: np.ndarray

    def __init__(self, elements: Sequence):
        if len(elements) == 0:
            raise DomainError("a measurement needs at least one element")
        mats = [_as_square_complex(el, f"measurement element {k}") for k, el in enumerate(elements)]
        if any(arr.shape != mats[0].shape for arr in mats):
            raise DimensionError("measurement elements have mixed dimensions")
        # np.stack is the one copy: the measurement never aliases the caller's arrays
        stack = self._by_construction(np.stack(mats)).elements
        for k, arr in enumerate(stack):
            if np.linalg.eigvalsh(arr).min() < -PSD_TOL:
                raise DomainError(f"measurement element {k} is not positive semidefinite")
        object.__setattr__(self, "elements", stack)

    @classmethod
    def _by_construction(cls, stack: np.ndarray) -> "POVM":
        """A measurement from a fresh complex ``(N, d, d)`` stack of elements
        that are positive semidefinite by construction: every check of
        ``__init__`` but its O(d^3) eigenvalue tests, which the tests run on
        each sampler's output instead. The measurement takes ``stack`` over
        and freezes it, so no caller may keep it."""
        total = np.zeros(stack.shape[1:], dtype=complex)
        for k, arr in enumerate(stack):
            _as_square_complex(arr, f"measurement element {k}")
            if np.abs(arr - arr.conj().T).max() > HERMITIAN_TOL:
                raise DomainError(f"measurement element {k} is not Hermitian")
            total += arr
        if np.abs(total - np.eye(stack.shape[1])).max() > TRACE_TOL:
            raise DomainError("measurement elements do not sum to the identity")
        stack.setflags(write=False)
        povm = object.__new__(cls)
        object.__setattr__(povm, "elements", stack)
        return povm

    @property
    def outcome_count(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def probabilities(self, rho: DensityMatrix) -> OutcomeDistribution:
        if rho.dim != self.dim:
            raise DimensionError(f"state is {rho.dim}-d, measurement is {self.dim}-d")
        p = [float(np.real(np.trace(m @ rho.matrix))) for m in self.elements]
        return OutcomeDistribution(p)


def _chain_classes(ascending: np.ndarray, tol: float) -> np.ndarray:
    """Class labels 0, 1, ... of ``ascending`` values: a class starts at every
    value at least ``tol`` above its predecessor, so ``tol <= 0`` splits all."""
    labels = np.zeros(ascending.size, dtype=np.int64)
    # a difference beyond the double range rounds to inf, which still
    # compares as >= tol, so the overflow it warns of changes no label
    with np.errstate(over="ignore"):
        labels[1:] = np.diff(ascending) >= tol
    return np.cumsum(labels, out=labels)


@dataclass(frozen=True, eq=False)
class HamiltonianSpectrum:
    """Spectral data of a Hamiltonian: ascending eigenvalues, a unitary of
    eigenvector columns, and the eigenspace label of each index. Neighbours
    closer than DEGENERACY_REL_TOL times the spectral range chain into one
    eigenspace; a chain wider than that tolerance is rejected as ambiguous."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    space_of_index: np.ndarray

    def __init__(self, eigenvalues, eigenvectors=None):
        vals = typed_array(eigenvalues, "eigenvalues")
        if vals.ndim != 1 or vals.size < 1:
            raise DomainError(f"eigenvalues must be a nonempty 1-d list, got shape {vals.shape}",
                              name="eigenvalues")
        if np.any(np.diff(vals) < 0):
            raise DomainError("eigenvalues must be ascending", name="eigenvalues")
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
        degeneracy_tol = DEGENERACY_REL_TOL * spread if spread > 0 else math.inf
        labels = _chain_classes(vals, degeneracy_tol)
        sizes = np.bincount(labels)
        last = np.cumsum(sizes) - 1
        chained = vals[last] - vals[last - sizes + 1]
        # a tolerance that underflows to 0 leaves only singletons, never ambiguous
        wide = chained[(chained >= degeneracy_tol) & (chained > 0)]
        if wide.size:
            raise DomainError(
                "eigenvalue clustering is ambiguous at this tolerance "
                f"(chained spread {wide[0]:.3e})", name="eigenvalues"
            )
        vals = vals.copy()
        vecs = vecs.copy()
        for arr in (vals, vecs, labels):
            arr.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)
        object.__setattr__(self, "space_of_index", labels)

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
        return int(self.space_of_index[-1]) + 1

    @cached_property
    def eigenspace_energies(self) -> np.ndarray:
        """Representative (mean) energy per eigenspace, ascending."""
        labels = self.space_of_index
        return np.bincount(labels, weights=self.eigenvalues) / np.bincount(labels)

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
        # no gaps at all (one eigenspace) counts as 1
        return int(np.bincount(self.class_of).max(initial=1))


def gap_table(spectrum: HamiltonianSpectrum, gap_tol: float | None = None) -> GapTable:
    """Enumerate and cluster the energy gaps of a spectrum.

    Gaps are taken between distinct eigenspaces only: degenerate levels
    contribute one gap per eigenspace pair, and the zero gaps internal to an
    eigenspace are excluded. Sorted gaps chain into one class while
    consecutive ones differ by less than ``gap_tol`` (default: GAP_REL_TOL
    times the spectral range), the rule that also chains eigenvalues into
    eigenspaces; at a tolerance of 0 every gap is its own class. A given
    ``gap_tol`` must be finite and nonnegative.
    """
    if gap_tol is None:
        gap_tol = GAP_REL_TOL * spectrum.spectral_range
    else:
        gap_tol = typed_scalar(gap_tol, "gap_tol", least=0.0)
    energies = spectrum.eigenspace_energies
    s = energies.size
    n, j = np.nonzero(~np.eye(s, dtype=bool))
    values = energies[n] - energies[j]
    order = np.argsort(values, kind="stable")
    class_of = np.empty(values.size, dtype=np.int64)
    class_of[order] = _chain_classes(values[order], gap_tol)
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
    return gap_table(spectrum, gap_tol).max_degeneracy


def gap_degeneracy_sensitivity(table: GapTable) -> dict[float, int]:
    """Largest gap-class size when the gaps of ``table`` are re-clustered at
    0.1, 1 and 10 times its tolerance, keyed by the factor. The value at 1 is
    ``table.max_degeneracy``; a spread across factors means the degeneracy
    hinges on the tolerance."""
    ascending = np.sort(table.values)
    degeneracy = {}
    for factor in (0.1, 1.0, 10.0):
        labels = _chain_classes(ascending, factor * table.tolerance)
        # no gaps at all (one eigenspace) counts as 1, as in GapTable
        degeneracy[factor] = int(np.bincount(labels).max(initial=1))
    return degeneracy


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
    # a pinching of a positive semidefinite matrix
    return DensityMatrix._by_construction(0.5 * (out + out.conj().T))


def eigenspace_weights(rho: DensityMatrix, spectrum: HamiltonianSpectrum) -> np.ndarray:
    """Population of each energy eigenspace, tr(P_s rho)."""
    if rho.dim != spectrum.dim:
        raise DimensionError(f"state is {rho.dim}-d, spectrum is {spectrum.dim}-d")
    vecs = spectrum.eigenvectors
    if rho.vector is not None:
        # a pure state's weights are |psi^H V|^2, one d^2 product
        amplitudes = rho.vector.conj() @ vecs
        diag = amplitudes.real**2 + amplitudes.imag**2
    else:
        # the diagonal of V^H rho V alone, (V^H rho V)_nn = sum_a conj(V_an)
        # (rho V)_an: one d^3 product instead of two
        diag = (vecs.conj() * (rho.matrix @ vecs)).sum(axis=0).real
    return np.bincount(spectrum.space_of_index, weights=diag)


def effective_dimension(rho: DensityMatrix, spectrum: HamiltonianSpectrum) -> float:
    """Inverse participation ratio over energy eigenspaces.

    Roughly the number of eigenspaces the state populates significantly; 1
    for an energy eigenstate, the full dimension for the maximally mixed
    state of a nondegenerate Hamiltonian.
    """
    weights = eigenspace_weights(rho, spectrum)
    # clamped: the rounded weights of an eigenstate can give 1/sum(w^2) < 1
    return max(1.0, 1.0 / float(np.sum(weights**2)))


def equilibration_bound(outcomes: int, gap_degeneracy: int, effective_dim: float) -> float:
    """Bound on the time-averaged distinguishability from spectral data:
    (1/2) sqrt(gap_degeneracy * (outcomes - 1) / effective_dim)."""
    typed_scalar(outcomes, "outcomes", int, least=1)
    typed_scalar(gap_degeneracy, "gap_degeneracy", int, least=1)
    typed_scalar(effective_dim, "effective_dim", least=1.0)
    return 0.5 * math.sqrt(gap_degeneracy * (outcomes - 1) / effective_dim)


def max_outcomes_for_equilibration(
    epsilon: float, effective_dim: float, gap_degeneracy: int
) -> int:
    """Largest measurement size that still guarantees epsilon-equilibration:
    floor(4 * effective_dim * epsilon^2 / gap_degeneracy + 1)."""
    check_epsilon(epsilon)
    typed_scalar(effective_dim, "effective_dim", least=1.0)
    typed_scalar(gap_degeneracy, "gap_degeneracy", int, least=1)
    value = 4.0 * effective_dim * epsilon * epsilon / gap_degeneracy + 1.0
    if not math.isfinite(value):
        raise DomainError(f"4 d_eff eps^2 / D_G + 1 exceeds the largest float, "
                          f"{sys.float_info.max:.3e}, at d_eff={effective_dim!r}")
    return int(math.floor(value + 1e-12))


def _check_dimensions(
    rho: DensityMatrix, spectrum: HamiltonianSpectrum, elements: np.ndarray
) -> int:
    """The dimension d that the state, the spectrum and the ``(N, d, d)``
    element stack share, else a DimensionError naming all three."""
    d = spectrum.dim
    if rho.dim != d or elements.shape[1:] != (d, d):
        raise DimensionError(
            f"inconsistent dimensions: state {rho.dim}, spectrum {d}, "
            f"measurement {elements.shape[-1]}"
        )
    return d


def _energy_coefficients(
    rho: DensityMatrix, spectrum: HamiltonianSpectrum, elements: np.ndarray
) -> np.ndarray:
    """The ``(d, N, d)`` tensor ``coeff[n, j, m] = rho_nm (M_j)_mn`` in the
    energy basis, for an ``(N, d, d)`` stack of measurement elements: the one
    place an element enters that basis. tr(M_j rho_t) is
    sum_{nm} coeff[n, j, m] exp(-i (E_n - E_m) t), and the entries with n in
    eigenspace a and m in b sum to the gap amplitude tr(rho_ab M_j,ba)."""
    d = _check_dimensions(rho, spectrum, elements)
    rho_e = spectrum.to_energy_basis(rho.matrix)
    coeff = np.empty((d, len(elements), d), dtype=complex)
    for j, m in enumerate(elements):
        np.multiply(rho_e, spectrum.to_energy_basis(m).T, out=coeff[:, j])
    return coeff


def _ladder_step(eigenvalues: np.ndarray) -> float:
    """The step delta when the levels are exactly E_0 + delta k in float64,
    k = 0, ..., d - 1, and 0.0 for every other spectrum. Levels ascend, so
    delta > 0 unless all of them are equal, which gives 0.0 as well."""
    if eigenvalues.size < 2:
        return 0.0
    step = eigenvalues[1] - eigenvalues[0]
    exact = np.array_equal(eigenvalues - eigenvalues[0], step * np.arange(eigenvalues.size))
    return float(step) if exact else 0.0


def _unit_phases(tau: np.ndarray, r: np.ndarray, u: np.ndarray) -> None:
    """Write u = exp(-i theta) from tau = theta / 2, which it overwrites with
    tan(theta / 2); with r = -2 / (1 + tau^2), cos theta = -1 - r and
    sin theta = -tau r. Scaling by 2 is exact, so these are the bits of
    2 / (1 + tau^2) - 1 and -2 tau / (1 + tau^2) in five passes."""
    np.tan(tau, out=tau)
    np.multiply(tau, tau, out=r)
    r += 1.0
    np.divide(-2.0, r, out=r)
    np.subtract(-1.0, r, out=u.real)
    np.multiply(tau, r, out=u.imag)


def quantum_probe(
    rho: DensityMatrix, spectrum: HamiltonianSpectrum, povm: POVM
) -> TrajectoryProbe:
    """Probe whose row at time t lists tr(M_j rho_t) for the POVM elements.

    One build rule: this call checks the dimensions and builds nothing
    else, and the first block that needs the energy-basis coefficient
    tensor builds it, once. Every later block samples through it, by the
    polynomial block on an exactly equally spaced spectrum (the spectrum
    decides) and by the bilinear block on any other. Every block needs the
    tensor but one kind: on a spectrum that is no ladder, a state built
    from its vector samples a block of M < 2 (N + 1) d times, while no
    tensor exists, by rotating that vector. phi(t) = V (psi~ o exp(-i E t))
    with psi~ = V^H psi, and p_j = Re phi^H M_j phi, read from the element
    stack as given. That costs 8 (N + 1) d^2 flops a time against the
    tensor's 8 N d^2, but skips the tensor's 2 (N + 1) complex d^3 basis
    changes, 16 (N + 1) d^3 flops."""
    elements = povm.elements
    d = _check_dimensions(rho, spectrum, elements)
    n_out = povm.outcome_count
    step = _ladder_step(spectrum.eigenvalues)
    rotate = None
    if not step and rho.vector is not None:
        vecs = spectrum.eigenvectors
        # psi~ = V^H psi without a conjugate copy of V
        amplitudes = np.conj(rho.vector.conj() @ vecs)
        # flat[b, j*d + a] = (M_j)_ab, a transposed view of the stack: no copy
        rotate = _bilinear_block(elements.reshape(n_out * d, d).T, spectrum.eigenvalues,
                                 amplitudes, vecs.T)
    long_block = 2 * (n_out + 1) * d
    tensor = None

    def _block(times: np.ndarray) -> np.ndarray:
        nonlocal tensor
        if tensor is None:
            if rotate is not None and times.size < long_block:
                return rotate(times)
            coeff = _energy_coefficients(rho, spectrum, elements)
            # flat[n, j*d + m] = coeff[n, j, m], a view of the contiguous
            # tensor, so the sum over n is one GEMM per chunk of times
            tensor = (_polynomial_block(coeff, step) if step else
                      _bilinear_block(coeff.reshape(d, n_out * d), spectrum.eigenvalues))
        return tensor(times)

    return TrajectoryProbe(sample_many=_block, outcome_count=n_out)


def _bilinear_block(flat: np.ndarray, eigenvalues: np.ndarray,
                    amplitudes: np.ndarray | None = None, basis: np.ndarray | None = None):
    """Sample block of any spectrum, in O(N d^2) per time: with rows w(t)
    and the ``(d, N*d)`` operand ``flat``, p_j(t) = Re sum_m conj(w_m)
    (w flat)[j*d + m]. The rows are u = exp(-i E t) against the coefficient
    matrix, or, given ``amplitudes`` psi~ and ``basis`` V^T, phi = (psi~ o u)
    V^T against the transposed element stack."""
    d = eigenvalues.size
    n_out = flat.shape[1] // d
    # A constant shift of the spectrum is a global phase, which moves no
    # probability, but an offset far beyond the spread costs E t the low bits
    # that tell the levels apart. So phases are taken from the lowest level
    # E_0 when every level lies within a factor 2 of it, where each E - E_0
    # is exact (Sterbenz). Elsewhere the shift gains nothing, since E - E_0
    # then rounds by as much as E t does. Halving is exact, so ts * half is
    # exactly theta / 2 for theta = (E - origin) t.
    low, high = eigenvalues[0], eigenvalues[-1]
    within_two = 0.0 < low and high <= 2.0 * low or high < 0.0 and 2.0 * high <= low
    origin = low if within_two else 0.0
    half = 0.5 * (eigenvalues - origin)
    # a chunk's (m, N*d) intermediate holds at most one chunk of entries
    chunk = max(1, core._CHUNK_ENTRIES // (n_out * d))

    def _block(times: np.ndarray) -> np.ndarray:
        out = np.empty((times.size, n_out))
        # Two chunk buffers per block, the GEMM's rows w and its product x,
        # 16 d (N + 1) bytes a row: every other temporary lives in one of
        # them and dies before it is written. On the tensor route u is w,
        # and tau and r (m d doubles each) lie in x. On the rotation route
        # tau and r fill w (2 m d doubles) and u lies in x, until
        # phi = (psi~ o u) V^T overwrites w and the GEMM x.
        rows = min(chunk, times.size)
        w_buf = np.empty(rows * d, dtype=complex)
        x_buf = np.empty(rows * n_out * d, dtype=complex)
        for start in range(0, times.size, chunk):
            ts = times[start : start + chunk]
            m = ts.size
            w = w_buf[: m * d].reshape(m, d)
            x = x_buf[: m * n_out * d].reshape(m, n_out * d)
            if amplitudes is None:
                u, scratch = w, x_buf.view(float)
            else:
                u, scratch = x_buf[: m * d].reshape(m, d), w_buf.view(float)
            tau = scratch[: m * d].reshape(m, d)
            r = scratch[m * d : 2 * m * d].reshape(m, d)
            np.multiply(ts[:, None], half, out=tau)
            _unit_phases(tau, r, u)
            if amplitudes is not None:
                u *= amplitudes
                np.matmul(u, basis, out=w)
            np.matmul(w, flat, out=x)
            # Re(x conj(w)) = x_re w_re + x_im w_im: one real contraction over
            # the interleaved (re, im) views, with no conjugate copy
            np.einsum(
                "tjm,tm->tj",
                x.view(float).reshape(m, n_out, 2 * d),
                w.view(float),
                out=out[start : start + m],
            )
        # clip 1-ulp excursions so strict downstream validation stays happy
        return np.clip(out, 0.0, 1.0, out=out)

    return _block


def _polynomial_block(coeff: np.ndarray, step: float):
    """Sample block of the ladder E_n = E_0 + step n, in O(N d) per time.

    Every gap E_n - E_m is (n - m) step, so with z = exp(-i step t)
    tr(M_j rho_t) = sum_q c_qj z^q, where c_qj sums coeff[n, j, m] over
    n - m = q. Since |z| = 1, c_q z^q + c_-q z^-q has the real part of
    a_q z^q with a_q = c_q + conj(c_-q), so p_j(t) = Re c_0j + Re sum_{q >= 1}
    a_qj z^q: one phase and d - 1 powers of it per time. E_0 is a global
    phase and drops out exactly."""
    d, n_out = coeff.shape[:2]
    # c[q + d - 1, j] = c_qj: each row n of coeff adds its terms at q = n - m
    c = np.zeros((2 * d - 1, n_out), dtype=complex)
    for n in range(d):
        c[n : n + d] += coeff[n, :, ::-1].T
    c0 = c[d - 1].real.copy()
    # a[j, q - 1] = c_q + conj(c_-q) for q = 1, ..., d - 1
    a = (c[d:] + c[d - 2 :: -1].conj()).T.copy()
    half = 0.5 * step
    powers = d - 1
    # at most one chunk of entries in the (d - 1, m) powers and the (N, m) product
    chunk = max(1, core._CHUNK_ENTRIES // max(powers, n_out))

    def _block(times: np.ndarray) -> np.ndarray:
        out = np.empty((times.size, n_out))
        rows = min(chunk, times.size)
        tau_buf, r_buf = np.empty(rows), np.empty(rows)
        z_buf = np.empty(powers * rows, dtype=complex)
        x_buf = np.empty(n_out * rows, dtype=complex)
        for start in range(0, times.size, chunk):
            ts = times[start : start + chunk]
            m = ts.size
            tau, r = tau_buf[:m], r_buf[:m]
            # power-major and contiguous: z[q - 1] is z^q at each time
            z = z_buf[: powers * m].reshape(powers, m)
            x = x_buf[: n_out * m].reshape(n_out, m)
            np.multiply(ts, half, out=tau)
            _unit_phases(tau, r, z[0])
            # doubling: z^(k+1..2k) = z^(1..k) z^k, one contiguous multiply
            k = 1
            while k < powers:
                span = min(k, powers - k)
                np.multiply(z[:span], z[k - 1], out=z[k : k + span])
                k += span
            np.matmul(a, z, out=x)
            np.add(x.real.T, c0, out=out[start : start + m])
        # clip 1-ulp excursions so strict downstream validation stays happy
        return np.clip(out, 0.0, 1.0, out=out)

    return _block


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
    amp = _energy_coefficients(rho, spectrum, proj[None])[:, 0].ravel()
    # block[a*s + b] = tr(rho_ab M_ba), the amplitude of gap E_a - E_b: each
    # eigenspace pair's bin sums its (n, m) entries in row-major order
    labels, s = spectrum.space_of_index, spectrum.eigenspace_count
    pair = (labels[:, None] * s + labels[None, :]).ravel()
    block = np.bincount(pair, amp.real, s * s) + 1j * np.bincount(pair, amp.imag, s * s)
    table = gap_table(spectrum)
    amplitude = block[table.pairs[:, 0] * s + table.pairs[:, 1]]
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
    # psi[k*d + i] = sqrt(lambda_i) (v_i)_k: eigenvector i paired with ancilla level i
    return DensityMatrix.from_vector((vecs * np.sqrt(np.clip(vals, 0.0, None))).reshape(-1))


def partial_trace_ancilla(rho: DensityMatrix, system_dim: int) -> DensityMatrix:
    """Trace out an ancilla of dimension rho.dim / system_dim."""
    typed_scalar(system_dim, "system_dim", int, least=1)
    d = rho.dim
    if d % system_dim != 0:
        raise DimensionError(f"cannot split dimension {d} as system {system_dim} x ancilla")
    da = d // system_dim
    reshaped = rho.matrix.reshape(system_dim, da, system_dim, da)
    # a partial trace of a positive semidefinite matrix
    return DensityMatrix._by_construction(np.einsum("iaja->ij", reshaped))


def extend_hamiltonian(spectrum: HamiltonianSpectrum, ancilla_dim: int) -> HamiltonianSpectrum:
    """Spectral data of H (x) identity: the system Hamiltonian extended by a
    null ancilla. Eigenvalues repeat per ancilla level, so the distinct
    energies, and with them the gap structure, are unchanged."""
    typed_scalar(ancilla_dim, "ancilla_dim", int, least=1)
    vals = np.repeat(spectrum.eigenvalues, ancilla_dim)
    vecs = np.kron(spectrum.eigenvectors, np.eye(ancilla_dim))
    return HamiltonianSpectrum(vals, vecs)


def extend_povm(povm: POVM, ancilla_dim: int) -> POVM:
    """The measurement M_j (x) identity acting on system plus ancilla."""
    typed_scalar(ancilla_dim, "ancilla_dim", int, least=1)
    n, d, a = povm.outcome_count, povm.dim, ancilla_dim
    # stack[j, k, x, l, x] = (M_j)_kl: each M_j (x) I, positive semidefinite
    stack = np.zeros((n, d, a, d, a), dtype=complex)
    stack[:, :, np.arange(a), :, np.arange(a)] = povm.elements
    return POVM._by_construction(stack.reshape(n, d * a, d * a))


# --- seeded generators for random instances ---------------------------------

def _complex_gaussian(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the complex array ``out`` with a + ib, a drawn before b: the
    stream and the bits of ``a + 1j * b``, without its complex temporaries."""
    out.real = rng.normal(size=out.shape)
    out.imag = rng.normal(size=out.shape)
    return out


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    typed_scalar(dim, "dim", int, least=1)
    z = _complex_gaussian(rng, np.empty((dim, dim), dtype=complex))
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
    Both use a Haar-random eigenbasis. ``spacing`` must be positive, with
    a finite top level ``spacing * (dim - 1)``, whatever the kind.
    """
    typed_scalar(dim, "dim", int, least=1)
    typed_scalar(spacing, "spacing", above=0.0)
    if not math.isfinite(spacing * (dim - 1)):
        raise DomainError(f"spacing {spacing!r} overflows at level {dim - 1}", name="spacing")
    rng = seeded_rng(seed)
    if kind == "generic":
        vals = np.sort(rng.uniform(0.0, float(dim), dim))
    elif kind == "equally-spaced":
        vals = spacing * np.arange(dim, dtype=float)
    else:
        raise DomainError(f"unknown spectrum kind {kind!r}", name="kind")
    return HamiltonianSpectrum(vals, haar_unitary(dim, rng))


def random_pure_state(dim: int, seed: int) -> DensityMatrix:
    typed_scalar(dim, "dim", int, least=1)
    rng = seeded_rng(seed)
    psi = _complex_gaussian(rng, np.empty(dim, dtype=complex))
    return DensityMatrix.from_vector(psi)


def random_mixed_state(dim: int, seed: int) -> DensityMatrix:
    typed_scalar(dim, "dim", int, least=1)
    rng = seeded_rng(seed)
    g = _complex_gaussian(rng, np.empty((dim, dim), dtype=complex))
    m = g @ g.conj().T
    # a Gram matrix over its trace
    return DensityMatrix._by_construction(m / np.trace(m))


def random_povm(dim: int, outcomes: int, seed: int) -> POVM:
    """Random positive decomposition of the identity: normalize random PSD
    matrices by the inverse square root of their sum."""
    typed_scalar(dim, "dim", int, least=1)
    typed_scalar(outcomes, "outcomes", int, least=1)
    rng = seeded_rng(seed)
    # the Gram matrices P are written into the stack, then each slot is
    # overwritten by its congruence S P S
    stack = np.empty((outcomes, dim, dim), dtype=complex)
    total = np.zeros((dim, dim), dtype=complex)
    g = np.empty((dim, dim), dtype=complex)
    for p in stack:
        np.matmul(_complex_gaussian(rng, g), g.conj().T, out=p)
        total += p
    del g
    vals, vecs = np.linalg.eigh(total)
    # S = V diag(vals^-1/2) V^H with S the one new d x d array: the scaled
    # columns go into total's buffer and V into its own conjugate
    np.multiply(vecs, 1.0 / np.sqrt(vals), out=total)
    inv_sqrt = total @ np.conjugate(vecs, out=vecs).T
    del vals, vecs
    for p in stack:
        # total's buffer holds each S P in turn
        np.matmul(inv_sqrt, p, out=total)
        np.matmul(total, inv_sqrt, out=p)
    # the checks run with the stack as the only d x d set alive
    del total, inv_sqrt
    return POVM._by_construction(stack)


def projective_povm(dim: int, outcomes: int, seed: int) -> POVM:
    """Projective measurement from a Haar-random basis, its vectors dealt
    round-robin into ``outcomes`` groups."""
    typed_scalar(dim, "dim", int, least=1)
    typed_scalar(outcomes, "outcomes", int, least=1, most=dim)
    rng = seeded_rng(seed)
    u = haar_unitary(dim, rng)
    stack = np.empty((outcomes, dim, dim), dtype=complex)
    for j, p in enumerate(stack):
        # the projector onto outcome j's basis vectors: one product U_j U_j^H
        group = u[:, j::outcomes]
        np.matmul(group, group.conj().T, out=p)
    return POVM._by_construction(stack)


def uneven_povm(dim: int, outcomes: int, leak: float, seed: int) -> POVM:
    """Measurement with one near-identity element: element 0 is
    (1 - leak) * identity and the rest share leak * identity randomly.
    Any state then has a dominant outcome of weight 1 - leak."""
    typed_scalar(leak, "leak", least=0.0, below=1.0)
    typed_scalar(outcomes, "outcomes", int, least=2)
    rest = random_povm(dim, outcomes - 1, seed)
    # nonnegative multiples of the identity and of random_povm's elements
    stack = np.empty((outcomes, dim, dim), dtype=complex)
    stack[0] = (1.0 - leak) * np.eye(dim)
    np.multiply(rest.elements, leak, out=stack[1:])
    return POVM._by_construction(stack)
