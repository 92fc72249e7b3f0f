"""Dense operator algebra for bipartite qubit-qudit systems.

Everything here works on plain complex numpy matrices in the product basis
|i j> -> row index i*d + j (qubit index i is the major index).  States are
wrapped in :class:`DensityMatrix`, which carries the qudit dimension d; a raw matrix
(a file, a random state, an LOCC stage) becomes one through :func:`validate_density`, a family
member by construction, so downstream code can rely on Hermiticity, trace and positivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import _index

# Validation tolerance for Hermiticity / trace / positivity residuals.
VALIDATION_TOL = 1e-10


class MatrixValidationError(ValueError):
    """A matrix violated one of the density-operator invariants.

    ``residual`` holds the measured size of the violation.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = float(residual)


class DimensionMismatchError(MatrixValidationError):
    """Dims that are not 2 x d or a raw matrix that is not non-empty and square (``residual``
    NaN), or a shape that does not match the dims."""


class NonFiniteError(MatrixValidationError):
    pass


class NonHermitianError(MatrixValidationError):
    pass


class NonUnitTraceError(MatrixValidationError):
    pass


class NotPositiveSemidefiniteError(MatrixValidationError):
    pass


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A valid bipartite density operator on C^2 (x) C^d.

    ``dim_b`` is d, an ``int`` >= 2 (the qubit's 2 is fixed, not stored); ``matrix`` is a
    read-only (2d x 2d) complex array in the |i j> -> i*d + j basis.  Immutable and
    thread-safe; made by :func:`validate_density` or :func:`qucorr.family.build_state`.
    Functions that take one trust it and its marginals, whose Hermiticity residual and
    negative eigenvalue can reach 2x (rho_B) or d x (rho_A) the state's: none is rechecked.
    """

    dim_b: int
    matrix: np.ndarray


def _hermiticity_residual(m: np.ndarray) -> float:
    """max |M - M^dag| of a matrix, the one Hermiticity check: :class:`DimensionMismatchError`
    unless it is a non-empty square 2-D array, :class:`NonFiniteError` on any NaN/inf entry,
    :class:`NonHermitianError` above ``VALIDATION_TOL``."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise DimensionMismatchError(f"expected a non-empty square matrix, got shape {m.shape}",
                                     residual=float("nan"))
    bad = ~np.isfinite(m)
    if bad.any():
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NonFiniteError(
            f"not finite: {int(bad.sum())} NaN/inf entries, first {m[where]} at {where}",
            residual=float(bad.sum()))
    # Entries near the double range overflow to an inf residual, which fails.
    with np.errstate(over="ignore"):
        herm = float(np.max(np.abs(m - m.conj().T)))
    if not herm <= VALIDATION_TOL:
        raise NonHermitianError(
            f"not Hermitian: max |M - M^dag| = {herm:.3e} > {VALIDATION_TOL:.1e}", residual=herm)
    return herm


def _psd_spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues; NotPositiveSemidefiniteError if the smallest is < -VALIDATION_TOL."""
    lam = np.linalg.eigvalsh(m)
    if not lam[0] >= -VALIDATION_TOL:
        raise NotPositiveSemidefiniteError(
            f"smallest eigenvalue {lam[0]:.3e} < -{VALIDATION_TOL:.1e}", residual=float(-lam[0]))
    return lam


def _qudit_dim(dim_a: int, dim_b: int) -> int:
    """d of dims (2, d), integers with d >= 2: the one 2 x d rule, else
    :class:`DimensionMismatchError`."""
    if not (_index(dim_a) == 2 and _index(dim_b) >= 2):
        raise DimensionMismatchError(f"a state must be 2 x d with integer d >= 2, got dims "
                                     f"({dim_a!r}, {dim_b!r})", residual=float("nan"))
    return _index(dim_b)


def validate_density(matrix: np.ndarray, dim_a: int, dim_b: int) -> DensityMatrix:
    """Check the density-operator invariants and wrap the matrix.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix of size ``dim_a * dim_b``.
    dim_a, dim_b : int
        Subsystem dimensions 2 and d >= 2, integers (``operator.index`` takes them).

    Returns
    -------
    DensityMatrix

    Raises
    ------
    DimensionMismatchError, NonFiniteError, NonHermitianError,
    NonUnitTraceError, NotPositiveSemidefiniteError
        Named after the violated invariant; each carries the residual.

    The dimensions are checked first, then the shape and finiteness.  Hermiticity,
    the trace and the smallest eigenvalue must then be within ``VALIDATION_TOL``;
    a residual that overflows or cannot be compared fails.  Never renormalizes
    the input; the wrapped matrix is a read-only copy of it.
    """
    dim_a, dim_b = 2, _qudit_dim(dim_a, dim_b)
    m = np.array(matrix, dtype=complex)
    n = dim_a * dim_b
    if m.ndim != 2 or m.shape != (n, n):
        raise DimensionMismatchError(
            f"expected a {n}x{n} matrix for dims ({dim_a}, {dim_b}), got shape {m.shape}",
            residual=float(abs(m.size - n * n)),
        )
    _hermiticity_residual(m)
    with np.errstate(over="ignore", invalid="ignore"):
        tr = complex(np.trace(m))
    tr_resid = abs(tr - 1.0)
    if not tr_resid <= VALIDATION_TOL:
        raise NonUnitTraceError(
            f"trace is {tr:.12g}, |tr - 1| = {tr_resid:.3e} > {VALIDATION_TOL:.1e}",
            residual=tr_resid)
    _psd_spectrum(m)
    m.flags.writeable = False
    return DensityMatrix(dim_b=dim_b, matrix=m)


def partial_trace_a(rho: DensityMatrix) -> np.ndarray:
    """Trace out the qubit factor, returning the d x d marginal of side B."""
    return np.einsum('ijil->jl', rho.matrix.reshape(2, rho.dim_b, 2, rho.dim_b))


def partial_trace_b(rho: DensityMatrix) -> np.ndarray:
    """Trace out the qudit factor, returning the 2 x 2 marginal of side A."""
    return np.einsum('ijkj->ik', rho.matrix.reshape(2, rho.dim_b, 2, rho.dim_b))


def partial_transpose_a(rho: DensityMatrix) -> np.ndarray:
    """Transpose the qubit indices only; Hermitian and trace-1 but possibly indefinite."""
    d = rho.dim_b
    return rho.matrix.reshape(2, d, 2, d).transpose(2, 1, 0, 3).reshape(2 * d, 2 * d)


def negativity_trace_norm(rho: DensityMatrix) -> float:
    """Negativity -2 sum(min(lambda, 0)) over the partially transposed spectrum: twice its
    negative mass, which is ||rho^(T_A)||_1 - 1 at unit trace.  Exactly +0.0 iff no
    eigenvalue is negative, also at a trace that is 1 only to ``VALIDATION_TOL``."""
    return _negativity(np.linalg.eigvalsh(partial_transpose_a(rho)))


def _negativity(pt_spectrum: np.ndarray) -> float:
    """``negativity_trace_norm`` from the spectrum of the partial transpose."""
    # 0.0 - x, not -x: with no negative eigenvalue the sum is 0.0 and -2 * 0.0 is -0.0.
    return 0.0 - 2.0 * float(np.sum(np.minimum(pt_spectrum, 0.0)))


def _spectral_entropy(lam: np.ndarray) -> np.ndarray:
    """-sum(lam * log2(lam)) in bits over a spectrum's last axis, lam clipped to [0, 1]
    and 0*log2(0) taken as 0."""
    lam = np.minimum(np.maximum(lam, 0.0), 1.0)
    # 0.0 - x, not -x: a pure spectrum's sum is 0.0, and -0.0 is not an entropy.
    return 0.0 - (lam * np.log2(np.where(lam > 0.0, lam, 1.0))).sum(axis=-1)


def _state_entropy(m: np.ndarray) -> float:
    """Entropy in bits of a state or marginal, its clipped spectrum rescaled to unit sum."""
    return _rescaled_entropy(np.linalg.eigvalsh(m))


def _rescaled_entropy(lam: np.ndarray) -> float:
    """Entropy in bits of a state's spectrum ``lam``, clipped and rescaled to unit sum."""
    # At the edge of validation the clipped spectrum sums to 1 + O(d VALIDATION_TOL),
    # which makes I negative unless it is rescaled.  Steered blocks are not rescaled:
    # a degenerate outcome's block is near zero, and its sum would divide by ~0.
    lam = np.minimum(np.maximum(lam, 0.0), 1.0)
    return float(_spectral_entropy(lam / lam.sum()))


def von_neumann_entropy(m: np.ndarray) -> float:
    """Entropy -sum(lam * log2(lam)) of a density operator, in bits.

    Checked as :func:`validate_density` checks a state, but for the trace: NaN/inf
    entries raise :class:`NonFiniteError`, a Hermiticity residual above ``VALIDATION_TOL``
    :class:`NonHermitianError`, and an eigenvalue below ``-VALIDATION_TOL``
    :class:`NotPositiveSemidefiniteError`; eigenvalues in [-VALIDATION_TOL, 0) count as 0.
    """
    m = np.asarray(m, dtype=complex)
    _hermiticity_residual(m)
    return float(_spectral_entropy(_psd_spectrum(m)))


def quantum_mutual_information(rho: DensityMatrix) -> float:
    """Total correlations S(rho_A) + S(rho_B) - S(rho) in bits."""
    return (_state_entropy(partial_trace_b(rho)) + _state_entropy(partial_trace_a(rho))
            - _state_entropy(rho.matrix))


def commutator_condition(rho: DensityMatrix) -> float:
    """Frobenius norm of [rho, rho_A (x) I].

    A strictly positive value certifies that the state carries quantum
    discord; a zero value decides nothing (the criterion is one-directional).
    """
    rho_a = partial_trace_b(rho)
    big = np.kron(rho_a, np.eye(rho.dim_b))
    comm = rho.matrix @ big - big @ rho.matrix
    return float(np.linalg.norm(comm))


def random_density_matrix(dim_a: int, dim_b: int,
                          rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random 2 x d state G G^dag / tr(G G^dag) with complex Gaussian G.
    Dims that are not 2 x d raise :class:`DimensionMismatchError` before the draw."""
    n = 2 * _qudit_dim(dim_a, dim_b)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return validate_density(m, dim_a, dim_b)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a complex Gaussian matrix.

    The R-diagonal phases are folded back into Q so the distribution is
    exactly Haar rather than QR-convention dependent.
    """
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
