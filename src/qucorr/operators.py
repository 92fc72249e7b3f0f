"""Dense operator algebra for bipartite qubit-qudit systems.

Everything here works on plain complex numpy matrices in the product basis
|i j> -> row index i*d + j (qubit index i is the major index).  States are
wrapped in :class:`DensityMatrix`, which carries the (2, d) dimension split
and is only produced by :func:`validate_density` so that downstream code can
rely on Hermiticity, unit trace and positivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    pass


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
    """A validated bipartite density operator on C^2 (x) C^d.

    ``matrix`` is a read-only (2d x 2d) complex array in the |i j> -> i*d + j
    basis.  Instances are immutable and safe to share between threads; build
    them through :func:`validate_density`.
    """

    dim_a: int
    dim_b: int
    matrix: np.ndarray

    @property
    def dims(self) -> tuple[int, int]:
        return (self.dim_a, self.dim_b)

    @property
    def total_dim(self) -> int:
        return self.dim_a * self.dim_b


def _freeze(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex)
    out.flags.writeable = False
    return out


def _hermiticity_residual(m: np.ndarray, tol: float = np.inf) -> float:
    """max |M - M^dag| of a square matrix, the one Hermiticity check.

    Raises :class:`NonFiniteError` on any NaN/inf entry and
    :class:`NonHermitianError` unless the residual is at most ``tol``.
    """
    bad = ~np.isfinite(m)
    if bad.any():
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NonFiniteError(
            f"not finite: {int(bad.sum())} NaN/inf entries, first {m[where]} at {where}",
            residual=float(bad.sum()))
    # Entries near the double range overflow to an inf residual, which fails.
    with np.errstate(over="ignore"):
        herm = float(np.max(np.abs(m - m.conj().T)))
    if not herm <= tol:
        raise NonHermitianError(
            f"not Hermitian: max |M - M^dag| = {herm:.3e} > {tol:.1e}", residual=herm)
    return herm


def validate_density(matrix: np.ndarray, dim_a: int, dim_b: int) -> DensityMatrix:
    """Check the density-operator invariants and wrap the matrix.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix of size ``dim_a * dim_b``.
    dim_a, dim_b : int
        Subsystem dimensions; ``dim_a * dim_b`` must match the matrix size.

    Returns
    -------
    DensityMatrix

    Raises
    ------
    NonFiniteError, DimensionMismatchError, NonHermitianError,
    NonUnitTraceError, NotPositiveSemidefiniteError
        Named after the violated invariant; each carries the residual.

    The shape is checked first, then finiteness.  Hermiticity, the trace and
    the smallest eigenvalue must then be within ``VALIDATION_TOL``; a residual
    that overflows or cannot be compared fails.  Never renormalizes the input.
    """
    m = np.asarray(matrix, dtype=complex)
    n = dim_a * dim_b
    if m.ndim != 2 or m.shape != (n, n):
        raise DimensionMismatchError(
            f"expected a {n}x{n} matrix for dims ({dim_a}, {dim_b}), got shape {m.shape}",
            residual=float(abs(m.size - n * n)),
        )
    _hermiticity_residual(m, VALIDATION_TOL)
    with np.errstate(over="ignore", invalid="ignore"):
        tr = complex(np.trace(m))
    tr_resid = abs(tr - 1.0)
    if not tr_resid <= VALIDATION_TOL:
        raise NonUnitTraceError(
            f"trace is {tr:.12g}, |tr - 1| = {tr_resid:.3e} > {VALIDATION_TOL:.1e}",
            residual=tr_resid)
    lam_min = float(np.linalg.eigvalsh(m)[0])
    if not lam_min >= -VALIDATION_TOL:
        raise NotPositiveSemidefiniteError(
            f"smallest eigenvalue {lam_min:.3e} < -{VALIDATION_TOL:.1e}", residual=-lam_min)
    return DensityMatrix(dim_a=dim_a, dim_b=dim_b, matrix=_freeze(m))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, consistent with the |i j> -> i*d + j convention."""
    return np.kron(np.asarray(a), np.asarray(b))


def partial_trace_a(rho: DensityMatrix) -> np.ndarray:
    """Trace out the qubit factor, returning the d x d marginal of side B."""
    r = rho.matrix.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    return np.einsum('ijil->jl', r)


def partial_trace_b(rho: DensityMatrix) -> np.ndarray:
    """Trace out the qudit factor, returning the 2 x 2 marginal of side A."""
    r = rho.matrix.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    return np.einsum('ijkj->ik', r)


def partial_transpose_a(rho: DensityMatrix) -> np.ndarray:
    """Transpose the qubit indices only; Hermitian and trace-1 but possibly indefinite."""
    da, db = rho.dim_a, rho.dim_b
    r = rho.matrix.reshape(da, db, da, db)
    return r.transpose(2, 1, 0, 3).reshape(da * db, da * db)


def negativity_trace_norm(rho: DensityMatrix) -> float:
    """Negativity max{0, ||rho^(T_A)||_1 - 1}: twice the negative mass of the
    partially transposed spectrum.  Zero iff the state is PPT."""
    lam = np.linalg.eigvalsh(partial_transpose_a(rho))
    return max(0.0, float(np.sum(np.abs(lam)) - 1.0))


def hermitian_spectrum(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending.

    Raises :class:`NonFiniteError` on NaN/inf entries and
    :class:`NonHermitianError` if the input deviates from Hermiticity by more
    than ``VALIDATION_TOL``.
    """
    m = np.asarray(m, dtype=complex)
    _hermiticity_residual(m, VALIDATION_TOL)
    return np.linalg.eigvalsh(m)[::-1]


def xlog2x(x: np.ndarray | float) -> np.ndarray | float:
    """Elementwise x*log2(x) with the continuity convention 0*log2(0) = 0."""
    arr = np.asarray(x, dtype=float)
    safe = np.where(arr > 0.0, arr, 1.0)
    out = np.where(arr > 0.0, arr * np.log2(safe), 0.0)
    return out if arr.ndim else float(out)


def von_neumann_entropy(m: np.ndarray) -> float:
    """Entropy -sum(lam * log2(lam)) of a density operator, in bits.

    Eigenvalues in [-VALIDATION_TOL, 0) are treated as exact zeros and all
    eigenvalues are clipped to [0, 1] before the logarithm, so numerically
    tiny negative values never produce NaNs.  Eigenvalues below
    ``-VALIDATION_TOL`` raise :class:`NotPositiveSemidefiniteError`, and NaN/inf
    entries :class:`NonFiniteError`.
    """
    m = np.asarray(m, dtype=complex)
    _hermiticity_residual(m)
    lam = np.linalg.eigvalsh(m)
    if not lam[0] >= -VALIDATION_TOL:
        raise NotPositiveSemidefiniteError(
            f"smallest eigenvalue {lam[0]:.3e} < -{VALIDATION_TOL:.1e}", residual=float(-lam[0]))
    lam = np.clip(lam, 0.0, 1.0)
    return float(-np.sum(xlog2x(lam)))


def quantum_mutual_information(rho: DensityMatrix) -> float:
    """Total correlations S(rho_A) + S(rho_B) - S(rho) in bits."""
    return (von_neumann_entropy(partial_trace_b(rho))
            + von_neumann_entropy(partial_trace_a(rho))
            - von_neumann_entropy(rho.matrix))


def commutator_condition(rho: DensityMatrix) -> float:
    """Frobenius norm of [rho, rho_A (x) I].

    A strictly positive value certifies that the state carries quantum
    discord; a zero value decides nothing (the criterion is one-directional).
    """
    rho_a = partial_trace_b(rho)
    big = tensor(rho_a, np.eye(rho.dim_b))
    comm = rho.matrix @ big - big @ rho.matrix
    return float(np.linalg.norm(comm))


def is_classical_diagonal(rho: DensityMatrix) -> bool:
    """True iff every off-diagonal entry in the product basis has modulus <= VALIDATION_TOL."""
    off = rho.matrix - np.diag(np.diagonal(rho.matrix))
    return bool(np.max(np.abs(off)) <= VALIDATION_TOL)


def random_density_matrix(dim_a: int, dim_b: int,
                          rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random state G G^dag / tr(G G^dag) with complex Gaussian G."""
    n = dim_a * dim_b
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
