"""The highly symmetric two-parameter family of qubit-qudit states.

A family member on C^2 (x) C^d (d >= 3) is

    rho = alpha * sum_{i=0,1} sum_{j>=2} |i j><i j|
        + beta  * (P[phi+] + P[phi-] + P[psi+])
        + gamma * P[psi-]

with the four Bell projectors living on the span of |00>, |01>, |10>, |11>
and beta fixed by the unit-trace constraint

    2*(d-2)*alpha + 3*beta + gamma = 1.

The family is invariant under every identified local unitary pair U (x) U
that preserves the qubit levels {0, 1} of the qudit, which forces the
post-measurement ensemble of any qubit measurement to have an axis-
independent spectrum.  That collapses the measurement optimization and gives
closed forms for every correlation measure; this module evaluates them.
All entropic quantities are in bits (base-2 logarithms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import DensityMatrix, validate_density, xlog2x

# Slack allowed on the parameter bounds; keeps boundary grid points valid
# despite float rounding while staying far below the matrix validation tol.
PARAM_TOL = 1e-12

# Frobenius residual under which a state counts as a family member: well
# above eigensolver noise, well below any structural deviation.
MEMBERSHIP_TOL = 1e-8


class ParameterOutOfRangeError(ValueError):
    """A family parameter violates its admissible range."""


class NotInFamilyError(ValueError):
    """The state is not (within tolerance) a member of the two-parameter family.

    ``residual`` is the Frobenius distance to the closest family member with
    the extracted parameters.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = float(residual)


@dataclass(frozen=True)
class TwoParamState:
    """Parameters (d, alpha, gamma) of a family member; beta is derived.

    beta is never stored: it is always computed from the trace constraint,
    which makes the constraint unviolable by construction.
    """

    d: int
    alpha: float
    gamma: float

    def __post_init__(self):
        if self.d < 3:
            raise ParameterOutOfRangeError(
                f"qudit dimension must be >= 3, got d={self.d}")
        alpha_max = 1.0 / (2.0 * (self.d - 2))
        if not -PARAM_TOL <= self.alpha <= alpha_max + PARAM_TOL:
            raise ParameterOutOfRangeError(
                f"alpha={self.alpha!r} outside [0, 1/(2(d-2))] = [0, {alpha_max!r}]")
        if not -PARAM_TOL <= self.gamma <= 1.0 + PARAM_TOL:
            raise ParameterOutOfRangeError(
                f"gamma={self.gamma!r} outside [0, 1]")
        if self.beta < -PARAM_TOL:
            raise ParameterOutOfRangeError(
                f"beta={self.beta!r} < 0 (trace constraint leaves no weight "
                f"for the triplet projectors)")

    @property
    def beta(self) -> float:
        return (1.0 - 2.0 * (self.d - 2) * self.alpha - self.gamma) / 3.0


@dataclass(frozen=True)
class CorrelationReport:
    """Mutual information, classical correlation and discord in bits, plus negativity."""

    mutual_info: float
    classical: float
    discord: float
    negativity: float


def bell_vectors(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four Bell vectors (phi+, phi-, psi+, psi-) embedded in C^2 (x) C^d."""
    def ket(i: int, j: int) -> np.ndarray:
        v = np.zeros(2 * d, dtype=complex)
        v[i * d + j] = 1.0
        return v

    s = np.sqrt(2.0)
    return ((ket(0, 0) + ket(1, 1)) / s, (ket(0, 0) - ket(1, 1)) / s,
            (ket(0, 1) + ket(1, 0)) / s, (ket(0, 1) - ket(1, 0)) / s)


def singlet_weight(rho: DensityMatrix) -> float:
    """<psi-| rho |psi->, the family's gamma for any state."""
    psi_m = bell_vectors(rho.dim_b)[3]
    return float(np.real(psi_m.conj() @ rho.matrix @ psi_m))


def build_state(s: TwoParamState) -> DensityMatrix:
    """Assemble the family member as a validated density matrix."""
    d = s.d
    beta = max(s.beta, 0.0)
    m = np.zeros((2 * d, 2 * d), dtype=complex)
    for i in (0, 1):
        for j in range(2, d):
            m[i * d + j, i * d + j] = s.alpha
    phi_p, phi_m, psi_p, psi_m = bell_vectors(d)
    for w, v in ((beta, phi_p), (beta, phi_m), (beta, psi_p), (s.gamma, psi_m)):
        m += w * np.outer(v, v.conj())
    return validate_density(m, 2, d)


def family_spectrum(s: TwoParamState) -> np.ndarray:
    """Eigenvalues {alpha x 2(d-2), beta x 3, gamma}, sorted descending."""
    lam = np.r_[[s.alpha] * (2 * (s.d - 2)), [s.beta] * 3, s.gamma]
    return np.sort(lam)[::-1]


def marginal_b_spectrum(s: TwoParamState) -> np.ndarray:
    """Spectrum of the qudit marginal: {(3b+g)/2 x 2, 2a x (d-2)}, descending."""
    top = (3.0 * s.beta + s.gamma) / 2.0
    lam = np.r_[top, top, [2.0 * s.alpha] * (s.d - 2)]
    return np.sort(lam)[::-1]


def entropy_b(s: TwoParamState) -> float:
    """Entropy of the qudit marginal in bits."""
    a, b, g, d = s.alpha, s.beta, s.gamma, s.d
    return float(-(d - 2) * xlog2x(2.0 * a) - 2.0 * xlog2x((3.0 * b + g) / 2.0))


def conditional_entropy_closed(s: TwoParamState) -> float:
    """Entropy of either post-measurement qudit state, in bits.

    Any projective qubit measurement steers the qudit into two equiprobable
    states whose common spectrum is {2a x (d-2), 2b, b+g}, so the conditional
    entropy needs no optimization.
    """
    a, b, g, d = s.alpha, s.beta, s.gamma, s.d
    return float(-(d - 2) * xlog2x(2.0 * a) - xlog2x(2.0 * b) - xlog2x(b + g))


def classical_correlation(s: TwoParamState) -> float:
    """Maximal measured mutual information, in bits."""
    b, g = s.beta, s.gamma
    return float(-2.0 * xlog2x((3.0 * b + g) / 2.0) + xlog2x(2.0 * b) + xlog2x(b + g))


def mutual_information(s: TwoParamState) -> float:
    """Total correlations in bits."""
    b, g = s.beta, s.gamma
    t = 3.0 * b + g
    return float(2.0 * t - xlog2x(t) + 3.0 * xlog2x(b) + xlog2x(g))


def discord(s: TwoParamState) -> float:
    """Quantum discord (total minus classical correlations), in bits."""
    b, g = s.beta, s.gamma
    return float(0.5 * xlog2x(2.0 * b) + 0.5 * xlog2x(2.0 * g) - xlog2x(b + g))


def negativity(s: TwoParamState) -> float:
    """Entanglement negativity max{0, 2(d-2)a + 2g - 1}.

    Normalized as trace_norm(partial transpose) - 1, the unique scaling under
    which the singlet scores 1.  Zero exactly on the family's separable
    (= PPT) region.
    """
    return max(0.0, 2.0 * (s.d - 2) * s.alpha + 2.0 * s.gamma - 1.0)


def correlation_report(s: TwoParamState) -> CorrelationReport:
    """Evaluate all four closed-form measures for one family member."""
    return CorrelationReport(
        mutual_info=mutual_information(s),
        classical=classical_correlation(s),
        discord=discord(s),
        negativity=negativity(s),
    )


def classify_family(rho: DensityMatrix) -> TwoParamState:
    """Recover (alpha, gamma) if ``rho`` is a family member.

    alpha is the mean of the 2(d-2) diagonal entries outside the qubit block,
    gamma the singlet weight; membership holds iff rebuilding the family
    state from those parameters reproduces ``rho`` to ``MEMBERSHIP_TOL`` in
    Frobenius norm; otherwise :class:`NotInFamilyError` carries the residual.
    """
    s, residual = nearest_family_member(rho)
    if not residual <= MEMBERSHIP_TOL:
        raise NotInFamilyError(
            f"Frobenius distance {residual:.3e} to nearest family member "
            f"(alpha={s.alpha:.6g}, gamma={s.gamma:.6g}) exceeds {MEMBERSHIP_TOL:.1e}",
            residual=residual)
    return s


def _projected_params(rho: DensityMatrix) -> TwoParamState:
    """alpha = mean outer diagonal weight and gamma = singlet weight of ``rho``,
    clipped into range; raises :class:`ParameterOutOfRangeError` for d < 3."""
    d = rho.dim_b
    if d < 3:
        raise ParameterOutOfRangeError(f"the family needs qudit dimension d >= 3, got d={d}")
    diag = np.real(np.diagonal(rho.matrix))
    outer = [diag[i * d + j] for i in (0, 1) for j in range(2, d)]
    alpha = float(np.mean(outer))
    gamma = singlet_weight(rho)
    # The extracted values can stray below a bound by float rounding only.
    alpha = min(max(alpha, 0.0), 1.0 / (2.0 * (d - 2)))
    gamma = min(max(gamma, 0.0), 1.0)
    return TwoParamState(d=d, alpha=alpha, gamma=gamma)


def nearest_family_member(rho: DensityMatrix) -> tuple[TwoParamState, float]:
    """Best-guess family parameters for ``rho`` and the rebuild residual."""
    s = _projected_params(rho)
    residual = float(np.linalg.norm(rho.matrix - build_state(s).matrix))
    return s, residual


def random_family_state(d: int, rng: np.random.Generator) -> TwoParamState:
    """Uniform rejection sample of (alpha, gamma) from the valid region."""
    alpha_max = 1.0 / (2.0 * (d - 2))
    while True:
        alpha = rng.uniform(0.0, alpha_max)
        gamma = rng.uniform(0.0, 1.0)
        if 1.0 - 2.0 * (d - 2) * alpha - gamma >= 0.0:
            return TwoParamState(d=d, alpha=alpha, gamma=gamma)
