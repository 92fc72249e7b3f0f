"""The highly symmetric two-parameter family of qubit-qudit states.

A family member on C^2 (x) C^d (d >= 3) is

    rho = alpha * sum_{i=0,1} sum_{j>=2} |i j><i j|
        + beta  * (P[phi+] + P[phi-] + P[psi+])
        + gamma * P[psi-]

with the four Bell projectors living on the span of |00>, |01>, |10>, |11>
and beta fixed by the unit-trace constraint

    2*(d-2)*alpha + 3*beta + gamma = 1.

On that qubit block the member is beta*I + (gamma - beta)*P[psi-]: a diagonal
plus one real coherence between |01> and |10> (|ij> sits at index i*d + j).
Only this module builds a member or reads a state in that layout, and so it
also holds :func:`twirl`, the projection of any 2 x d state onto the family
that the paper's LOCC protocol (:mod:`qucorr.locc`) carries out stage by stage.

The family is invariant under every identified local unitary pair U (x) U
that preserves the qubit levels {0, 1} of the qudit, which forces the
post-measurement ensemble of any qubit measurement to have an axis-
independent spectrum.  That collapses the measurement optimization and gives
closed forms for every correlation measure.  Those, with the parameters and
their domain, live in :mod:`qucorr.closed_form`, which needs no numpy.  All
entropic quantities are in bits (base-2 logarithms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import MEMBERSHIP_TOL, TwoParamState, _alpha_max, _trace_remainder
from .operators import DensityMatrix


class NotInFamilyError(ValueError):
    """The state is not (within tolerance) a member of the two-parameter family.

    ``residual`` is the Frobenius distance to the closest family member with
    the extracted parameters.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = float(residual)


@dataclass(frozen=True)
class IntermediateWeights:
    """Weights of the half-twirled form: per-level outer weights, the phi-pair
    weight, and the two psi weights."""

    level_weights: tuple[float, ...]
    phi_pair: float
    psi_plus: float
    psi_minus: float


@dataclass(frozen=True)
class TwirlReport:
    output: DensityMatrix
    alpha: float
    gamma: float
    intermediate_weights: IntermediateWeights
    residual: float


def singlet_weight(rho: DensityMatrix) -> float:
    """<psi-| rho |psi->, the family's gamma for any state."""
    return _family_weights(rho)[3]


def _family_weights(rho: DensityMatrix) -> tuple[np.ndarray, float, float, float]:
    """``rho`` read in the member's layout: its 2(d-2) outer diagonal entries, the
    phi-pair weight (rho_00 + rho_{d+1,d+1})/2, and the psi+ and psi- weights
    Re(rho_11 + rho_dd +- (rho_1d + rho_d1))/2."""
    d, m = rho.dim_b, rho.matrix
    diag = m.diagonal().real
    pair, coherence = diag[1] + diag[d], (m[1, d] + m[d, 1]).real
    return (np.concatenate((diag[2:d], diag[d + 2:])), float(0.5 * (diag[0] + diag[d + 1])),
            float(0.5 * (pair + coherence)), float(0.5 * (pair - coherence)))


def build_state(s: TwoParamState) -> DensityMatrix:
    """The member, valid by construction from TwoParamState's domain (alpha, gamma >= -PARAM_TOL,
    beta >= 0, an integer 3 <= d <= 2**1022): finite, real symmetric, eigenvalues >= -1e-12 >=
    -VALIDATION_TOL, trace 1 within 3*PARAM_TOL plus a 2d-term sum's rounding; not validated."""
    return DensityMatrix(dim_b=s.d, matrix=_family_matrix(s))


def _family_matrix(s: TwoParamState) -> np.ndarray:
    """The member's read-only (2d x 2d) matrix, written entry by entry: alpha on the
    outer diagonal and beta*I + (gamma - beta)*P[psi-] on the qubit block."""
    d, beta = s.d, s.beta
    m = np.zeros((2 * d, 2 * d), dtype=complex)
    m.flat[::2 * d + 1] = s.alpha
    m[0, 0] = m[d + 1, d + 1] = beta
    m[1, 1] = m[d, d] = 0.5 * (beta + s.gamma)
    m[1, d] = m[d, 1] = 0.5 * (beta - s.gamma)
    m.flags.writeable = False
    return m


def family_spectrum(s: TwoParamState) -> np.ndarray:
    """Eigenvalues {alpha x 2(d-2), beta x 3, gamma}, sorted descending."""
    lam = np.r_[[s.alpha] * (2 * (s.d - 2)), [s.beta] * 3, s.gamma]
    return np.sort(lam)[::-1]


def marginal_b_spectrum(s: TwoParamState) -> np.ndarray:
    """Spectrum of the qudit marginal: {(3b+g)/2 x 2, 2a x (d-2)}, descending."""
    top = (3.0 * s.beta + s.gamma) / 2.0
    lam = np.r_[top, top, [2.0 * s.alpha] * (s.d - 2)]
    return np.sort(lam)[::-1]


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


def _projected_params(d: int, weights: tuple[np.ndarray, float, float, float]) -> TwoParamState:
    """alpha = mean outer diagonal weight and gamma = singlet weight of a 2 x d state's
    :func:`_family_weights`, clipped to the valid region; raises
    :class:`ParameterOutOfRangeError` for a d outside :func:`_alpha_max`'s rule."""
    alpha_max = _alpha_max(d)
    outer, _, _, gamma = weights
    # A valid state's weights can stray past a bound by the trace and PSD
    # tolerances of validation, so gamma is clipped to what alpha leaves.
    # np.mean's sum and division, without its call overhead.
    alpha = min(max(float(outer.sum()) / outer.size, 0.0), alpha_max)
    gamma = min(max(gamma, 0.0), _trace_remainder(d, alpha, 0.0, 0.0))
    return TwoParamState(d=d, alpha=alpha, gamma=gamma)


def nearest_family_member(rho: DensityMatrix) -> tuple[TwoParamState, float]:
    """Best-guess family parameters for ``rho`` and the Frobenius residual to their
    rebuild, which is compared with ``rho`` but neither validated nor returned."""
    s = _projected_params(rho.dim_b, _family_weights(rho))
    return s, float(np.linalg.norm(rho.matrix - _family_matrix(s)))


def _halfway_weights(weights: tuple[np.ndarray, float, float, float]) -> IntermediateWeights:
    """The weights of the post-swap form (before the cycle average) of
    :func:`qucorr.locc.locc_stages`, from the input's :func:`_family_weights`.  The phase,
    level-sign and swap stages leave every one of them fixed, so the input's are theirs."""
    outer, phi_pair, psi_plus, psi_minus = weights
    levels = 0.5 * (outer[:len(outer) // 2] + outer[len(outer) // 2:])
    return IntermediateWeights(tuple(levels.tolist()), phi_pair, psi_plus, psi_minus)


def twirl(rho: DensityMatrix) -> TwirlReport:
    """Map a 2 x d state onto the family, with the output of
    :func:`qucorr.locc.locc_stages`.

    The output is the family member with gamma = <psi-|rho|psi-> and alpha
    the mean outer diagonal weight of ``rho``: alpha on the outer diagonal and
    beta*I + (gamma - beta)*P[psi-] on the qubit block.  ``residual`` is the
    distance between that output and the family member rebuilt from it.  The
    input is read once, by :func:`_family_weights`.
    """
    weights = _family_weights(rho)
    s = _projected_params(rho.dim_b, weights)
    output = build_state(s)
    _, residual = nearest_family_member(output)
    return TwirlReport(
        output=output,
        alpha=s.alpha,
        gamma=s.gamma,
        intermediate_weights=_halfway_weights(weights),
        residual=residual,
    )


def random_family_state(d: int, rng: np.random.Generator) -> TwoParamState:
    """Uniform rejection sample of (alpha, gamma) from the valid region."""
    alpha_max = _alpha_max(d)
    while True:
        alpha = rng.uniform(0.0, alpha_max)
        gamma = rng.uniform(0.0, 1.0)
        if _trace_remainder(d, alpha, 0.0, gamma) >= 0.0:
            return TwoParamState(d=d, alpha=alpha, gamma=gamma)
