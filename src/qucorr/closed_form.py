"""The two-parameter family's parameters and closed-form correlation measures.

A family member on C^2 (x) C^d (d >= 3) carries the weight alpha on each of the
2(d-2) levels outside the qubit block, beta on each triplet Bell projector and
gamma on the singlet, tied by the unit-trace constraint

    2*(d-2)*alpha + 3*beta + gamma = 1.

Every correlation measure of a member is a closed form in (alpha, beta, gamma)
and d, evaluated here on plain floats: this module imports no numpy, so that
``qucorr corr`` and ``qucorr sweep`` start without it.  :mod:`qucorr.family`
builds the member as a matrix.  All
entropic quantities are in bits (base-2 logarithms): with b = beta, g = gamma and
H2 the binary entropy, C = (3b+g)(1 - H2(1/2 + (b-g)/(2(3b+g)))) is the classical
correlation, D = (b+g)(1 - H2(1/2 + (b-g)/(2(b+g)))) the discord and I = C + D the
mutual information, so I >= 0 and I = C + D hold exactly in floats.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

# Slack allowed on the parameter bounds; keeps boundary grid points valid
# despite float rounding while staying far below the matrix validation tol.
PARAM_TOL = 1e-12

# Frobenius residual under which a state counts as a family member: well
# above eigensolver noise, well below any structural deviation.
MEMBERSHIP_TOL = 1e-8


class ParameterOutOfRangeError(ValueError):
    """A family parameter violates its admissible range."""


def _index(x: int) -> int | float:
    """``operator.index(x)``, or NaN (which fails every comparison) when it raises
    ``TypeError``: for a float, or a numpy array that does not hold one integer."""
    try:
        return operator.index(x)
    except TypeError:
        return math.nan


@dataclass(frozen=True)
class TwoParamState:
    """Parameters (d, alpha, gamma) of a family member; beta is derived.

    beta is never stored: it is computed from the trace constraint, which makes the
    constraint unviolable by construction, and read through :func:`_zero_rounding`.
    d is stored as an ``int``, alpha and gamma as ``float``s, whatever numeric types they came as.
    """

    d: int
    alpha: float
    gamma: float

    def __post_init__(self):
        alpha_max = _alpha_max(self.d)
        object.__setattr__(self, "d", operator.index(self.d))
        if not -PARAM_TOL <= self.alpha <= alpha_max + PARAM_TOL:
            raise ParameterOutOfRangeError(
                f"alpha={self.alpha!r} outside [0, 1/(2(d-2))] = [0, {alpha_max!r}]")
        if not -PARAM_TOL <= self.gamma <= 1.0 + PARAM_TOL:
            raise ParameterOutOfRangeError(
                f"gamma={self.gamma!r} outside [0, 1]")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "gamma", float(self.gamma))
        if self.beta < -PARAM_TOL:
            raise ParameterOutOfRangeError(
                f"beta={self.beta!r} < 0 (trace constraint leaves no weight "
                f"for the triplet projectors)")

    @property
    def beta(self) -> float:
        return _zero_rounding(_trace_remainder(self.d, self.alpha, 0.0, self.gamma) / 3.0)


def _alpha_max(d: int) -> float:
    """The largest alpha, 1/(2(d-2)), and the one rule for the qudit dimension: an
    integer d >= 3 with d <= 2**1022, so that 2(d-2) is a finite double."""
    # A float bound: CPython folds 2.0 ** 1022 at compile time but computes the
    # int 2 ** 1022 on every call.  Comparing it with an int d is exact.
    if not 3 <= _index(d) <= 2.0 ** 1022:
        raise ParameterOutOfRangeError(
            f"the family needs an integer qudit dimension d >= 3 and d <= 2**1022, got d={d}")
    return 1.0 / (2.0 * (d - 2))


def _trace_remainder(d: int, alpha: float, beta: float, gamma: float) -> float:
    """1 - 2(d-2)alpha - 3beta - gamma, zero on the trace constraint.  An unknown
    passed as 0.0 leaves the others' arithmetic as it is, since x - 0.0 is x."""
    return 1.0 - 2.0 * (d - 2) * alpha - 3.0 * beta - gamma


def _zero_rounding(w: float) -> float:
    """A weight from the trace constraint, or 0.0 where it rounds into [-PARAM_TOL, 0)."""
    return 0.0 if -PARAM_TOL <= w < 0.0 else w


def _solve_params(d: int, known: dict[str, float]) -> tuple[float, float, float]:
    """Complete (alpha, beta, gamma) from two known values by the trace constraint;
    ``d`` must have passed :func:`_alpha_max`."""
    names = ("alpha", "beta", "gamma")
    weights = [known.get(name, 0.0) for name in names]
    k = next(i for i, name in enumerate(names) if name not in known)
    weights[k] = _zero_rounding(_trace_remainder(d, *weights) / (2.0 * (d - 2), 3.0, 1.0)[k])
    return tuple(weights)


@dataclass(frozen=True)
class CorrelationReport:
    """Mutual information, classical correlation and discord in bits, plus negativity."""

    mutual_info: float
    classical: float
    discord: float
    negativity: float


def xlog2x(x: float) -> float:
    """x*log2(x) for a scalar, with the continuity convention 0*log2(0) = 0."""
    return x * math.log2(x) if x > 0.0 else 0.0


def _binary_gap(s: float, t: float) -> float:
    """s*(1 - H2((1 + x)/2)) in bits, with x = t/s clamped to [-1, 1], and 0 for
    s <= 0.  C and D have this form, and their sums of xlog2x terms cancel near
    x = 0, so it is evaluated in log1p of x instead: with t passed in directly,
    the relative error stays at rounding level as x -> 0."""
    if s <= 0.0:
        return 0.0
    x = min(abs(t) / s, 1.0)
    if x == 1.0:
        return s
    if x < 0.5:   # (1+x)ln(1+x) + (1-x)ln(1-x), regrouped
        nats = 2.0 * x * math.atanh(x) + math.log1p(-x * x)
    else:
        nats = (1.0 + x) * math.log1p(x) + (1.0 - x) * math.log1p(-x)
    return s * nats / (2.0 * math.log(2.0))


def entropy_b(s: TwoParamState) -> float:
    """Entropy of the qudit marginal in bits."""
    a, b, g, d = s.alpha, s.beta, s.gamma, s.d
    return 0.0 - (d - 2) * xlog2x(2.0 * a) - 2.0 * xlog2x((3.0 * b + g) / 2.0)


def conditional_entropy_closed(s: TwoParamState) -> float:
    """Entropy of either post-measurement qudit state, in bits.

    Any projective qubit measurement steers the qudit into two equiprobable
    states whose common spectrum is {2a x (d-2), 2b, b+g}, so the conditional
    entropy needs no optimization.
    """
    a, b, g, d = s.alpha, s.beta, s.gamma, s.d
    return 0.0 - (d - 2) * xlog2x(2.0 * a) - xlog2x(2.0 * b) - xlog2x(b + g)


def classical_correlation(s: TwoParamState) -> float:
    """Maximal measured mutual information, in bits."""
    b, g = s.beta, s.gamma
    return _binary_gap(3.0 * b + g, b - g)


def mutual_information(s: TwoParamState) -> float:
    """Total correlations in bits, I = C + D with C and D as in the module docstring;
    the sum keeps I >= 0 and its digits where beta -> gamma and both tend to 0."""
    return classical_correlation(s) + discord(s)


def discord(s: TwoParamState) -> float:
    """Quantum discord (total minus classical correlations), in bits."""
    b, g = s.beta, s.gamma
    return _binary_gap(b + g, b - g)


def negativity(s: TwoParamState) -> float:
    """Entanglement negativity max{0, 2(d-2)a + 2g - 1}.

    Normalized as trace_norm(partial transpose) - 1, the unique scaling under
    which the singlet scores 1.  Zero exactly on the family's separable
    (= PPT) region.
    """
    return max(0.0, 2.0 * (s.d - 2) * s.alpha + 2.0 * s.gamma - 1.0)


def correlation_report(s: TwoParamState) -> CorrelationReport:
    """Evaluate all four closed-form measures for one family member."""
    c, q = classical_correlation(s), discord(s)
    return CorrelationReport(mutual_info=c + q, classical=c, discord=q,
                             negativity=negativity(s))
