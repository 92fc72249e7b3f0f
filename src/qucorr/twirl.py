"""LOCC twirling of arbitrary qubit-qudit states into the two-parameter family.

The paper's protocol is a fixed sequence of "do U (x) U with probability p,
else do nothing" rounds.  Each stage unitary maps the singlet to a phase
multiple of itself and preserves the diagonal weight outside the qubit
block, so the output parameters are determined by the input:

    gamma_out = <psi-| rho_in |psi->      alpha_out = (outer diagonal mass) / (2d - 4)

:func:`twirl` therefore computes the output directly as this closed-form
projection: the family member with those two parameters.

:func:`locc_stages` keeps the stage sequence itself, realized as exact convex
mixtures rather than sampled trajectories, as the reference the projection
is tested against.  One full pass produces a state that is Bell-diagonal on
the qubit block; the second pass equalizes the three triplet weights
exactly, after which the state is the projection up to floating-point
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import DensityMatrix, random_unitary, tensor, validate_density
from .family import (
    TwoParamState,
    bell_vectors,
    build_state,
    nearest_family_member,
)


class LevelOutOfRangeError(ValueError):
    """Sign-flip level must lie in {2, ..., d-1}."""


@dataclass(frozen=True)
class LocalUnitary:
    """An identified local pair: a 2x2 unitary and a d x d unitary acting alike
    on the qudit levels {0, 1}."""

    name: str
    matrix_a: np.ndarray
    matrix_b: np.ndarray

    def __post_init__(self):
        for m in (self.matrix_a, self.matrix_b):
            n = m.shape[0]
            if np.max(np.abs(m @ m.conj().T - np.eye(n))) > 1e-12:
                raise ValueError(f"{self.name}: factor is not unitary to 1e-12")

    def full(self) -> np.ndarray:
        return tensor(self.matrix_a, self.matrix_b)


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


def u_theta(theta: float, d: int) -> LocalUnitary:
    """Phase ladder |j> -> e^(i*theta*j) |j> on both factors."""
    if d < 3:
        raise ValueError(f"qudit dimension must be >= 3, got d={d}")
    phases = np.exp(1j * theta * np.arange(d))
    return LocalUnitary(name=f"u_theta({theta:g})",
                        matrix_a=np.diag(phases[:2]),
                        matrix_b=np.diag(phases))


def level_sign(k: int, d: int) -> LocalUnitary:
    """Sign flip of qudit level k (k >= 2); acts as the identity on the qubit."""
    if not 2 <= k <= d - 1:
        raise LevelOutOfRangeError(f"level k={k} outside {{2, ..., {d - 1}}}")
    diag = np.ones(d, dtype=complex)
    diag[k] = -1.0
    return LocalUnitary(name=f"level_sign({k})",
                        matrix_a=np.eye(2, dtype=complex),
                        matrix_b=np.diag(diag))


def swap01(d: int) -> LocalUnitary:
    """Exchange of levels 0 and 1 on both factors."""
    b = np.eye(d, dtype=complex)
    b[0, 0] = b[1, 1] = 0.0
    b[0, 1] = b[1, 0] = 1.0
    return LocalUnitary(name="swap01", matrix_a=b[:2, :2].copy(), matrix_b=b)


def cycle_t(d: int) -> LocalUnitary:
    """Cyclic shift of the qudit levels 2, ..., d-1; identity on the qubit."""
    b = np.zeros((d, d), dtype=complex)
    b[0, 0] = b[1, 1] = 1.0
    for j in range(2, d):
        b[2 + (j - 1) % (d - 2), j] = 1.0
    return LocalUnitary(name="cycle_t", matrix_a=np.eye(2, dtype=complex), matrix_b=b)


def hadamard(d: int) -> LocalUnitary:
    """Hadamard on levels 0 and 1 of both factors; identity elsewhere."""
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    b = np.eye(d, dtype=complex)
    b[:2, :2] = h2
    return LocalUnitary(name="hadamard", matrix_a=h2, matrix_b=b)


def _mix(rho: DensityMatrix, unitary: LocalUnitary, p: float) -> DensityMatrix:
    """Exact convex mixture p * U rho U^dag + (1-p) * rho."""
    u = unitary.full()
    mixed = p * (u @ rho.matrix @ u.conj().T) + (1.0 - p) * rho.matrix
    return validate_density(mixed, rho.dim_a, rho.dim_b)


def phase_mix(rho: DensityMatrix, theta: float) -> DensityMatrix:
    """Apply the phase ladder with probability 1/2."""
    return _mix(rho, u_theta(theta, rho.dim_b), 0.5)


def level_sign_mix(rho: DensityMatrix, k: int) -> DensityMatrix:
    """Flip the sign of qudit level k with probability 1/2, erasing its coherences."""
    return _mix(rho, level_sign(k, rho.dim_b), 0.5)


def swap_mix(rho: DensityMatrix) -> DensityMatrix:
    """Exchange levels 0 and 1 on both sides with probability 1/2."""
    return _mix(rho, swap01(rho.dim_b), 0.5)


def t_twirl(rho: DensityMatrix) -> DensityMatrix:
    """Average over all powers of the outer-level cycle, equalizing the outer weights."""
    d = rho.dim_b
    t = cycle_t(d)
    acc = np.zeros_like(rho.matrix)
    u = np.eye(2 * d, dtype=complex)
    step = t.full()
    for _ in range(d - 2):
        acc += u @ rho.matrix @ u.conj().T
        u = step @ u
    return validate_density(acc / (d - 2), rho.dim_a, rho.dim_b)


def hadamard_mix(rho: DensityMatrix) -> DensityMatrix:
    """Apply the two-sided Hadamard with probability 2/3."""
    return _mix(rho, hadamard(rho.dim_b), 2.0 / 3.0)


def locc_stages(rho: DensityMatrix) -> list[tuple[str, DensityMatrix]]:
    """The paper's protocol: two full passes of the stage sequence, returning
    every stage output in order.  The last snapshot is the twirled state."""
    d = rho.dim_b
    out: list[tuple[str, DensityMatrix]] = []
    for _ in range(2):
        rho = phase_mix(rho, np.pi)
        out.append(("phase(pi)", rho))
        for k in range(2, d):
            rho = level_sign_mix(rho, k)
            out.append((f"level_sign({k})", rho))
        rho = phase_mix(rho, np.pi / 2.0)
        out.append(("phase(pi/2)", rho))
        rho = swap_mix(rho)
        out.append(("swap01", rho))
        rho = t_twirl(rho)
        out.append(("cycle_avg", rho))
        rho = hadamard_mix(rho)
        out.append(("hadamard", rho))
    return out


def _halfway_weights(rho: DensityMatrix) -> IntermediateWeights:
    """Read the diagonal weights of the post-swap form (before the cycle average).

    The phase, level-sign and swap stages leave every one of these weights
    fixed, so reading them from the input gives the same values.
    """
    d = rho.dim_b
    diag = np.real(np.diagonal(rho.matrix))
    levels = tuple(float(0.5 * (diag[j] + diag[d + j])) for j in range(2, d))
    _, _, psi_p, psi_m = bell_vectors(d)
    return IntermediateWeights(
        level_weights=levels,
        phi_pair=float(0.5 * (diag[0] + diag[d + 1])),
        psi_plus=float(np.real(psi_p.conj() @ rho.matrix @ psi_p)),
        psi_minus=float(np.real(psi_m.conj() @ rho.matrix @ psi_m)),
    )


def twirl(rho: DensityMatrix) -> TwirlReport:
    """Map a 2 x d state onto the family, with the output of :func:`locc_stages`.

    The output is the family member with gamma = <psi-|rho|psi-> and alpha
    the mean outer diagonal weight of ``rho``.  ``residual`` is the distance
    between that output and the family member rebuilt from it.
    """
    if rho.dim_a != 2 or rho.dim_b < 3:
        raise ValueError(f"twirl needs a 2 x d state with d >= 3, got dims {rho.dims}")
    s, _ = nearest_family_member(rho)
    output = build_state(s)
    _, residual = nearest_family_member(output)
    return TwirlReport(
        output=output,
        alpha=s.alpha,
        gamma=s.gamma,
        intermediate_weights=_halfway_weights(rho),
        residual=residual,
    )


def random_local_unitary(d: int, rng: np.random.Generator) -> LocalUnitary:
    """Haar-random identified pair preserving span{|0>, |1>} and its complement.

    The 2x2 block is shared between the qubit factor and the qudit's first
    two levels; the complement block is an independent Haar unitary.
    """
    v = random_unitary(2, rng)
    b = np.zeros((d, d), dtype=complex)
    b[:2, :2] = v
    b[2:, 2:] = random_unitary(d - 2, rng)
    return LocalUnitary(name="random_block", matrix_a=v, matrix_b=b)


def check_family_invariance(s: TwoParamState, trials: int, seed: int) -> float:
    """Max Frobenius change of a family member under random identified local pairs.

    Values at rounding level certify the family's invariance; generic states
    move by order one.
    """
    rho = build_state(s)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = random_local_unitary(s.d, rng).full()
        moved = u @ rho.matrix @ u.conj().T
        worst = max(worst, float(np.linalg.norm(rho.matrix - moved)))
    return worst
