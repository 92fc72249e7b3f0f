"""LOCC twirling of arbitrary qubit-qudit states into the two-parameter family.

The paper's protocol is a fixed sequence of "do U (x) U with probability p,
else do nothing" rounds.  Each stage unitary maps the singlet to a phase
multiple of itself and preserves the diagonal weight outside the qubit
block, so the output parameters are determined by the input:

    gamma_out = <psi-| rho_in |psi->      alpha_out = (outer diagonal mass) / (2d - 4)

:func:`twirl` therefore computes the output directly as this closed-form
projection: the family member with those two parameters.

:func:`locc_stages` keeps the stage sequence itself, as exact convex mixtures
rather than sampled trajectories, as the reference the projection is tested
against.  One pass is this table; each stage applies the mixture
rho -> sum_k p_k U_k rho U_k^dag with U_k = b_k[:2, :2] (x) b_k:

    phase(pi)                   {(1/2, I), (1/2, diag(e^(i pi j)))}
    level_sign(k), k = 2..d-1   {(1/2, I), (1/2, I - 2|k><k|)}
    phase(pi/2)                 {(1/2, I), (1/2, diag(e^(i pi j / 2)))}
    swap01                      {(1/2, I), (1/2, levels 0 and 1 exchanged)}
    cycle_avg                   {(1/(d-2), T^k)}, k = 0..d-3, T: 2 -> 3 -> ... -> d-1 -> 2
    hadamard                    {(1/3, I), (2/3, Hadamard on levels 0 and 1)}

One full pass produces a state that is Bell-diagonal on the qubit block; the
second pass equalizes the three triplet weights exactly, after which the
state is the projection up to floating-point rounding.

The package re-exports the function :func:`twirl` under this module's name,
so ``import qucorr.twirl as T`` binds the function; ``from qucorr.twirl
import ...`` still reaches the module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import DensityMatrix, random_unitary, tensor, validate_density
from .family import (
    TwoParamState,
    _projected_params,
    bell_vectors,
    build_state,
    nearest_family_member,
)


@dataclass(frozen=True)
class LocalUnitary:
    """An identified local pair: a d x d unitary ``matrix_b`` whose {0, 1}
    block, the qubit factor ``matrix_a``, is unitary too, so that the pair is
    block-diagonal and acts alike on the qubit and the qudit levels {0, 1}."""

    name: str
    matrix_b: np.ndarray

    def __post_init__(self):
        for m in (self.matrix_b, self.matrix_a):
            n = m.shape[0]
            if not np.max(np.abs(m @ m.conj().T - np.eye(n))) <= 1e-12:
                raise ValueError(f"{self.name}: factor is not unitary to 1e-12")

    @property
    def matrix_a(self) -> np.ndarray:
        return self.matrix_b[:2, :2]

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


def _stage_table(d: int) -> list[tuple[str, list[tuple[float, np.ndarray]]]]:
    """One pass of the protocol: (stage name, [(p_k, qudit unitary b_k)]) rows."""
    eye = np.eye(d, dtype=complex)

    def coin(p: float, b: np.ndarray) -> list[tuple[float, np.ndarray]]:
        return [(1.0 - p, eye), (p, b)]

    cycle = eye[[0, 1, d - 1, *range(2, d - 1)]]   # outer levels j -> j+1, d-1 -> 2
    hadamard = eye.copy()
    hadamard[:2, :2] = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return [
        ("phase(pi)", coin(0.5, np.diag(np.exp(1j * np.pi * np.arange(d))))),
        *((f"level_sign({k})", coin(0.5, eye * np.where(np.arange(d) == k, -1.0, 1.0)))
          for k in range(2, d)),
        ("phase(pi/2)", coin(0.5, np.diag(np.exp(1j * (np.pi / 2.0) * np.arange(d))))),
        ("swap01", coin(0.5, eye[[1, 0, *range(2, d)]])),
        ("cycle_avg", [(1.0 / (d - 2), np.linalg.matrix_power(cycle, k)) for k in range(d - 2)]),
        ("hadamard", coin(2.0 / 3.0, hadamard)),
    ]


def _apply(rho: DensityMatrix, name: str,
           mixture: list[tuple[float, np.ndarray]]) -> DensityMatrix:
    """One stage: sum_k p_k U_k rho U_k^dag with U_k = b_k[:2, :2] (x) b_k, validated."""
    m = np.zeros_like(rho.matrix)
    for p, b in mixture:
        u = LocalUnitary(name, b).full()
        m += p * (u @ rho.matrix @ u.conj().T)
    return validate_density(m, rho.dim_a, rho.dim_b)


def locc_stages(rho: DensityMatrix) -> list[tuple[str, DensityMatrix]]:
    """The paper's protocol: two full passes of the stage table, returning
    every stage output in order.  The last snapshot is the twirled state."""
    if rho.dim_a != 2 or rho.dim_b < 3:
        raise ValueError(f"locc_stages needs a 2 x d state with d >= 3, got dims {rho.dims}")
    out: list[tuple[str, DensityMatrix]] = []
    for name, mixture in 2 * _stage_table(rho.dim_b):
        rho = _apply(rho, name, mixture)
        out.append((name, rho))
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
    s = _projected_params(rho)
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
    b = np.zeros((d, d), dtype=complex)
    b[:2, :2] = random_unitary(2, rng)
    b[2:, 2:] = random_unitary(d - 2, rng)
    return LocalUnitary(name="random_block", matrix_b=b)


def check_family_invariance(s: TwoParamState, trials: int, seed: int) -> float:
    """Max Frobenius change of a family member under random identified local pairs.

    Values at rounding level certify the family's invariance; generic states
    move by order one.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rho = build_state(s)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = random_local_unitary(s.d, rng).full()
        moved = u @ rho.matrix @ u.conj().T
        worst = max(worst, float(np.linalg.norm(rho.matrix - moved)))
    return worst
