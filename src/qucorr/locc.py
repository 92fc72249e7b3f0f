"""The paper's LOCC twirling protocol, stage by stage.

The protocol is a fixed sequence of "do U (x) U with probability p, else do
nothing" rounds.  Each stage unitary maps the singlet to a phase multiple of
itself and preserves the diagonal weight outside the qubit block, so the output
parameters are determined by the input:

    gamma_out = <psi-| rho_in |psi->      alpha_out = (outer diagonal mass) / (2d - 4)

:func:`qucorr.family.twirl` therefore computes the output directly as this
closed-form projection: the family member with those two parameters.

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
state is the projection up to floating-point rounding.  :func:`check_family_invariance`
applies its Haar-random pairs through the same stage applicator, one pair per stage.
"""

from __future__ import annotations

import numpy as np

from .closed_form import TwoParamState, _alpha_max
from .family import build_state
from .operators import DensityMatrix, random_unitary, validate_density


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


def _apply(rho: DensityMatrix, mixture: list[tuple[float, np.ndarray]]) -> DensityMatrix:
    """One stage: sum_k p_k U_k rho U_k^dag with U_k = b_k[:2, :2] (x) b_k, validated; the
    one place in the package that forms an identified pair.  No b_k is checked: the table's
    are fixed and tests/test_twirl.py checks them once; Haar draws are unitary by construction."""
    m = np.zeros_like(rho.matrix)
    for p, b in mixture:
        u = np.kron(b[:2, :2], b)
        m += p * (u @ rho.matrix @ u.conj().T)
    return validate_density(m, 2, rho.dim_b)


def locc_stages(rho: DensityMatrix) -> list[tuple[str, DensityMatrix]]:
    """The paper's protocol on a 2 x d state, d as :func:`_alpha_max` allows: two
    full passes of the stage table, every stage output in order; the last is twirled."""
    _alpha_max(rho.dim_b)
    out: list[tuple[str, DensityMatrix]] = []
    for name, mixture in 2 * _stage_table(rho.dim_b):
        rho = _apply(rho, mixture)
        out.append((name, rho))
    return out


def _random_pair(d: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random identified pair, as its d x d qudit factor b: a Haar 2 x 2 block
    on levels {0, 1}, which b[:2, :2] shares with the qubit, and an independent Haar
    block on levels 2..d-1; so the pair b[:2, :2] (x) b keeps both spans."""
    b = np.zeros((d, d), dtype=complex)
    b[:2, :2] = random_unitary(2, rng)
    b[2:, 2:] = random_unitary(d - 2, rng)
    return b


def check_family_invariance(s: TwoParamState, trials: int, seed: int) -> float:
    """Max Frobenius change of a family member over ``trials`` one-pair stages, each the
    pair of a :func:`_random_pair` drawn from ``seed``, applied and validated by :func:`_apply`.

    Values at rounding level certify the family's invariance; generic states move by
    order one; a draw that is not unitary raises the error of the invariant it breaks.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rho = build_state(s)
    rng = np.random.default_rng(seed)
    moved = (_apply(rho, [(1.0, _random_pair(s.d, rng))]) for _ in range(trials))
    return max(float(np.linalg.norm(rho.matrix - m.matrix)) for m in moved)
