"""Projective measurements, steered ensembles and the numeric optimizer."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qucorr import measurement, operators
from qucorr.closed_form import (
    TwoParamState,
    classical_correlation,
    conditional_entropy_closed,
    discord,
)
from qucorr.family import (
    build_state,
    random_family_state,
)
from qucorr.measurement import (
    DEGENERATE_TOL,
    FLAT_TOL,
    GRID_POINTS,
    MAX_STARTS,
    ConditionalEnsemble,
    OptimizerConfig,
    OptimizerResult,
    classical_correlation_numeric,
    conditional_ensemble,
    conditional_entropy,
    discord_numeric,
    ensemble_spectrum_spread,
    measured_mutual_information,
    optimize_measurement,
    projectors,
    random_axis,
)
from qucorr.operators import (
    partial_trace_b,
    quantum_mutual_information,
    random_density_matrix,
    random_unitary,
    tensor,
    validate_density,
    von_neumann_entropy,
)
from qucorr.statefile import loads_density
from states import (crossover_x_state, isotropic_state, product_state, sphere_point,
                    x_state_candidates)

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# The computational-basis measurement, along the Bloch z axis.
Z = (0.0, 0.0, 1.0)


def dense_ensemble(rho, axis):
    """Reference steering straight from the definition: the qudit reductions of
    (A_i (x) I) rho (A_i (x) I), each with its probability."""
    d = rho.dim_b
    out = []
    for a in projectors(axis):
        k = tensor(a, np.eye(d))
        block = k @ rho.matrix @ k
        p = float(np.trace(block).real)
        out.append((p, np.einsum('ijil->jl', block.reshape(2, d, 2, d)) / p))
    return out


def oracle_classical_correlation(rho):
    """Reference maximum of the measured mutual information by dense scan.

    Each value comes straight from the definition, for every direction n of a
    round in one batch: A = (I +- n.sigma)/2, the qudit reductions of
    (A (x) I) rho (A (x) I), and -sum(lam log2 lam) of their ``eigvalsh``, in
    this function's own arithmetic, so it shares no code with the optimizer.
    A polar x azimuth grid over the upper hemisphere, pole and equator
    included, picks the best 3 directions; around each, a 9 x 9 tangent cap
    shrinks by 4 per round, recentred on its best point, until its radius is
    below 1e-6.
    """
    d = rho.dim_b

    def reduce(m):
        return np.einsum('...aiaj->...ij', m.reshape(m.shape[:-2] + (2, d, 2, d)))

    def entropy(states):
        lam = np.linalg.eigvalsh(states)
        # An eigenvalue <= 0 adds 0, as 1 log2 1 does; so does an outcome with p = 0.
        lam = np.where(lam > 0.0, lam, 1.0)
        return -np.sum(lam * np.log2(lam), axis=-1)

    entropy_b = entropy(reduce(rho.matrix))

    def values(n):
        out = entropy_b
        for sign in (1.0, -1.0):
            k = np.kron((np.eye(2) + sign * np.einsum('nk,kab->nab', n, PAULI)) / 2.0, np.eye(d))
            block = reduce(k @ rho.matrix @ k)
            p = np.trace(block, axis1=-2, axis2=-1).real
            out = out - p * entropy(block / np.where(p > 0.0, p, 1.0)[:, None, None])
        return out

    polar, azimuth = np.meshgrid(np.linspace(0.0, np.pi / 2.0, 13)[1:],
                                 np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False), indexing='ij')
    coarse = np.vstack([sphere_point(0.0, 0.0), sphere_point(polar, azimuth).reshape(-1, 3)])
    offsets = np.linspace(-1.0, 1.0, 9)
    u, v = (g.reshape(-1, 1) for g in np.meshgrid(offsets, offsets, indexing='ij'))
    best = -np.inf
    for center in coarse[np.argsort(values(coarse))[-3:]]:
        radius = 0.15
        while radius > 1e-6:
            e1 = np.cross(center, [1.0, 0.0, 0.0] if abs(center[0]) < 0.9 else [0.0, 1.0, 0.0])
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(center, e1)
            cap = center + radius * (u * e1 + v * e2)
            cap /= np.linalg.norm(cap, axis=1, keepdims=True)
            cap_values = values(cap)
            center = cap[np.argmax(cap_values)]
            radius /= 4.0
        best = max(best, cap_values.max())
    return float(best)


class TestBlochBlocks:
    """``_bloch_blocks`` against its definition: rho_B = tr_A rho and
    T_k = tr_A[(sigma_k (x) I) rho], with this file's PAULI.  The optimizer's
    maximum is blind to a mirrored n_y, so the value tests need not catch a
    sign or an order slip in T."""

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_matches_the_definition(self, d):
        rng = np.random.default_rng(370 + d)
        states = [random_density_matrix(2, d, rng) for _ in range(3)]
        if d >= 3:
            states.append(build_state(random_family_state(d, rng)))
        trace_a = lambda m: m.reshape(2, d, 2, d).trace(axis1=0, axis2=2)
        for rho in states:
            rho_b, t = measurement._bloch_blocks(rho)
            assert rho_b.shape == (d, d) and t.shape == (3, d, d)
            assert np.max(np.abs(rho_b - trace_a(rho.matrix))) <= 1e-15
            for k, sigma in enumerate(PAULI):
                expected = trace_a(np.kron(sigma, np.eye(d)) @ rho.matrix)
                assert np.max(np.abs(t[k] - expected)) <= 1e-15, k


class TestMeasurementAxis:
    """A measurement is its Bloch direction.  The four functions that take one
    accept any finite, non-zero 3-vector and normalize it, and refuse anything
    else with a ValueError that names the direction."""

    TAKERS = (lambda rho, n: projectors(n), conditional_ensemble, conditional_entropy,
              measured_mutual_information)

    def test_unit_norm_enforced(self):
        # Scaling by 2 is exact, in the vector and in its norm, so the
        # normalized direction and every value are the same to the bit.  A
        # scale near either end of the double range normalizes as well.
        rng = np.random.default_rng(0)
        rho = random_density_matrix(2, 3, rng)
        for _ in range(10):
            n = np.array(random_axis(rng))
            assert conditional_entropy(rho, 2 * n) == conditional_entropy(rho, n)
            assert measured_mutual_information(rho, 2 * n) == measured_mutual_information(rho, n)
            assert conditional_ensemble(rho, 2 * n).p0 == conditional_ensemble(rho, n).p0
            for a, b in zip(projectors(2 * n), projectors(n)):
                assert np.array_equal(a, b)
            for scale in (1e-300, 1e300):
                assert abs(conditional_entropy(rho, scale * n)
                           - conditional_entropy(rho, n)) <= 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_coefficient_rejected(self, bad):
        rho = random_density_matrix(2, 3, np.random.default_rng(0))
        for take in self.TAKERS:
            for direction in [(bad, 0.0, 1.0), (0.0, -bad, 0.0)]:
                with pytest.raises(ValueError, match="direction must be a finite"):
                    take(rho, direction)

    def test_zero_or_misshapen_direction_rejected(self):
        rho = random_density_matrix(2, 3, np.random.default_rng(0))
        for take in self.TAKERS:
            for direction in [(0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), (0.0, 1.0),
                              (0.0, 0.0, 1.0, 0.0), [[0.0, 0.0, 1.0]], 1.0]:
                with pytest.raises(ValueError, match="non-zero 3-vector"):
                    take(rho, direction)

    def test_complex_or_text_direction_rejected(self):
        # Complex entries are refused, not cast to their real parts, and text
        # gets the same error as any other bad direction.
        rho = random_density_matrix(2, 3, np.random.default_rng(0))
        for take in self.TAKERS:
            for direction in [(1j, 0.0, 0.0), np.array([1.0 + 0j, 0.0, 0.0]), "abc",
                              ("x", "y", "z"), [[1.0], [0.0, 0.0]]]:
                with pytest.raises(ValueError, match="direction must be a finite, "
                                                     "non-zero 3-vector, got"):
                    take(rho, direction)

    def test_sign_flip_gives_same_projectors(self):
        # -n is the same measurement as n, with its outcomes swapped.
        rng = np.random.default_rng(1)
        rho = random_density_matrix(2, 3, rng)
        for _ in range(10):
            n = np.array(random_axis(rng))
            for a, b in zip(projectors(n), projectors(-n)[::-1]):
                assert np.allclose(a, b, atol=1e-14)
            assert abs(conditional_entropy(rho, -n) - conditional_entropy(rho, n)) <= 1e-14


class TestProjectors:

    def test_identity_axis_gives_computational_projectors(self):
        a0, a1 = projectors(Z)
        assert np.allclose(a0, np.diag([1.0, 0.0]), atol=1e-14)
        assert np.allclose(a1, np.diag([0.0, 1.0]), atol=1e-14)

    def test_y_rotation_gives_plus_minus_projectors(self):
        # A quarter turn about y takes z to x.
        a0, a1 = projectors((1.0, 0.0, 0.0))
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        pair = {tuple(np.round(p.ravel().real, 12)) for p in (a0, a1)}
        expected = {tuple(np.round(np.outer(v, v).ravel(), 12)) for v in (plus, minus)}
        assert pair == expected

    def test_complete_orthogonal_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a0, a1 = projectors(random_axis(rng))
            assert np.max(np.abs(a0 + a1 - np.eye(2))) < 1e-12
            assert np.max(np.abs(a0 @ a0 - a0)) < 1e-12
            assert np.max(np.abs(a1 @ a1 - a1)) < 1e-12
            assert np.max(np.abs(a0 @ a1)) < 1e-12

    def test_direction_parametrization_points_along_bloch_vector(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = sphere_point(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi))
            expected = 0.5 * (np.eye(2) + sum(c * s for c, s in zip(n, PAULI)))
            a0, _ = projectors(n)
            assert np.allclose(a0, expected, atol=1e-12)

    def test_closed_form_axis_maps_match_their_definitions(self):
        # random_axis writes the map n(t, y) out in (t, y).  Here the same draw
        # builds V = t*I + i*(y . sigma) from this file's PAULI, and n_k is
        # tr[A_0 sigma_k] with A_0 = V|0><0|V^dag, which projectors(n) returns.
        rng, draws = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(200):
            n = random_axis(rng)
            x = draws.standard_normal(4)
            t, *y = x / np.linalg.norm(x)
            v = t * np.eye(2) + 1j * sum(c * s for c, s in zip(y, PAULI))
            a0 = np.outer(v[:, 0], v[:, 0].conj())
            assert np.max(np.abs(np.array(n) - [np.trace(a0 @ s).real for s in PAULI])) <= 1e-15
            assert np.max(np.abs(projectors(n)[0] - a0)) <= 1e-15


def moved_levels(rho, order):
    """``rho`` with qudit level j relabelled ``order[j]``."""
    d, back = rho.dim_b, np.argsort(order)
    m = rho.matrix.reshape(2, d, 2, d)[:, back][:, :, :, back]
    return validate_density(m.reshape(2 * d, 2 * d), 2, d)


def with_diagonal(rho, rng, weight=0.3):
    """``rho`` mixed with a random diagonal state, so that every level is populated."""
    d = rho.dim_b
    diagonal = np.diag(rng.dirichlet(np.ones(2 * d)))
    return validate_density((1.0 - weight) * rho.matrix + weight * diagonal, 2, d)


def with_entry(d, row, col, value=0.05, mirrored=True):
    """The maximally mixed 2 x d state plus ``value`` at (row, col), and its
    conjugate at (col, row) if ``mirrored``."""
    m = np.eye(2 * d, dtype=complex) / (2 * d)
    m[row, col] += value
    if mirrored:
        m[col, row] += np.conj(value)
    return validate_density(m, 2, d)


FIXTURES = Path(__file__).parent / "fixtures"
DIAGONAL_FIXTURE = FIXTURES / "classical_diag_2x3.json"


class TestCoupledLevels:
    """Past the first k = ``_coupled_levels`` qudit levels every steered block
    M+-(n) is diagonal.  The optimizer diagonalizes only the leading k x k block
    and reads the other eigenvalues off M's diagonal, and must agree with the
    full d x d eigensolve."""

    @pytest.mark.parametrize("rho, k", [
        (build_state(TwoParamState(3, 0.05, 0.55)), 2),
        (build_state(TwoParamState(16, 0.01, 0.3)), 2),
        (build_state(TwoParamState(5, 0.0, 1.0)), 2),
        (crossover_x_state(np.random.default_rng(70), 4, 1e-4), 2),
        (loads_density(DIAGONAL_FIXTURE.read_text()), 0),
        (random_density_matrix(2, 5, np.random.default_rng(0)), 5),
        (with_entry(5, 0, 3), 4),
        (with_entry(5, 1, 5 + 2), 3),
        (with_entry(5, 2, 5 + 2), 0),
        (with_entry(5, 3, 5 + 0, 1e-12, mirrored=False), 4),
        (moved_levels(crossover_x_state(np.random.default_rng(71), 6, 1e-4), [4, 5, 0, 1, 2, 3]),
         6),
    ], ids=["family-d3", "family-d16", "singlet-d5", "x-state", "diagonal", "random",
            "qudit-coherence-0-3", "cross-coherence-1-2", "cross-coherence-2-2",
            "one-sided-1e-12", "x-state-on-the-last-levels"])
    def test_levels(self, rho, k):
        # A coherence between the qubit's blocks on one qudit level couples no
        # level; an entry without its mirror image still couples its levels.
        assert measurement._coupled_levels(rho) == k

    @staticmethod
    def states():
        rng = np.random.default_rng(380)
        members = [build_state(random_family_state(d, rng)) for d in range(3, 17) for _ in range(3)]
        crossovers = [crossover_x_state(rng, d, gap) for d in (3, 5) for gap in (1e-4, -1e-3)]
        last = moved_levels(crossover_x_state(rng, 5, 1e-4), [3, 4, 0, 1, 2])
        return (members + crossovers + [with_diagonal(rho, rng) for rho in crossovers]
                + [loads_density(DIAGONAL_FIXTURE.read_text()), with_diagonal(last, rng)])

    def test_split_kernel_matches_the_full_kernel(self):
        # The spectra agree to 1e-15.  The entropies sum the same terms in
        # another order, so they agree to 1e-15 relative (3 ulp at 2.7 bits).
        rng = np.random.default_rng(381)
        n = np.r_[measurement._GRID, [random_axis(rng) for _ in range(32)]]
        ks = []
        for rho in self.states():
            rho_b, t = measurement._bloch_blocks(rho)
            d, k = rho.dim_b, measurement._coupled_levels(rho)
            ks.append(k)
            _, m = measurement._steer(rho_b, t, n)
            lam = np.sort(measurement._eigvalsh(m, k), axis=2)
            assert np.max(np.abs(lam - np.linalg.eigvalsh(m))) <= 1e-15
            split = measurement._conditional_entropy_batch(rho_b, t, n, k)
            full = measurement._conditional_entropy_batch(rho_b, t, n, d)
            assert np.all(np.abs(split - full) <= 1e-15 * np.maximum(1.0, full))
            entropy_b = operators._rescaled_entropy(measurement._eigvalsh(rho_b, k))
            assert abs(entropy_b - operators._state_entropy(rho_b)) <= 1e-15 * max(1.0, entropy_b)
        assert ks == [2] * 50 + [0, 5]

    def test_state_coupled_at_its_last_level_takes_the_full_kernel(self, monkeypatch):
        # Levels 0-2 are uncoupled but precede the coupled ones, so k = d: the
        # search is the one the full kernel gives, bit for bit.
        rng = np.random.default_rng(382)
        rho = with_diagonal(moved_levels(crossover_x_state(rng, 5, 1e-4), [3, 4, 0, 1, 2]), rng)
        assert measurement._coupled_levels(rho) == 5
        result = optimize_measurement(rho)
        kernel = measurement._conditional_entropy_batch
        monkeypatch.setattr(measurement, "_conditional_entropy_batch",
                            lambda rho_b, t, n, k: kernel(rho_b, t, n, len(rho_b)))
        untimed = lambda result: dataclasses.replace(result, grid_s=0.0, refine_s=0.0)
        assert untimed(optimize_measurement(rho)) == untimed(result)
        assert result.batches > 2


class TestConditionalEnsemble:

    @pytest.mark.parametrize("d", [3, 4, 8])
    def test_matches_dense_projection_definition(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(10):
            rho = random_density_matrix(2, d, rng)
            axis = random_axis(rng)
            ens = conditional_ensemble(rho, axis)
            outcomes = ((ens.p0, ens.rho0), (ens.p1, ens.rho1))
            for (p, state), (p_ref, state_ref) in zip(outcomes, dense_ensemble(rho, axis)):
                assert abs(p - p_ref) < 1e-14
                assert np.max(np.abs(state - state_ref)) < 1e-14
                assert not state.flags.writeable
            # Two directions make the outcome and direction axes equally long,
            # so a sum over the wrong one still has the right shape.
            axes = (axis, sphere_point(1.0, 2.0))
            batch = measurement._conditional_entropy_batch(*measurement._bloch_blocks(rho),
                                                           np.array(axes), d)
            np.testing.assert_allclose(batch, [conditional_entropy(rho, a) for a in axes],
                                       rtol=0.0, atol=1e-14)

    def test_computes_no_spectrum(self, monkeypatch):
        # Validation diagonalizes the state, so it is built before eigvalsh goes.
        rng = np.random.default_rng(105)
        rho = random_density_matrix(2, 5, rng)
        axis = random_axis(rng)

        def forbidden(*args, **kwargs):
            raise AssertionError("conditional_ensemble computed a spectrum")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        ens = conditional_ensemble(rho, axis)
        for (p, state), (p_ref, state_ref) in zip(((ens.p0, ens.rho0), (ens.p1, ens.rho1)),
                                                  dense_ensemble(rho, axis)):
            assert abs(p - p_ref) < 1e-14
            assert np.max(np.abs(state - state_ref)) < 1e-14

    def test_family_outcomes_are_equiprobable(self):
        rng = np.random.default_rng(4)
        rho = build_state(TwoParamState(3, 0.05, 0.4))
        for _ in range(10):
            ens = conditional_ensemble(rho, random_axis(rng))
            assert abs(ens.p0 - 0.5) < 1e-12
            assert abs(ens.p1 - 0.5) < 1e-12

    def test_uniform_triplet_steered_spectrum(self):
        rho = build_state(TwoParamState(3, 0.0, 0.0))
        ens = conditional_ensemble(rho, Z)
        lam = np.sort(np.linalg.eigvalsh(ens.rho0))[::-1]
        assert np.allclose(lam, [2.0 / 3.0, 1.0 / 3.0, 0.0], atol=1e-12)

    def test_product_state_cannot_be_steered(self):
        rng = np.random.default_rng(5)
        prod, _, rho_b = product_state(rng)
        for _ in range(5):
            ens = conditional_ensemble(prod, random_axis(rng))
            assert np.allclose(ens.rho0, rho_b, atol=1e-10)
            assert np.allclose(ens.rho1, rho_b, atol=1e-10)

    def test_probabilities_sum_to_one_and_branches_positive(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            rho = random_density_matrix(2, int(rng.integers(3, 6)), rng)
            ens = conditional_ensemble(rho, random_axis(rng))
            assert abs(ens.p0 + ens.p1 - 1.0) < 1e-12
            for p, state in ((ens.p0, ens.rho0), (ens.p1, ens.rho1)):
                assert p > -1e-12
                if p > 1e-12:
                    assert np.linalg.eigvalsh(state)[0] > -1e-12
                    assert abs(np.trace(state).real - 1.0) < 1e-10

    def test_degenerate_outcome_flagged(self):
        # measuring |0> along z never fires the second outcome
        v = np.zeros(6, dtype=complex)
        v[0] = 1.0
        pure = validate_density(np.outer(v, v.conj()), 2, 3)
        ens = conditional_ensemble(pure, Z)
        assert isinstance(ens, ConditionalEnsemble)
        assert ens.p1 <= DEGENERATE_TOL
        # An outcome of probability 1e-10, above DEGENERATE_TOL, still counts: the
        # second outcome steers the qudit to I/3 and adds eps * log2(3) bits.
        eps = 1e-10
        mixed = validate_density(np.diag([1.0 - eps, 0, 0, eps / 3, eps / 3, eps / 3]), 2, 3)
        ens = conditional_ensemble(mixed, Z)
        assert min(ens.p0, ens.p1) > DEGENERATE_TOL
        assert abs(conditional_entropy(mixed, Z) - eps * np.log2(3.0)) < 1e-14


class TestConditionalEntropy:

    def test_family_value_is_axis_independent(self):
        rng = np.random.default_rng(7)
        rho = build_state(TwoParamState(3, 0.0, 0.0))
        expected = np.log2(3.0) - 2.0 / 3.0
        values = [conditional_entropy(rho, random_axis(rng)) for _ in range(50)]
        assert np.max(np.abs(np.array(values) - expected)) < 1e-10

    def test_both_outcomes_have_equal_entropy(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            s = random_family_state(int(rng.integers(3, 6)), rng)
            ens = conditional_ensemble(build_state(s), random_axis(rng))
            s0 = von_neumann_entropy(ens.rho0)
            s1 = von_neumann_entropy(ens.rho1)
            assert abs(s0 - s1) < 1e-10
            assert abs(s0 - conditional_entropy_closed(s)) < 1e-10

    def test_pure_product_state_gives_zero(self):
        v = np.zeros(6, dtype=complex)
        v[1] = 1.0
        pure = validate_density(np.outer(v, v.conj()), 2, 3)
        rng = np.random.default_rng(9)
        for _ in range(5):
            assert conditional_entropy(pure, random_axis(rng)) < 1e-12
        # No entropy, and so no correlation, reads -0.0.
        assert math.copysign(1.0, measured_mutual_information(pure, Z)) == 1.0
        assert math.copysign(1.0, classical_correlation_numeric(pure)[0]) == 1.0

    def test_maximally_mixed_gives_log_d(self):
        rho = validate_density(np.eye(6) / 6.0, 2, 3)
        got = conditional_entropy(rho, Z)
        assert np.isclose(got, np.log2(3.0), atol=1e-12)


class TestMeasuredMutualInformation:

    def test_singlet_with_computational_axis(self):
        rho = build_state(TwoParamState(3, 0.0, 1.0))
        got = measured_mutual_information(rho, Z)
        assert np.isclose(got, 1.0, atol=1e-12)

    def test_product_state_carries_nothing(self):
        rng = np.random.default_rng(10)
        prod, _, _ = product_state(rng)
        assert abs(measured_mutual_information(prod, random_axis(rng))) < 1e-10

    def test_uniform_triplet_any_axis(self):
        rng = np.random.default_rng(11)
        rho = build_state(TwoParamState(3, 0.0, 0.0))
        expected = 1.0 - (np.log2(3.0) - 2.0 / 3.0)
        for _ in range(10):
            got = measured_mutual_information(rho, random_axis(rng))
            assert np.isclose(got, expected, atol=1e-10)

    def test_validated_state_is_not_checked_again(self):
        # Its smallest eigenvalue, -5e-10 / 16, passes validation; rho_A's,
        # -5e-10, is 16 times that.  A marginal is not validated again.
        rho = validate_density(np.kron(np.diag([1 + 5e-10, -5e-10]), np.eye(16) / 16), 2, 16)
        assert np.linalg.eigvalsh(partial_trace_b(rho))[0] < -1e-10
        assert np.isfinite(quantum_mutual_information(rho))
        assert np.isfinite(measured_mutual_information(rho, random_axis(np.random.default_rng(3))))
        assert np.isfinite(classical_correlation_numeric(rho)[0])

    def test_edge_state_has_no_negative_correlations(self):
        # rho's spectrum, clipped to [0, 1], sums to 1 + 5e-10; unless it is
        # rescaled, S(rho) gains ~1.3e-9 bits and I comes out negative.
        rho = validate_density(np.kron(np.diag([1 + 5e-10, -5e-10]), np.eye(16) / 16), 2, 16)
        assert quantum_mutual_information(rho) >= 0.0
        assert discord_numeric(rho) >= -1e-15


class TestOptimizer:

    def test_family_state_matches_closed_form(self):
        rho = build_state(TwoParamState(3, 0.1, 0.3))
        value, _ = classical_correlation_numeric(rho)
        assert abs(value - classical_correlation(TwoParamState(3, 0.1, 0.3))) < 1e-7

    @pytest.mark.parametrize("d", [64, 256])
    def test_large_d_family_member_matches_closed_form(self, d):
        # A member couples only qudit levels 0 and 1, so its steered blocks are
        # 2 x 2 blocks plus a diagonal at every d.
        rng = np.random.default_rng(390 + d)
        for _ in range(3):
            s = random_family_state(d, rng)
            result = optimize_measurement(build_state(s))
            assert result.batches == 1
            assert abs(result.value - classical_correlation(s)) <= 1e-12

    def test_product_state_optimum_is_zero(self):
        rng = np.random.default_rng(12)
        prod, _, _ = product_state(rng)
        value, _ = classical_correlation_numeric(prod)
        assert abs(value) < 1e-7

    def test_singlet_optimum_is_one(self):
        rho = build_state(TwoParamState(3, 0.0, 1.0))
        value, _ = classical_correlation_numeric(rho)
        assert abs(value - 1.0) < 1e-7

    def test_supremum_dominates_random_samples(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            rho = random_density_matrix(2, 3, rng)
            value, _ = classical_correlation_numeric(rho)
            for _ in range(50):
                sample = measured_mutual_information(rho, random_axis(rng))
                assert value >= sample - 1e-12

    @pytest.mark.parametrize("rho", [
        *(pytest.param(loads_density(path.read_text()), id=path.stem)
          for path in sorted(FIXTURES.glob("*.json"))),
        pytest.param(build_state(TwoParamState(3, 0.05, 0.55)), id="family-d3"),
        pytest.param(build_state(TwoParamState(16, 0.01, 0.3)), id="family-d16"),
        pytest.param(crossover_x_state(np.random.default_rng(72), 3, 1e-4), id="x-state-d3"),
        pytest.param(crossover_x_state(np.random.default_rng(73), 5, 1e-4), id="x-state-d5"),
        pytest.param(isotropic_state(np.random.default_rng(3996), 3), id="isotropic-d3"),
        *(pytest.param(random_density_matrix(2, d, np.random.default_rng(14)), id=f"random-d{d}")
          for d in (3, 8, 16)),
    ])
    def test_returned_axis_attains_returned_value(self, rho):
        # The optimizer's split kernel (k = 0, 2, 3, 4, 8 or 16 levels here)
        # against the full-kernel objective at the folded axis it returns.
        value, axis = classical_correlation_numeric(rho)
        assert abs(measured_mutual_information(rho, axis) - value) <= 1e-13

    def test_random_probes_are_reproducible(self):
        rng = np.random.default_rng(15)
        rho = random_density_matrix(2, 3, rng)
        config = OptimizerConfig(random_probes=64, seed=7)
        first, _ = classical_correlation_numeric(rho, config)
        second, _ = classical_correlation_numeric(rho, config)
        assert first == second

    @pytest.mark.parametrize("field, kwargs", [
        ("random_probes", {"random_probes": -3}),
    ])
    def test_config_rejects_bad_sizes(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**kwargs)

    def test_import_loads_numpy_only(self):
        src = Path(__file__).resolve().parents[1] / "src"
        # The package loads a submodule on first use: touch the optimizer first.
        code = "import sys, qucorr; qucorr.optimize_measurement; print('scipy' in sys.modules)"
        cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert cp.stdout.strip() == "False"


class TestOptimizerOracle:
    """The optimizer against ``oracle_classical_correlation`` on adversarial states."""

    @staticmethod
    def assert_matches_oracle(rho):
        value, _ = classical_correlation_numeric(rho)
        reference = oracle_classical_correlation(rho)
        assert abs(value - reference) <= 1e-7
        assert value >= reference - 1e-12
        return reference

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("gap", [2e-4, -2e-4], ids=["z_wins", "equator_wins"])
    def test_x_state_at_crossover(self, d, gap):
        # The maxima along z and on the equator differ by only |gap|.
        rho = crossover_x_state(np.random.default_rng(300 + d), d, gap)
        x = rho.matrix[np.ix_([0, 1, d, d + 1], [0, 1, d, d + 1])]
        along_z, equator = x_state_candidates(np.diag(x).real, x[0, 3], x[1, 2])
        assert abs(along_z - equator - gap) < 1e-9
        reference = self.assert_matches_oracle(rho)
        assert abs(reference - max(along_z, equator)) < 1e-9

    @pytest.mark.parametrize("d", [3, 5])
    def test_perturbed_family_member(self, d):
        rng = np.random.default_rng(310 + d)
        m = (0.97 * build_state(random_family_state(d, rng)).matrix
             + 0.03 * random_density_matrix(2, d, rng).matrix)
        self.assert_matches_oracle(validate_density(m, 2, d))

    def test_rank_two_state(self):
        rng = np.random.default_rng(320)
        g = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
        m = g @ g.conj().T
        self.assert_matches_oracle(validate_density(m / np.trace(m).real, 2, 5))

    @pytest.mark.parametrize("d", [3, 5])
    def test_slightly_perturbed_family_member(self, d):
        # A 1e-6 admixture tilts the family's flat objective: the flat stop
        # must not fire, so the search refines past its first batch.
        rng = np.random.default_rng(330 + d)
        m = ((1.0 - 1e-6) * build_state(random_family_state(d, rng)).matrix
             + 1e-6 * random_density_matrix(2, d, rng).matrix)
        rho = validate_density(m, 2, d)
        self.assert_matches_oracle(rho)
        assert optimize_measurement(rho).batches > 1

    def test_product_state(self):
        rng = np.random.default_rng(340)
        rho, _, _ = product_state(rng, d=4)
        self.assert_matches_oracle(rho)
        result = optimize_measurement(rho)
        assert result.batches == 1
        assert abs(result.value) <= 1e-12

    def test_two_basin_random_state(self):
        # The suite's random #18 (seed 101, d = 3): its objective has two
        # basins, and a 48-point first batch starts no walk in the higher one,
        # so the search ends 3.69e-4 bits short.
        rng = np.random.default_rng(101)
        rho = [random_density_matrix(2, (3, 5, 8)[k % 3], rng) for k in range(19)][-1]
        assert rho.dim_b == 3
        self.assert_matches_oracle(rho)

    def test_nearly_flat_look(self):
        # A family member with a delta admixture: the spreads grow linearly in
        # delta, and the look's spread crosses FLAT_TOL inside this range.  At
        # 1.3e-12 the look is flat but the whole grid is not, so the search
        # stops at the look where a flat stop on all 128 directions would not.
        rng = np.random.default_rng(500)
        member = build_state(random_family_state(3, rng)).matrix
        other = random_density_matrix(2, 3, rng).matrix
        flat = []
        for delta in (1.0e-12, 1.3e-12, 2.0e-12):
            rho = validate_density((1.0 - delta) * member + delta * other, 2, 3)
            rho_b, t = measurement._bloch_blocks(rho)
            grid = measurement._conditional_entropy_batch(rho_b, t, measurement._GRID,
                                                          measurement._coupled_levels(rho))
            flat.append((np.ptp(grid[:GRID_POINTS // 8]) <= FLAT_TOL, np.ptp(grid) <= FLAT_TOL))
            value, _ = classical_correlation_numeric(rho)
            assert value >= oracle_classical_correlation(rho) - 1e-12
        assert flat == [(True, True), (True, False), (False, False)]

    def test_product_state_with_correlated_admixture(self):
        rng = np.random.default_rng(341)
        rho, _, _ = product_state(rng, d=4)
        m = (1.0 - 1e-6) * rho.matrix + 1e-6 * random_density_matrix(2, 4, rng).matrix
        self.assert_matches_oracle(validate_density(m, 2, 4))

    @pytest.mark.parametrize("seed, d", [(3996, 3), (3423, 3), (1609, 4), (5740, 4),
                                         (3185, 5), (3098, 5)])
    def test_isotropic_correlation_matrix(self, seed, d):
        # G_kl = Re tr(T_k T_l) is isotropic, so its eigen-axes are arbitrary.
        # A search started only from them misses the maximum of each of these
        # states by 1.0e-5 to 6.1e-5 bits, and so they cannot replace the grid.
        rho = isotropic_state(np.random.default_rng(seed), d)
        _, t = measurement._bloch_blocks(rho)
        g = np.einsum('kij,lji->kl', t, t).real
        assert np.max(np.abs(g - g[0, 0] * np.eye(3))) <= 1e-15
        self.assert_matches_oracle(rho)

    @pytest.mark.xfail(strict=True, reason="the walks end 6.05e-9 bits below the oracle; "
                                           "drop this marker once the search reaches it")
    def test_isotropic_state_below_the_oracle(self):
        # A known miss on the isotropic class, 4 starts and 9 batches,
        # converged: value 0.036759315097 against the oracle's 0.036759321146.
        self.assert_matches_oracle(isotropic_state(np.random.default_rng(2940), 3))

    @pytest.mark.parametrize("d", [3, 4, 5, 8])
    def test_local_unitaries_leave_the_value(self, d):
        # C is invariant under U_A (x) U_B.  The rotation turns the objective
        # against the fixed grid and the walks' polar/azimuth frames, so the
        # search runs from other starts along other paths to the same maximum.
        rng = np.random.default_rng(600 + d)
        for _ in range(6):
            rho = random_density_matrix(2, d, rng)
            value, _ = classical_correlation_numeric(rho)
            for _ in range(3):
                u = tensor(random_unitary(2, rng), random_unitary(d, rng))
                turned, _ = classical_correlation_numeric(
                    validate_density(u @ rho.matrix @ u.conj().T, 2, d))
                assert abs(turned - value) <= 1e-12


class TestDenseOracle:
    """``oracle_classical_correlation`` itself: independent of the optimizer,
    and equal to the paper's closed form on the family."""

    def test_shares_no_code_with_the_optimizer(self, monkeypatch):
        rho = random_density_matrix(2, 3, np.random.default_rng(350))
        expected = oracle_classical_correlation(rho)

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached the optimizer's code")

        for module, name in [(measurement, "_steer"), (measurement, "_bloch_blocks"),
                             (measurement, "_eigvalsh"), (measurement, "_coupled_levels"),
                             (operators, "_spectral_entropy"), (operators, "_state_entropy"),
                             (operators, "_rescaled_entropy")]:
            monkeypatch.setattr(module, name, forbidden)
        assert oracle_classical_correlation(rho) == expected

    @pytest.mark.parametrize("d", [3, 5, 8, 16])
    def test_matches_the_closed_form(self, d):
        members = [random_family_state(d, np.random.default_rng(360 + d)),
                   TwoParamState(d, 0.0, 1.0), TwoParamState(d, 0.0, 0.0)]
        for s in members:
            assert abs(oracle_classical_correlation(build_state(s)) - classical_correlation(s)) <= 1e-12


class TestTrustStep:

    @staticmethod
    def models(definite, count=200, seed=440):
        """Seeded gradients (count, 2), symmetric Hessians (count, 2, 2) with
        eigenvalues in (0.01, 10), or of both signs, and radii in (1e-3, 1)."""
        rng = np.random.default_rng(seed + definite)
        g = rng.standard_normal((count, 2)) * 10.0 ** rng.uniform(-3, 1, (count, 1))
        lam = 10.0 ** rng.uniform(-2, 1, (count, 2))
        if not definite:
            lam[:, 0] *= -1.0
        angle = rng.uniform(0.0, np.pi, count)
        q = np.stack([np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle)],
                     axis=1).reshape(-1, 2, 2)
        h = q @ (lam[:, :, None] * q.transpose(0, 2, 1))
        return g, h, 10.0 ** rng.uniform(-3, 0, count)

    @staticmethod
    def steps(g, h, radius):
        """The step of every model, taken in plain floats as the walks take it:
        s (count, 2) and pred (count,)."""
        out = [measurement._trust_step(*gk, hk[0][0], hk[0][1], hk[1][1], rk)
               for gk, hk, rk in zip(g.tolist(), h.tolist(), radius.tolist())]
        return np.array([s for s, _ in out]), np.array([pred for _, pred in out])

    @pytest.mark.parametrize("definite", [True, False])
    def test_step_stays_in_the_radius(self, definite):
        g, h, radius = self.models(definite)
        s, _ = self.steps(g, h, radius)
        assert np.all(np.linalg.norm(s, axis=1) <= radius * (1.0 + 1e-12))

    @pytest.mark.parametrize("definite", [True, False])
    def test_predicted_decrease(self, definite):
        g, h, radius = self.models(definite)
        s, pred = self.steps(g, h, radius)
        model = np.einsum('wi,wi->w', g, s) + 0.5 * np.einsum('wi,wij,wj->w', s, h, s)
        np.testing.assert_allclose(pred, -model, rtol=0.0, atol=1e-12)
        assert np.all(pred > 0.0)

    def test_newton_step_when_the_gradient_is_small(self):
        # mu = 0 exactly when |g| <= lambda_min(h) * radius; the Newton step
        # -h^-1 g is then no longer than |g| / lambda_min, so it fits.
        g, h, radius = self.models(True)
        small = np.linalg.norm(g, axis=1) <= np.linalg.eigvalsh(h)[:, 0] * radius
        assert small.sum() >= 20
        s, _ = self.steps(g[small], h[small], radius[small])
        np.testing.assert_allclose(s, -np.linalg.solve(h[small], g[small][:, :, None])[:, :, 0],
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("definite", [True, False])
    def test_zero_gradient(self, definite):
        # h = -I and h = 0 damp to a zero matrix; a division by zero in plain
        # floats would raise ZeroDivisionError.
        _, h, radius = self.models(definite, count=20)
        h = np.r_[h, [-np.eye(2), np.zeros((2, 2))]]
        radius = np.r_[radius, 0.1, 0.1]
        s, pred = self.steps(np.zeros((len(h), 2)), h, radius)
        assert np.all(s == 0.0)
        assert np.all(pred == 0.0)


class TestRetract:

    @staticmethod
    def points():
        """The poles (one with x = -0.0), an equator point and 20 seeded random
        unit vectors, shape (24, 3)."""
        rng = np.random.default_rng(500)
        random = rng.standard_normal((20, 3))
        random /= np.linalg.norm(random, axis=1)[:, None]
        return np.r_[[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, 0.0, 1.0],
                      [np.cos(0.7), np.sin(0.7), 0.0]], random]

    @staticmethod
    def steps(count, length):
        """Seeded tangent steps (count, 1, 2) of the given length."""
        s = np.random.default_rng(501).standard_normal((count, 1, 2))
        return length * s / np.linalg.norm(s, axis=2)[:, :, None]

    @staticmethod
    def retract(p, s):
        """The scalar retraction at every point p (w, 3) of its steps s (w, k, 2),
        as an array (w, k, 3)."""
        return np.array([measurement._retraction(pk, sk)
                         for pk, sk in zip(p.tolist(), s.tolist())])

    @pytest.mark.parametrize("length", [0.0, 1e-6, 0.1, 2.0])
    def test_unit_norm(self, length):
        p = self.points()
        q = self.retract(p, self.steps(len(p), length))
        np.testing.assert_allclose(np.linalg.norm(q, axis=2), 1.0, rtol=0.0, atol=1e-15)

    def test_zero_step_returns_the_point(self):
        # Within one unit in the last place of 1, the rounding of the
        # normalization.
        p = self.points()
        q = self.retract(p, np.zeros((len(p), 1, 2)))[:, 0]
        np.testing.assert_allclose(q, p, rtol=0.0, atol=np.spacing(1.0))

    def test_small_step_is_tangent(self):
        # The displacement of a step s leaves the tangent plane only by the
        # normalization, |s|^2/2 = 5e-13 along -p, and has length |s|.
        p = self.points()
        s = self.steps(len(p), 1e-6)
        move = self.retract(p, s)[:, 0] - p
        np.testing.assert_allclose(np.einsum('wi,wi->w', move, p), 0.0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(move, axis=1), 1e-6, rtol=0.0, atol=1e-12)

    def test_frame_at_the_angles_of_the_point(self):
        # The frame _retraction uses: the polar and azimuth unit vectors at p's
        # angles.  They are orthonormal and orthogonal to p, and the same
        # angles give p back.
        p = self.points()
        polar, azimuth = np.arccos(np.clip(p[:, 2], -1.0, 1.0)), np.arctan2(p[:, 1], p[:, 0])
        n = measurement._sphere(polar, azimuth)
        cp, sp, ca, sa = np.cos(polar), np.sin(polar), np.cos(azimuth), np.sin(azimuth)
        frame = np.stack([cp * ca, cp * sa, -sp, -sa, ca, np.zeros_like(sa)],
                         axis=1).reshape(-1, 2, 3)
        np.testing.assert_allclose(n, p, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(frame @ frame.transpose(0, 2, 1) - np.eye(2), 0.0,
                                   rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(frame @ p[:, :, None], 0.0, rtol=0.0, atol=1e-15)
        steps = np.array([[[1e-6, 0.0], [0.0, 1e-6]]]).repeat(len(p), axis=0)
        move = self.retract(p, steps) - p[:, None]
        np.testing.assert_allclose(move, 1e-6 * frame, rtol=0.0, atol=1e-12)


class TestWalk:

    @pytest.mark.parametrize("ratio, radius, expected", [
        (-1.0, 1.0, 0.15625), (0.2, 1.0, 0.15625), (0.25, 1.0, 1.0), (0.5, 1.0, 1.0),
        (0.75, 1.0, 1.0), (0.9, 1.0, 1.25), (0.9, 2.0, 2.0)])
    def test_radius_rule(self, ratio, radius, expected):
        # Nocedal and Wright, Algorithm 4.1, on the ratio of the trial's actual
        # to predicted decrease: below 0.25 the radius shrinks to 0.25 |s|,
        # above 0.75 it becomes max(r, 2 |s|), and in between it stays.  The
        # step s = (0.375, 0.5) has length 0.625, and every figure is exact.
        x, y = (0.6, 0.0, 0.8), (0.0, 0.6, 0.8)
        walk = measurement._Walk(x=x, y=y, fx=0.0, model=(1e-3, 0.0, 1.0, 0.0, 1.0),
                                 s=(0.375, 0.5), pred=1.0, radius=radius)
        walk.advance(-ratio, [0.0, 0.0, 1.0, 0.0, 1.0])
        assert walk.radius == expected
        assert (walk.x, walk.fx) == ((y, -ratio) if ratio > 0.0 else (x, 0.0))

    def test_first_trial_keeps_half_the_grid_spacing(self):
        # A walk's first trial is its start, accepted with ratio inf and a zero
        # step: its radius stays half the spacing of the grid's GRID_POINTS
        # directions on the hemisphere's area 2 pi.
        x = (0.6, 0.0, 0.8)
        walk = measurement._Walk(x=x, y=x)
        assert walk.advance(0.5, [1e-3, 0.0, 1.0, 0.0, 1.0])
        assert walk.radius == 0.5 * math.sqrt(2.0 * math.pi / GRID_POINTS)
        assert (walk.x, walk.fx) == (x, 0.5)


class TestOptimizeMeasurement:

    @staticmethod
    def counted_kernel(monkeypatch):
        """Record the number of directions in every kernel batch."""
        sizes = []
        kernel = measurement._conditional_entropy_batch

        def counting(rho_b, t, n, k):
            sizes.append(len(n))
            return kernel(rho_b, t, n, k)

        monkeypatch.setattr(measurement, "_conditional_entropy_batch", counting)
        return sizes

    @pytest.mark.parametrize("d", [3, 16])
    def test_family_member_stops_after_the_grid(self, d):
        s = random_family_state(d, np.random.default_rng(360 + d))
        result = optimize_measurement(build_state(s))
        assert result.batches == 1
        assert result.refine_gain == 0.0
        assert result.evaluations == GRID_POINTS // 8
        assert result.starts == 0
        assert result.converged
        assert abs(result.value - classical_correlation(s)) < 1e-7

    def test_random_state_diagnostics(self, monkeypatch):
        sizes = self.counted_kernel(monkeypatch)
        rho = random_density_matrix(2, 4, np.random.default_rng(370))
        result = optimize_measurement(rho)
        assert isinstance(result, OptimizerResult)
        assert 1 <= result.starts <= MAX_STARTS
        assert result.converged
        assert result.value >= result.grid_value
        assert result.refine_gain == result.value - result.grid_value
        assert result.batches == len(sizes)
        assert result.evaluations == sum(sizes)
        assert result.grid_s >= 0.0 and result.refine_s >= 0.0
        assert classical_correlation_numeric(rho) == (result.value, result.axis)
        assert type(result.axis) is tuple and [type(c) for c in result.axis] == [float] * 3
        assert abs(math.hypot(*result.axis) - 1.0) <= 1e-15

    @pytest.mark.parametrize("rho, starts", [
        (random_density_matrix(2, 4, np.random.default_rng(370)), 1),
        (crossover_x_state(np.random.default_rng(70), 3, 1e-4), 5)], ids=["random", "x-crossover"])
    def test_walk_batches(self, monkeypatch, rho, starts):
        # After the grid's two calls, every batch holds each active walk's
        # trial and its six stencil points, and no walk comes back once ended.
        sizes = self.counted_kernel(monkeypatch)
        result = optimize_measurement(rho)
        walks = sizes[2:]
        assert (result.starts, result.converged) == (starts, True)
        assert walks[0] == 7 * result.starts
        assert all(size % 7 == 0 for size in walks)
        assert all(later <= earlier for earlier, later in zip(walks, walks[1:]))

    def test_probes_join_the_first_batch(self, monkeypatch):
        sizes = self.counted_kernel(monkeypatch)
        rho = random_density_matrix(2, 3, np.random.default_rng(371))
        result = optimize_measurement(rho, OptimizerConfig(random_probes=64, seed=3))
        assert sizes[:2] == [GRID_POINTS // 8, GRID_POINTS - GRID_POINTS // 8 + 64]
        assert result.evaluations == sum(sizes)

    def test_flat_look_draws_no_probe(self, monkeypatch):
        # A flat look stops the search before the probes are drawn, so on a
        # family member a config with probes gives the search without one.
        rho = build_state(random_family_state(3, np.random.default_rng(373)))
        plain = optimize_measurement(rho)

        def no_draw(seed):
            raise AssertionError(f"probes drawn with seed {seed} after a flat look")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        probed = optimize_measurement(rho, OptimizerConfig(random_probes=256, seed=0))
        untimed = lambda result: dataclasses.replace(result, grid_s=0.0, refine_s=0.0)
        assert untimed(probed) == untimed(plain)
        assert probed.evaluations == GRID_POINTS // 8

    def test_grid_is_stored_look_first(self):
        # Spiral point k sits at height z = 1 - (k + 1/2) / GRID_POINTS.  The
        # grid holds every eighth point first, the look, then the rest, each
        # in spiral order.
        k = (1.0 - measurement._GRID[:, 2]) * GRID_POINTS - 0.5
        assert np.allclose(k, np.round(k), rtol=0.0, atol=1e-9)
        k = np.round(k).astype(int)
        assert list(k[:GRID_POINTS // 8]) == list(range(0, GRID_POINTS, 8))
        assert list(k[GRID_POINTS // 8:]) == [i for i in range(GRID_POINTS) if i % 8]

    def test_split_first_batch_is_bit_exact(self, monkeypatch):
        # The look and the rest of the grid go through two kernel calls; each
        # grid direction keeps the value one unsplit call gives it.
        kernel, calls = measurement._conditional_entropy_batch, []

        def recording(rho_b, t, n, k):
            calls.append((n, kernel(rho_b, t, n, k)))
            return calls[-1][1]

        monkeypatch.setattr(measurement, "_conditional_entropy_batch", recording)
        rho = random_density_matrix(2, 5, np.random.default_rng(372))
        result = optimize_measurement(rho)
        directions = np.r_[calls[0][0], calls[1][0]]
        values = np.r_[calls[0][1], calls[1][1]]
        same = np.all(directions[:, None] == measurement._GRID[None], axis=2)
        assert np.all(same.sum(axis=1) == 1) and np.all(same.sum(axis=0) == 1)
        rho_b, t = measurement._bloch_blocks(rho)
        reference = kernel(rho_b, t, measurement._GRID, rho.dim_b)
        assert np.array_equal(values, reference[np.argmax(same, axis=1)])
        assert result.grid_value == von_neumann_entropy(rho_b) - reference.min()

    def test_flat_objective_axis_is_fixed(self):
        # On an axis-independent objective every direction is optimal; the
        # optimizer returns the same one for every such state.
        rng = np.random.default_rng(380)
        first, second = random_family_state(5, rng), random_family_state(5, rng)
        _, axis_a = classical_correlation_numeric(build_state(first))
        _, axis_b = classical_correlation_numeric(build_state(second))
        assert axis_a == axis_b

    def test_antipodal_directions_give_one_axis(self):
        # n and -n are one measurement; the returned axis must not depend on
        # which of the two the search ended at.
        rng = np.random.default_rng(390)
        directions = [n / np.linalg.norm(n) for n in rng.standard_normal((20, 3))]
        for n in directions + [np.array([1.0, 0.0, 0.0])]:
            assert measurement._fold(tuple((-n).tolist())) == measurement._fold(tuple(n.tolist()))

    @pytest.mark.parametrize("n", [
        sphere_point(1e-3, 0.3), sphere_point(1e-5, 2.0), sphere_point(1e-7, -2.5),
        sphere_point(np.pi / 2.0, 1.1), np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]),
    ], ids=["1e-3", "1e-5", "1e-7", "equator", "+z", "-z"])
    def test_direction_round_trip(self, n):
        # The returned axis is the walk's point or its negation, bit for bit,
        # on the upper hemisphere.  No conversion stands between them: an axis
        # whose angle came from arccos(n_z) was off by 3.2e-11 at 1e-7 from
        # the pole.
        point = tuple(n.tolist())
        back = measurement._fold(point)
        assert back in (point, tuple(-c for c in point))
        assert back[::-1] >= (0.0, 0.0, 0.0)

    def test_walks_end_on_a_flat_stencil(self):
        # The product state with a 1e-6 admixture of the oracle tests: its
        # grid spreads by only ~3e-12 bits, so the models fitted from the
        # walks' stencils predict a gain of at most FLAT_TOL after a few batches.
        rng = np.random.default_rng(341)
        rho, _, _ = product_state(rng, d=4)
        m = (1.0 - 1e-6) * rho.matrix + 1e-6 * random_density_matrix(2, 4, rng).matrix
        result = optimize_measurement(validate_density(m, 2, 4))
        assert result.converged
        assert result.batches <= 10

    @pytest.mark.parametrize("d", [3, 5])
    def test_slightly_perturbed_family_member_stops_early(self, d):
        # The 1e-6-perturbed family members of the oracle tests.
        rng = np.random.default_rng(330 + d)
        m = ((1.0 - 1e-6) * build_state(random_family_state(d, rng)).matrix
             + 1e-6 * random_density_matrix(2, d, rng).matrix)
        result = optimize_measurement(validate_density(m, 2, d))
        assert result.converged
        assert result.batches <= 30

    def test_converges_where_the_compass_walk_stalled(self):
        # A compass search of step +-e_k ran this state into REFINE_MAXITER,
        # 9.8e-10 bits below the oracle; the model's steps reach it in a few.
        rho = random_density_matrix(2, 8, np.random.default_rng(788))
        result = optimize_measurement(rho)
        assert result.converged
        assert abs(result.value - oracle_classical_correlation(rho)) <= 1e-12

    def test_batch_counts(self):
        # A count, not a timing: Newton steps on the walks' models converge in a
        # few batches, where a compass search took a median of ~37 on random
        # states and ~150 on X states near their crossover.  One of these X
        # states needs its radius shrunk after a rejected trial.
        rng = np.random.default_rng(420)
        randoms = [random_density_matrix(2, d, rng) for d in (3, 8, 16) for _ in range(8)]
        fixture = Path(__file__).parent / "fixtures" / "classical_diag_2x3.json"
        rng = np.random.default_rng(77)
        others = [loads_density(fixture.read_text())] + [
            crossover_x_state(rng, d, gap) for d in (3, 5) for gap in (1e-4, -1e-4, 1e-3, -1e-3)]
        results = [optimize_measurement(rho) for rho in randoms + others]
        assert all(result.converged for result in results)
        assert np.median([result.batches for result in results[:len(randoms)]]) <= 12

    def test_nearly_flat_objective(self):
        # A product state with a 1e-6 correlated admixture, C ~ 5e-11 bits.  The
        # stencil widens as the first batch's spread shrinks; at the spacing
        # fit for a spread of 1 bit, rounding swamps the model and the search
        # ends 6e-12 bits short.
        rng = np.random.default_rng(15073)
        rho, _, _ = product_state(rng, d=3)
        m = (1.0 - 1e-6) * rho.matrix + 1e-6 * random_density_matrix(2, 3, rng).matrix
        rho = validate_density(m, 2, 3)
        value, _ = classical_correlation_numeric(rho)
        assert abs(value - oracle_classical_correlation(rho)) <= 1e-12


class TestDiscordNumeric:

    def test_family_agreement(self):
        s = TwoParamState(3, 0.05, 0.55)
        rho = build_state(s)
        assert abs(discord_numeric(rho) - discord(s)) < 1e-7

    def test_classical_diagonal_state_has_no_discord(self):
        rho = validate_density(np.diag([0.4, 0.1, 0.05, 0.05, 0.15, 0.25]), 2, 3)
        assert abs(discord_numeric(rho)) < 1e-7

    def test_singlet_discord_is_one(self):
        rho = build_state(TwoParamState(3, 0.0, 1.0))
        assert abs(discord_numeric(rho) - 1.0) < 1e-7

    def test_never_meaningfully_negative(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            rho = random_density_matrix(2, 3, rng)
            assert discord_numeric(rho) >= -1e-9

    def test_pure_state_discord_equals_entanglement_entropy(self):
        rng = np.random.default_rng(17)
        for d in (3, 4):
            for _ in range(3):
                v = rng.standard_normal(2 * d) + 1j * rng.standard_normal(2 * d)
                v /= np.linalg.norm(v)
                rho = validate_density(np.outer(v, v.conj()), 2, d)
                expected = von_neumann_entropy(partial_trace_b(rho))
                assert abs(discord_numeric(rho) - expected) < 1e-6


class TestEnsembleSpectrumSpread:

    def test_generic_family_member(self):
        assert ensemble_spectrum_spread(TwoParamState(3, 0.05, 0.4), 50, 0) < 1e-10

    def test_singlet_steers_to_pure_states(self):
        assert ensemble_spectrum_spread(TwoParamState(3, 0.0, 1.0), 20, 1) < 1e-12

    def test_product_member_steers_to_marginal(self):
        assert ensemble_spectrum_spread(TwoParamState(3, 1 / 6, 1 / 6), 20, 2) < 1e-12

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            ensemble_spectrum_spread(TwoParamState(3, 0.1, 0.1), 1, 0)
