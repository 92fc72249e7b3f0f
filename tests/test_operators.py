"""Operator-algebra contracts: validation, partial traces and transposes, entropy,
the commutator and the negativity."""

import math
import re
import warnings

import numpy as np
import pytest

from qucorr.operators import (
    DimensionMismatchError,
    NonFiniteError,
    NonHermitianError,
    NonUnitTraceError,
    NotPositiveSemidefiniteError,
    VALIDATION_TOL,
    commutator_condition,
    negativity_trace_norm,
    partial_trace_a,
    partial_trace_b,
    partial_transpose_a,
    quantum_mutual_information,
    random_density_matrix,
    random_unitary,
    validate_density,
    von_neumann_entropy,
)
from qucorr.closed_form import TwoParamState
from qucorr.family import build_state
from states import bell_vectors, random_state


def singlet_projector(d: int) -> np.ndarray:
    psi_m = bell_vectors(d)[3]
    return np.outer(psi_m, psi_m.conj())


class TestValidateDensity:

    def test_maximally_mixed_is_valid(self):
        rho = validate_density(np.eye(6) / 6.0, 2, 3)
        assert rho.dim_b == 3

    def test_pure_projector_is_valid(self):
        rho = validate_density(singlet_projector(3), 2, 3)
        assert np.isclose(np.trace(rho.matrix).real, 1.0)

    def test_wrong_trace_rejected(self):
        m = np.eye(6) / 4.0
        with pytest.raises(NonUnitTraceError) as exc:
            validate_density(m, 2, 3)
        assert np.isclose(exc.value.residual, 0.5)

    def test_non_hermitian_rejected(self):
        m = np.eye(6, dtype=complex) / 6.0
        m[0, 1] = 0.1
        with pytest.raises(NonHermitianError):
            validate_density(m, 2, 3)

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([0.7, 0.5, -0.2, 0.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(NotPositiveSemidefiniteError) as exc:
            validate_density(m, 2, 3)
        assert exc.value.residual > 0.1

    def test_nan_off_diagonal_rejected(self):
        m = np.eye(6, dtype=complex) / 6.0
        m[0, 1] = m[1, 0] = np.nan
        with pytest.raises(NonFiniteError) as exc:
            validate_density(m, 2, 3)
        assert exc.value.residual == 2.0
        assert "nan" in str(exc.value)

    def test_inf_diagonal_rejected(self):
        m = np.eye(6, dtype=complex) / 6.0
        m[2, 2] = np.inf
        with pytest.raises(NonFiniteError) as exc:
            validate_density(m, 2, 3)
        assert "(2, 2)" in str(exc.value)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            validate_density(np.eye(4) / 4.0, 2, 3)

    @pytest.mark.parametrize("dims", [(1, 6), (3, 4), (2, 1), (2, 0), (2.0, 3), (2, 3.0)],
                             ids=["1x6", "3x4", "2x1", "2x0", "float_a", "float_b"])
    def test_dims_outside_2_x_d_rejected(self, dims):
        # The dims are checked before the matrix, which here is a valid 2 x 3 state.
        with pytest.raises(DimensionMismatchError, match="2 x d"):
            validate_density(np.eye(6) / 6.0, *dims)

    def test_numpy_integer_dims_are_stored_as_int(self):
        rho = validate_density(np.eye(6) / 6.0, np.int64(2), np.int64(3))
        assert rho.dim_b == 3
        assert type(rho.dim_b) is int

    def test_zero_dim_array_dims(self):
        # A 0-d integer array passes operator.index; a 0-d float array does not.
        assert validate_density(np.eye(6) / 6.0, 2, np.array(3)).dim_b == 3
        with pytest.raises(DimensionMismatchError, match="2 x d"):
            validate_density(np.eye(6) / 6.0, np.array(2.0), 3)

    def test_random_state_outside_2_x_d_rejected(self):
        with pytest.raises(DimensionMismatchError, match="2 x d"):
            random_density_matrix(1, 6, np.random.default_rng(0))

    @pytest.mark.parametrize("dims", [(1, 6), (3, 4), (2.0, 3), (2, 3.0)],
                             ids=["1x6", "3x4", "float_a", "float_b"])
    def test_random_state_dims_checked_before_the_draw(self, dims):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(DimensionMismatchError, match="2 x d"):
            random_density_matrix(*dims, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_random_state_draw(self, d):
        rho = random_density_matrix(2, d, np.random.default_rng(d))
        assert np.array_equal(rho.matrix, random_state(2 * d, np.random.default_rng(d)))

    def test_overflowing_hermiticity_residual_fails_without_warning(self):
        # M - M^dag overflows at (0, 1); the inf residual must still fail.
        m = np.eye(6, dtype=complex) / 6.0
        m[0, 1], m[1, 0] = 1.7e308, -1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonHermitianError) as exc:
                validate_density(m, 2, 3)
        assert exc.value.residual == np.inf

    @pytest.mark.parametrize("diagonal", [
        [1.7e308, 1.7e308, 0.0, 0.0, 0.0, 0.0],
        [1.7e308, 1.7e308, -1.7e308, -1.7e308, 0.5, 0.5, 0.0, 0.0],
    ], ids=["inf_trace", "nan_trace"])
    def test_overflowing_trace_fails_without_warning(self, diagonal):
        m = np.diag(diagonal).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonUnitTraceError):
                validate_density(m, 2, len(diagonal) // 2)

    def test_never_renormalizes(self):
        m = np.eye(6) / 6.0
        rho = validate_density(m, 2, 3)
        assert np.array_equal(rho.matrix, m)

    def test_matrix_is_read_only(self):
        rho = validate_density(np.eye(6) / 6.0, 2, 3)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_matrix_is_a_copy_of_a_complex_input(self):
        m = np.eye(6, dtype=complex) / 6.0
        rho = validate_density(m, 2, 3)
        m[0, 0] = 1.0
        assert rho.matrix[0, 0] == 1.0 / 6.0


# Perturbations of I/6 that each move one residual to x.
def negative_eigenvalue(x):
    return np.diag([-x, 1.0 / 3.0 + x, *[1.0 / 6.0] * 4])


def off_diagonal(x):
    m = np.eye(6) / 6.0
    m[0, 1] = x
    return m


def trace_excess(x):
    m = np.eye(6) / 6.0
    m[0, 0] += x
    return m


@pytest.mark.parametrize("check, perturb, error", [
    (lambda m: validate_density(m, 2, 3), negative_eigenvalue, NotPositiveSemidefiniteError),
    (lambda m: validate_density(m, 2, 3), off_diagonal, NonHermitianError),
    (lambda m: validate_density(m, 2, 3), trace_excess, NonUnitTraceError),
    (von_neumann_entropy, negative_eigenvalue, NotPositiveSemidefiniteError),
    (von_neumann_entropy, off_diagonal, NonHermitianError),
], ids=["validate_density-psd", "validate_density-hermiticity", "validate_density-trace",
        "von_neumann_entropy-psd", "von_neumann_entropy-hermiticity"])
@pytest.mark.parametrize("factor", [0.5, 1.5])
def test_validation_tol_edge(check, perturb, error, factor):
    m = perturb(factor * VALIDATION_TOL)
    if factor < 1.0:
        check(m)
    else:
        with pytest.raises(error):
            check(m)


class TestPartialTrace:

    def test_family_qudit_marginal_is_diagonal_with_known_spectrum(self):
        s = TwoParamState(3, 0.1, 0.3)
        marg = partial_trace_a(build_state(s))
        top = (3.0 * s.beta + s.gamma) / 2.0
        expected = np.sort([top, top, 2.0 * s.alpha])[::-1]
        assert np.max(np.abs(marg - np.diag(np.diagonal(marg)))) < 1e-14
        assert np.allclose(np.sort(np.linalg.eigvalsh(marg))[::-1], expected, atol=1e-12)

    def test_family_qubit_marginal_is_maximally_mixed(self):
        s = TwoParamState(4, 0.05, 0.4)
        marg = partial_trace_b(build_state(s))
        assert np.allclose(marg, np.eye(2) / 2.0, atol=1e-12)

    def test_product_state_recovers_factor(self):
        rng = np.random.default_rng(5)
        rho_a = random_state(2, rng)
        rho_b = random_state(3, rng)
        prod = validate_density(np.kron(rho_a, rho_b), 2, 3)
        assert np.max(np.abs(partial_trace_a(prod) - rho_b)) < 1e-12
        assert np.max(np.abs(partial_trace_b(prod) - rho_a)) < 1e-12

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(6)
        for d in (3, 4, 5):
            for _ in range(10):
                rho = random_density_matrix(2, d, rng)
                for marg in (partial_trace_a(rho), partial_trace_b(rho)):
                    assert abs(np.trace(marg).real - 1.0) < 1e-12
                    assert np.linalg.eigvalsh(marg)[0] > -1e-12


class TestPartialTranspose:

    def test_product_state_spectrum_unchanged(self):
        rng = np.random.default_rng(7)
        rho_a = random_state(2, rng)
        rho_b = random_state(3, rng)
        prod = validate_density(np.kron(rho_a, rho_b), 2, 3)
        pt = partial_transpose_a(prod)
        assert np.allclose(np.linalg.eigvalsh(pt),
                           np.linalg.eigvalsh(prod.matrix), atol=1e-12)
        assert np.linalg.eigvalsh(pt)[0] > -1e-12

    def test_singlet_minimum_eigenvalue(self):
        rho = validate_density(singlet_projector(3), 2, 3)
        lam = np.linalg.eigvalsh(partial_transpose_a(rho))
        assert np.isclose(lam[0], -0.5, atol=1e-12)

    def test_family_ppt_region_stays_positive(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = int(rng.integers(3, 6))
            alpha = rng.uniform(0.0, 1.0 / (2 * (d - 2)))
            gamma = rng.uniform(0.0, 1.0)
            if 1.0 - 2 * (d - 2) * alpha - gamma < 0.0:
                continue
            if 2 * (d - 2) * alpha + 2 * gamma - 1.0 > 0.0:
                continue
            rho = build_state(TwoParamState(d, alpha, gamma))
            assert np.linalg.eigvalsh(partial_transpose_a(rho))[0] >= -1e-10

    def test_involution_trace_hermiticity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho = random_density_matrix(2, 4, rng)
            pt = partial_transpose_a(rho)
            assert np.max(np.abs(pt - pt.conj().T)) < 1e-12
            assert abs(np.trace(pt).real - 1.0) < 1e-12
            back = pt.reshape(2, 4, 2, 4).transpose(2, 1, 0, 3).reshape(8, 8)
            assert np.array_equal(back, np.asarray(rho.matrix))


class TestEntropy:

    def test_maximally_mixed_qubit(self):
        assert np.isclose(von_neumann_entropy(np.eye(2) / 2.0), 1.0, atol=1e-14)

    def test_pure_state(self):
        psi_m = bell_vectors(3)[3]
        assert np.isclose(von_neumann_entropy(np.outer(psi_m, psi_m.conj())),
                          0.0, atol=1e-12)
        assert math.copysign(1.0, von_neumann_entropy(np.diag([1.0, 0.0]))) == 1.0

    def test_family_marginal_matches_closed_form(self):
        s = TwoParamState(3, 0.08, 0.35)
        a, b, g = s.alpha, s.beta, s.gamma
        expected = (-2.0 * a * np.log2(2.0 * a)
                    - (3.0 * b + g) * np.log2((3.0 * b + g) / 2.0))
        got = von_neumann_entropy(partial_trace_a(build_state(s)))
        assert np.isclose(got, expected, atol=1e-12)

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            von_neumann_entropy(np.diag([1.2, -0.2]))

    @pytest.mark.parametrize("m", [
        np.full((2, 2), np.nan),
        np.array([[0.5, np.nan], [np.nan, 0.5]]),
        np.array([[0.5, np.inf], [np.inf, 0.5]]),
    ], ids=["all_nan", "nan_off_diagonal", "inf_off_diagonal"])
    def test_non_finite_input_rejected(self, m):
        with pytest.raises(NonFiniteError):
            von_neumann_entropy(m)

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off_diagonal"])
    def test_nan_rejected(self, where):
        m = np.diag([0.0, 1.0]).astype(complex)
        m[where] = np.nan
        with pytest.raises(NonFiniteError) as exc:
            von_neumann_entropy(m)
        assert "NaN" in str(exc.value)

    # A raw matrix is checked whole: one triangle of a non-Hermitian matrix is not read.
    @pytest.mark.parametrize("m", [[[1, 1e-3, 0], [0, 1, 0], [0, 0, 1]],
                                   [[0.5, 1], [0, 0.5]]],
                             ids=["small_off_diagonal", "upper_triangle"])
    def test_non_hermitian_rejected(self, m):
        with pytest.raises(NonHermitianError):
            von_neumann_entropy(m)

    # numpy would take a stack of matrices, or fail with a message naming no invariant.
    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3), (0, 0), (3,)], ids=str)
    def test_not_a_non_empty_square_matrix_rejected(self, shape):
        with pytest.raises(DimensionMismatchError, match=re.escape(f"got shape {shape}")):
            von_neumann_entropy(np.ones(shape))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = random_density_matrix(2, 3, rng)
            u = random_unitary(6, rng)
            rotated = u @ rho.matrix @ u.conj().T
            assert abs(von_neumann_entropy(rotated)
                       - von_neumann_entropy(rho.matrix)) < 1e-9

    def test_mutual_information_of_product_state_vanishes(self):
        rng = np.random.default_rng(12)
        rho_a = random_state(2, rng)
        rho_b = random_state(3, rng)
        prod = validate_density(np.kron(rho_a, rho_b), 2, 3)
        assert abs(quantum_mutual_information(prod)) < 1e-10


class TestDiscordPredicates:

    def test_commutator_vanishes_for_classical_diagonal(self):
        rho = validate_density(np.diag([0.4, 0.3, 0.0, 0.1, 0.2, 0.0]), 2, 3)
        assert commutator_condition(rho) < 1e-14

    def test_commutator_vanishes_for_maximally_mixed(self):
        rho = validate_density(np.eye(6) / 6.0, 2, 3)
        assert commutator_condition(rho) < 1e-14

    def test_commutator_vanishes_when_qubit_marginal_is_maximally_mixed(self):
        # rho_A = I/2 makes rho_A (x) I a multiple of the identity, so even the
        # maximally entangled singlet commutes with it; the predicate is
        # one-directional and silent here.
        rho = validate_density(singlet_projector(3), 2, 3)
        assert commutator_condition(rho) < 1e-14

    def test_commutator_positive_for_asymmetric_entangled_state(self):
        v = np.zeros(6, dtype=complex)
        v[0] = np.sqrt(0.3)   # |0 0>
        v[4] = np.sqrt(0.7)   # |1 1>
        rho = validate_density(np.outer(v, v.conj()), 2, 3)
        assert commutator_condition(rho) > 0.1

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_commutator_matches_the_plain_formula(self, d):
        # On complex states; rho_A transposed reads 0.1539 for 0.1007 at d = 3.
        rho = random_density_matrix(2, d, np.random.default_rng(0))
        m = rho.matrix
        big = np.kron(np.einsum("ijkj->ik", m.reshape(2, d, 2, d)), np.eye(d))
        assert abs(commutator_condition(rho) - np.linalg.norm(m @ big - big @ m)) < 1e-12

    def test_family_with_equal_psi_weights_is_classical_diagonal(self):
        # beta == gamma collapses the Bell projectors to the block identity
        s = TwoParamState(3, 1.0 / 6.0, 1.0 / 6.0)
        rho = build_state(s)
        assert np.max(np.abs(rho.matrix - np.diag(np.diagonal(rho.matrix)))) <= 1e-12


class TestNegativityTraceNorm:

    def test_singlet_scores_one(self):
        rho = validate_density(singlet_projector(3), 2, 3)
        assert np.isclose(negativity_trace_norm(rho), 1.0, atol=1e-12)

    def test_product_state_scores_zero(self):
        rng = np.random.default_rng(13)
        rho_a = random_state(2, rng)
        rho_b = random_state(3, rng)
        prod = validate_density(np.kron(rho_a, rho_b), 2, 3)
        assert negativity_trace_norm(prod) < 1e-12

    @pytest.mark.parametrize("d", [3, 7, 11, 14])
    def test_never_below_zero(self, d):
        # Here the |spectrum| of the partial transpose sums to 1 - 1.1e-16 or
        # 1 - 2.2e-16 in rounding.
        rho = validate_density(np.eye(2 * d) / (2 * d), 2, d)
        assert negativity_trace_norm(rho) == 0.0

    def test_ppt_state_above_unit_trace_scores_plus_zero(self):
        # Trace 1 + 4e-11 and no negative eigenvalue of the partial transpose:
        # ||rho^(T_A)||_1 - 1 would read 4e-11, twice the negative mass reads +0.0.
        a = 0.5 * (1 + 4e-11)
        rho = validate_density(np.diag([0, 0, a, 0, 0, a]), 2, 3)
        assert math.copysign(1.0, negativity_trace_norm(rho)) == 1.0
        assert negativity_trace_norm(rho) == 0.0
