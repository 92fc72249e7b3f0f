"""Operator-algebra contracts: validation, tensor structure, spectra, entropy."""

import warnings

import numpy as np
import pytest

from qucorr.operators import (
    DimensionMismatchError,
    NonFiniteError,
    NonHermitianError,
    NonUnitTraceError,
    NotPositiveSemidefiniteError,
    commutator_condition,
    hermitian_spectrum,
    is_classical_diagonal,
    negativity_trace_norm,
    partial_trace_a,
    partial_trace_b,
    partial_transpose_a,
    quantum_mutual_information,
    random_density_matrix,
    random_unitary,
    tensor,
    validate_density,
    von_neumann_entropy,
)
from qucorr.family import TwoParamState, bell_vectors, build_state


def singlet_projector(d: int) -> np.ndarray:
    psi_m = bell_vectors(d)[3]
    return np.outer(psi_m, psi_m.conj())


class TestValidateDensity:

    def test_maximally_mixed_is_valid(self):
        rho = validate_density(np.eye(6) / 6.0, 2, 3)
        assert rho.dims == (2, 3)
        assert rho.total_dim == 6

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


class TestTensor:

    def test_identity_factors(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(3)), np.eye(6))

    def test_diagonal_blocks(self):
        got = tensor(np.diag([1.0, 0.0]), np.eye(3))
        assert np.array_equal(got, np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]))

    def test_basis_convention_qubit_major(self):
        # flipping the first factor must send |0 0> (index 0) to |1 0> (index 2)
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        e00 = np.zeros(4)
        e00[0] = 1.0
        out = tensor(sigma_x, np.eye(2)) @ e00
        assert np.array_equal(out, np.array([0.0, 0.0, 1.0, 0.0]))


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
        rho_a = random_density_matrix(1, 2, rng).matrix
        rho_b = random_density_matrix(1, 3, rng).matrix
        prod = validate_density(tensor(rho_a, rho_b), 2, 3)
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
        rho_a = random_density_matrix(1, 2, rng).matrix
        rho_b = random_density_matrix(1, 3, rng).matrix
        prod = validate_density(tensor(rho_a, rho_b), 2, 3)
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


class TestHermitianSpectrum:

    def test_diagonal_matrix(self):
        got = hermitian_spectrum(np.diag([0.5, 0.3, 0.2]))
        assert np.allclose(got, [0.5, 0.3, 0.2], atol=1e-14)

    def test_family_state_spectrum(self):
        s = TwoParamState(3, 0.1, 0.2)
        got = hermitian_spectrum(build_state(s).matrix)
        assert np.allclose(got, [0.2, 0.2, 0.2, 0.2, 0.1, 0.1], atol=1e-12)

    def test_pure_state(self):
        phi_p = bell_vectors(2)[0]
        got = hermitian_spectrum(np.outer(phi_p, phi_p.conj()))
        assert np.allclose(got, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_non_hermitian_rejected(self):
        m = np.eye(3, dtype=complex)
        m[0, 1] = 1e-3
        with pytest.raises(NonHermitianError):
            hermitian_spectrum(m)

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off_diagonal"])
    def test_nan_rejected(self, where):
        m = np.diag([0.0, 1.0]).astype(complex)
        m[where] = np.nan
        with pytest.raises(NonFiniteError) as exc:
            hermitian_spectrum(m)
        assert "NaN" in str(exc.value)

    def test_sums_to_one_and_reconstructs(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            rho = random_density_matrix(2, 4, rng)
            lam = hermitian_spectrum(rho.matrix)
            assert abs(lam.sum() - 1.0) < 1e-10
            w, v = np.linalg.eigh(rho.matrix)
            assert np.linalg.norm(rho.matrix - (v * w) @ v.conj().T) < 1e-9


class TestEntropy:

    def test_maximally_mixed_qubit(self):
        assert np.isclose(von_neumann_entropy(np.eye(2) / 2.0), 1.0, atol=1e-14)

    def test_pure_state(self):
        psi_m = bell_vectors(3)[3]
        assert np.isclose(von_neumann_entropy(np.outer(psi_m, psi_m.conj())),
                          0.0, atol=1e-12)

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
        rho_a = random_density_matrix(1, 2, rng).matrix
        rho_b = random_density_matrix(1, 3, rng).matrix
        prod = validate_density(tensor(rho_a, rho_b), 2, 3)
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

    def test_classical_diagonal_predicate(self):
        diag = validate_density(np.diag([0.5, 0.5, 0.0, 0.0, 0.0, 0.0]), 2, 3)
        assert is_classical_diagonal(diag)
        singlet = validate_density(singlet_projector(3), 2, 3)
        assert not is_classical_diagonal(singlet)

    def test_family_with_equal_psi_weights_is_classical_diagonal(self):
        # beta == gamma collapses the Bell projectors to the block identity
        s = TwoParamState(3, 1.0 / 6.0, 1.0 / 6.0)
        rho = build_state(s)
        assert is_classical_diagonal(rho)
        assert np.max(np.abs(rho.matrix - np.diag(np.diagonal(rho.matrix)))) <= 1e-12


class TestNegativityTraceNorm:

    def test_singlet_scores_one(self):
        rho = validate_density(singlet_projector(3), 2, 3)
        assert np.isclose(negativity_trace_norm(rho), 1.0, atol=1e-12)

    def test_product_state_scores_zero(self):
        rng = np.random.default_rng(13)
        rho_a = random_density_matrix(1, 2, rng).matrix
        rho_b = random_density_matrix(1, 3, rng).matrix
        prod = validate_density(tensor(rho_a, rho_b), 2, 3)
        assert negativity_trace_norm(prod) < 1e-12
