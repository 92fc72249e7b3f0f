"""Closed-form correlation measures for the two-parameter family."""

import numpy as np
import pytest

from qucorr.family import (
    CorrelationReport,
    NotInFamilyError,
    ParameterOutOfRangeError,
    TwoParamState,
    bell_vectors,
    build_state,
    classical_correlation,
    classify_family,
    conditional_entropy_closed,
    correlation_report,
    discord,
    entropy_b,
    family_spectrum,
    marginal_b_spectrum,
    mutual_information,
    nearest_family_member,
    negativity,
    random_family_state,
)
from qucorr.operators import (
    hermitian_spectrum,
    is_classical_diagonal,
    negativity_trace_norm,
    partial_trace_a,
    quantum_mutual_information,
    random_density_matrix,
    validate_density,
    von_neumann_entropy,
)


def max_off_diagonal(rho):
    """Largest off-diagonal modulus in the product basis."""
    return np.max(np.abs(rho.matrix - np.diag(np.diagonal(rho.matrix))))


def valid_grid(d, n=25):
    """All (alpha, gamma) combinations of an n x n rectangle that are admissible."""
    out = []
    for alpha in np.linspace(0.0, 1.0 / (2 * (d - 2)), n):
        for gamma in np.linspace(0.0, 1.0, n):
            if 1.0 - 2 * (d - 2) * alpha - gamma >= -1e-15:
                out.append(TwoParamState(d, float(alpha), float(gamma)))
    return out


class TestTwoParamState:

    def test_beta_is_derived_from_trace_constraint(self):
        s = TwoParamState(5, 0.05, 0.3)
        assert s.beta == (1.0 - 2.0 * 3 * 0.05 - 0.3) / 3.0
        assert abs(2 * (s.d - 2) * s.alpha + 3 * s.beta + s.gamma - 1.0) < 1e-12

    @pytest.mark.parametrize("d,alpha,gamma", [
        (2, 0.0, 0.5),       # qudit dimension too small
        (3, 0.6, 0.0),       # alpha above 1/(2(d-2))
        (3, -0.1, 0.5),      # alpha negative
        (3, 0.0, 1.5),       # gamma above one
        (3, 0.4, 0.5),       # beta forced negative
    ])
    def test_out_of_range_rejected(self, d, alpha, gamma):
        with pytest.raises(ParameterOutOfRangeError):
            TwoParamState(d, alpha, gamma)


class TestBuildState:

    def test_all_weight_on_singlet(self):
        rho = build_state(TwoParamState(3, 0.0, 1.0))
        psi_m = bell_vectors(3)[3]
        assert np.allclose(rho.matrix, np.outer(psi_m, psi_m.conj()), atol=1e-14)

    def test_uniform_triplet_mixture(self):
        rho = build_state(TwoParamState(3, 0.0, 0.0))
        phi_p, phi_m, psi_p, _ = bell_vectors(3)
        expected = sum(np.outer(v, v.conj()) for v in (phi_p, phi_m, psi_p)) / 3.0
        assert np.allclose(rho.matrix, expected, atol=1e-14)

    def test_equal_weights_give_product_state(self):
        rho = build_state(TwoParamState(3, 1 / 6, 1 / 6))
        expected = np.kron(np.eye(2) / 2.0, np.diag([1 / 3, 1 / 3, 1 / 3]))
        assert np.allclose(rho.matrix, expected, atol=1e-14)
        assert is_classical_diagonal(rho)
        assert max_off_diagonal(rho) <= 1e-12


class TestSpectra:

    def test_singlet_spectrum(self):
        got = family_spectrum(TwoParamState(3, 0.0, 1.0))
        assert np.allclose(got, [1, 0, 0, 0, 0, 0], atol=1e-14)

    def test_generic_spectrum_matches_dense_solver(self):
        s = TwoParamState(3, 0.1, 0.2)
        assert np.allclose(family_spectrum(s), [0.2, 0.2, 0.2, 0.2, 0.1, 0.1], atol=1e-14)
        assert np.allclose(family_spectrum(s),
                           hermitian_spectrum(build_state(s).matrix), atol=1e-12)

    def test_spectrum_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = random_family_state(int(rng.integers(3, 6)), rng)
            assert abs(family_spectrum(s).sum() - 1.0) < 1e-12

    def test_marginal_spectrum_singlet(self):
        got = marginal_b_spectrum(TwoParamState(3, 0.0, 1.0))
        assert np.allclose(got, [0.5, 0.5, 0.0], atol=1e-14)

    def test_marginal_spectrum_generic(self):
        got = marginal_b_spectrum(TwoParamState(3, 0.1, 0.2))
        assert np.allclose(got, [0.4, 0.4, 0.2], atol=1e-14)

    def test_marginal_spectrum_beta_zero_d4(self):
        got = marginal_b_spectrum(TwoParamState(4, 0.25, 0.0))
        assert np.allclose(got, [0.5, 0.5, 0.0, 0.0], atol=1e-14)

    def test_marginal_spectrum_matches_partial_trace(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = random_family_state(int(rng.integers(3, 6)), rng)
            dense = np.sort(np.linalg.eigvalsh(partial_trace_a(build_state(s))))[::-1]
            assert np.allclose(marginal_b_spectrum(s), dense, atol=1e-12)


class TestEntropies:

    def test_marginal_entropy_corner_cases(self):
        assert np.isclose(entropy_b(TwoParamState(3, 0.0, 1.0)), 1.0, atol=1e-12)
        assert np.isclose(entropy_b(TwoParamState(3, 0.0, 0.0)), 1.0, atol=1e-12)

    def test_marginal_entropy_matches_generic_path(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = random_family_state(int(rng.integers(3, 6)), rng)
            generic = von_neumann_entropy(partial_trace_a(build_state(s)))
            assert abs(entropy_b(s) - generic) < 1e-10

    def test_conditional_entropy_uniform_triplet(self):
        got = conditional_entropy_closed(TwoParamState(3, 0.0, 0.0))
        assert np.isclose(got, np.log2(3.0) - 2.0 / 3.0, atol=1e-12)

    def test_conditional_entropy_singlet_is_zero(self):
        assert conditional_entropy_closed(TwoParamState(3, 0.0, 1.0)) == 0.0

    def test_conditional_entropy_frozen_point(self):
        # alpha=0.2, gamma=0.15 gives beta=0.15; terms evaluated independently
        got = conditional_entropy_closed(TwoParamState(3, 0.2, 0.15))
        expected = -0.4 * np.log2(0.4) - 0.3 * np.log2(0.3) - 0.3 * np.log2(0.3)
        assert np.isclose(got, expected, atol=1e-12)
        assert np.isclose(got, 1.5709505944546684, atol=1e-12)


class TestCorrelationMeasures:

    def test_singlet_values(self):
        s = TwoParamState(3, 0.0, 1.0)
        assert abs(mutual_information(s) - 2.0) < 1e-12
        assert abs(classical_correlation(s) - 1.0) < 1e-12
        assert abs(discord(s) - 1.0) < 1e-12
        assert abs(negativity(s) - 1.0) < 1e-12

    def test_uniform_triplet_values(self):
        s = TwoParamState(3, 0.0, 0.0)
        assert abs(classical_correlation(s) - (5.0 / 3.0 - np.log2(3.0))) < 1e-12
        assert abs(discord(s) - 1.0 / 3.0) < 1e-12
        assert negativity(s) == 0.0

    def test_discord_along_gamma_zero_line(self):
        for alpha in np.linspace(0.0, 0.5, 100):
            s = TwoParamState(3, float(alpha), 0.0)
            assert abs(discord(s) - (1.0 - 2.0 * alpha) / 3.0) < 1e-12

    def test_beta_zero_line_equalities(self):
        for alpha in np.linspace(0.0, 0.5, 10):
            s = TwoParamState(3, float(alpha), 1.0 - 2.0 * float(alpha))
            expected = 1.0 - 2.0 * alpha
            assert abs(negativity(s) - expected) < 1e-12
            assert abs(classical_correlation(s) - expected) < 1e-12
            assert abs(discord(s) - expected) < 1e-12

    def test_total_is_classical_plus_quantum(self):
        for d in (3, 4, 5):
            for s in valid_grid(d):
                gap = mutual_information(s) - classical_correlation(s) - discord(s)
                assert abs(gap) < 1e-12

    def test_all_measures_nonnegative_on_grid(self):
        for d in (3, 4, 5):
            for s in valid_grid(d):
                assert mutual_information(s) >= -1e-12
                assert classical_correlation(s) >= -1e-12
                assert discord(s) >= -1e-12
                assert negativity(s) >= 0.0

    def test_equal_psi_weights_kill_all_correlations(self):
        for d in (3, 4, 5):
            for gamma in np.linspace(0.0, 1.0 / 4.0, 9):
                alpha = (1.0 - 4.0 * gamma) / (2.0 * (d - 2))
                s = TwoParamState(d, float(alpha), float(gamma))
                assert abs(s.beta - s.gamma) < 1e-12
                assert abs(mutual_information(s)) < 1e-12
                assert abs(classical_correlation(s)) < 1e-12
                assert abs(discord(s)) < 1e-12
                assert negativity(s) == 0.0
                assert is_classical_diagonal(build_state(s))
                assert max_off_diagonal(build_state(s)) <= 1e-12

    def test_discord_exceeds_classical_on_gamma_zero_line(self):
        for alpha in np.linspace(0.0, 0.5, 1002)[1:-1]:
            s = TwoParamState(3, float(alpha), 0.0)
            assert discord(s) > classical_correlation(s)

    def test_mutual_information_matches_generic_path(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = random_family_state(int(rng.integers(3, 6)), rng)
            generic = quantum_mutual_information(build_state(s))
            assert abs(mutual_information(s) - generic) < 1e-10

    def test_negativity_matches_trace_norm_oracle(self):
        for d in (3, 4, 5):
            for s in valid_grid(d, n=15):
                oracle = negativity_trace_norm(build_state(s))
                assert abs(negativity(s) - oracle) < 1e-9

    def test_report_bundles_all_four(self):
        s = TwoParamState(3, 0.05, 0.6)
        report = correlation_report(s)
        assert isinstance(report, CorrelationReport)
        assert abs(report.mutual_info - report.classical - report.discord) < 1e-12
        assert min(report.mutual_info, report.classical,
                   report.discord, report.negativity) >= -1e-12


class TestClassifyFamily:

    def test_round_trip(self):
        s = TwoParamState(3, 0.1, 0.2)
        got = classify_family(build_state(s))
        assert np.isclose(got.alpha, 0.1, atol=1e-12)
        assert np.isclose(got.gamma, 0.2, atol=1e-12)

    def test_maximally_mixed_state(self):
        from qucorr.operators import validate_density
        got = classify_family(validate_density(np.eye(6) / 6.0, 2, 3))
        assert np.isclose(got.alpha, 1.0 / 6.0, atol=1e-12)
        assert np.isclose(got.gamma, 1.0 / 6.0, atol=1e-12)

    @pytest.mark.parametrize("read", [classify_family, nearest_family_member])
    def test_qubit_pair_is_out_of_range(self, read):
        # A valid 2 x 2 state: the family and its alpha range need d >= 3.
        with pytest.raises(ParameterOutOfRangeError, match="d >= 3"):
            read(validate_density(np.eye(4) / 4.0, 2, 2))

    def test_generic_state_is_rejected_with_residual(self):
        rng = np.random.default_rng(4)
        rho = random_density_matrix(2, 3, rng)
        with pytest.raises(NotInFamilyError) as exc:
            classify_family(rho)
        assert exc.value.residual > 1e-3

    def test_nearest_member_reports_residual(self):
        s = TwoParamState(4, 0.12, 0.3)
        candidate, residual = nearest_family_member(build_state(s))
        assert residual < 1e-12
        assert np.isclose(candidate.alpha, 0.12, atol=1e-12)
