"""Closed-form correlation measures for the two-parameter family."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qucorr import operators
from qucorr.closed_form import (
    CorrelationReport,
    PARAM_TOL,
    ParameterOutOfRangeError,
    TwoParamState,
    _trace_remainder,
    classical_correlation,
    conditional_entropy_closed,
    correlation_report,
    discord,
    entropy_b,
    mutual_information,
    negativity,
)
from qucorr.family import (
    NotInFamilyError,
    _family_matrix,
    _family_weights,
    _projected_params,
    build_state,
    classify_family,
    family_spectrum,
    marginal_b_spectrum,
    nearest_family_member,
    random_family_state,
    twirl,
)
from qucorr.operators import (
    negativity_trace_norm,
    partial_trace_a,
    quantum_mutual_information,
    random_density_matrix,
    validate_density,
    von_neumann_entropy,
)
from states import bell_vectors


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


# (d, alpha, gamma) whose beta = (1 - 2(d-2)alpha - gamma)/3 rounds to -1.85e-16.
BETA_ROUNDS_BELOW_ZERO = [(3, 0.24392832826207378, 0.512143343475853),
                          (5, 0.019653117278510174, 0.8820812963289395)]


def certificate_members(d):
    """Random members, one at every edge of TwoParamState's domain, and one with a
    numpy integer d."""
    rng = np.random.default_rng(2600 + d)
    alpha_max = 1.0 / (2 * (d - 2))
    alpha = 0.4 * alpha_max
    gamma = _trace_remainder(d, alpha, 0.0, 0.0) + 1e-13   # beta rounds to about -3e-14
    assert -PARAM_TOL <= _trace_remainder(d, alpha, 0.0, gamma) / 3.0 < 0.0
    edges = [TwoParamState(d, -PARAM_TOL, 0.3), TwoParamState(d, alpha_max, 0.0),
             TwoParamState(d, 0.5 * alpha_max, -PARAM_TOL), TwoParamState(d, 0.0, 1.0 + PARAM_TOL),
             TwoParamState(d, alpha, gamma), TwoParamState(np.int64(d), alpha, 0.2)]
    return edges + [random_family_state(d, rng) for _ in range(20)]


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

    # Each bound at d = 3 (alpha_max = 1/2), crossed by `past` PARAM_TOL: only
    # 1.5 is outside its slack.  beta = (1 - 2 alpha - gamma)/3 goes below 0 with gamma < 1.
    @pytest.mark.parametrize("bound, params", [
        ("alpha", lambda t: (-t, 0.5)),
        ("alpha", lambda t: (0.5 + t, 0.0)),
        ("gamma", lambda t: (0.0, -t)),
        ("gamma", lambda t: (0.0, 1.0 + t)),
        ("beta", lambda t: (0.25, 0.5 + 3.0 * t)),
    ], ids=["alpha_below_0", "alpha_above_max", "gamma_below_0", "gamma_above_1", "beta_below_0"])
    @pytest.mark.parametrize("past", [-1.5, -0.5, 0.5, 1.5])
    def test_bound_slack_is_param_tol(self, bound, params, past):
        args = params(past * PARAM_TOL)
        if past < 1.0:
            TwoParamState(3, *args)
        else:
            with pytest.raises(ParameterOutOfRangeError, match=f"^{bound}="):
                TwoParamState(3, *args)

    def test_dimension_whose_2_d_minus_2_overflows_is_out_of_range(self):
        # 2.0 * (10**308 - 2) is inf, so alpha_max would be 0 and beta nan.
        with pytest.raises(ParameterOutOfRangeError, match="d >= 3"):
            TwoParamState(10 ** 308, 0.0, 0.5)

    def test_non_integer_dimension_is_out_of_range(self):
        with pytest.raises(ParameterOutOfRangeError, match="d >= 3"):
            TwoParamState(3.5, 0.1, 0.2)
        # A numpy integer is an integer, and is stored as an int.
        s = TwoParamState(np.int64(4), 0.1, 0.2)
        assert type(s.d) is int and type(s.beta) is float
        assert repr(s) == "TwoParamState(d=4, alpha=0.1, gamma=0.2)"
        assert build_state(s).dim_b == 4

    def test_numpy_floats_are_stored_as_floats(self):
        # An np.float32 alpha kept as given ran beta and every closed form in float32.
        s = TwoParamState(3, np.float32(0.05), np.float32(0.3))
        assert type(s.alpha) is float and type(s.gamma) is float and type(s.beta) is float
        assert correlation_report(s) == correlation_report(
            TwoParamState(3, float(np.float32(0.05)), float(np.float32(0.3))))
        for closed_form in (entropy_b, conditional_entropy_closed, classical_correlation,
                            mutual_information, discord, negativity):
            assert type(closed_form(s)) is float, closed_form.__name__
        with pytest.raises(TypeError):
            TwoParamState(3, "0.05", 0.3)

    @pytest.mark.parametrize("d, alpha, gamma", BETA_ROUNDS_BELOW_ZERO)
    def test_beta_rounding_below_zero_reads_zero(self, d, alpha, gamma):
        # The spectra and closed forms read the beta that build_state places.
        assert -PARAM_TOL <= _trace_remainder(d, alpha, 0.0, gamma) / 3.0 < 0.0
        s = TwoParamState(d, alpha, gamma)
        assert s.beta == 0.0
        assert family_spectrum(s).min() >= 0.0
        assert marginal_b_spectrum(s).min() >= 0.0
        assert build_state(s).matrix[0, 0] == 0.0

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_largest_dimension_has_a_finite_report(self, fraction):
        d = 2 ** 1022
        s = TwoParamState(d, fraction / (2.0 * (d - 2)), 0.0)
        report = correlation_report(s)
        assert np.all(np.isfinite([s.beta, report.mutual_info, report.classical,
                                   report.discord, report.negativity]))


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
        assert max_off_diagonal(rho) <= 1e-12

    @pytest.mark.parametrize("d", [3, 4, 5, 8, 16, 64])
    def test_member_passes_validation_unchanged(self, d):
        # validate_density is the oracle for the certificate build_state relies on.
        for s in certificate_members(d):
            rho = build_state(s)
            assert np.array_equal(validate_density(rho.matrix, 2, d).matrix, rho.matrix)
            assert type(rho.dim_b) is int and rho.dim_b == d
            assert not rho.matrix.flags.writeable
            assert family_spectrum(s).min() >= -PARAM_TOL
            assert np.allclose(family_spectrum(s), np.linalg.eigvalsh(rho.matrix)[::-1], atol=1e-13)


def bell_projector_sum(s):
    """The member from its definition: outer projectors and Bell outer products."""
    d = s.d
    outer = np.diag([0.0 if j < 2 else s.alpha for j in range(d)] * 2).astype(complex)
    phi_p, phi_m, psi_p, psi_m = bell_vectors(d)
    return outer + sum(w * np.outer(v, v.conj()) for w, v in
                       ((s.beta, phi_p), (s.beta, phi_m), (s.beta, psi_p), (s.gamma, psi_m)))


def edge_and_random_members(d):
    """gamma = 1, alpha = 0, beta = 0 with alpha > 0, and two random members."""
    rng = np.random.default_rng(900 + d)
    return [TwoParamState(d, 0.0, 1.0), TwoParamState(d, 0.0, 0.3),
            TwoParamState(d, 0.6 / (2 * (d - 2)), 0.4),
            random_family_state(d, rng), random_family_state(d, rng)]


class TestClosedForm:
    """The closed-form member and reader against the dense Bell-vector definitions."""

    @pytest.mark.parametrize("d", [3, 5, 8, 16])
    def test_member_is_the_bell_projector_sum(self, d):
        for s in edge_and_random_members(d):
            assert np.max(np.abs(_family_matrix(s) - bell_projector_sum(s))) < 1e-15

    @pytest.mark.parametrize("d", [3, 5, 8, 16])
    def test_reader_matches_the_bell_quadratic_forms(self, d):
        rng = np.random.default_rng(950 + d)
        phi_p, phi_m, psi_p, psi_m = bell_vectors(d)
        states = [random_density_matrix(2, d, rng) for _ in range(10)]
        states += [build_state(s) for s in edge_and_random_members(d)]
        for rho in states:
            outer, phi_pair, psi_plus, psi_minus = _family_weights(rho)
            form = [float(np.real(v.conj() @ rho.matrix @ v))
                    for v in (phi_p, phi_m, psi_p, psi_m)]
            assert abs(psi_plus - form[2]) < 1e-15
            assert abs(psi_minus - form[3]) < 1e-15
            assert abs(phi_pair - 0.5 * (form[0] + form[1])) < 1e-15
            diag = np.real(np.diagonal(rho.matrix))
            assert np.array_equal(outer, [diag[i * d + j] for i in (0, 1) for j in range(2, d)])

    def test_no_eigensolve_is_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an eigensolver was called")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for d in (3, 5, 8, 16):
            for s in edge_and_random_members(d):
                build_state(s)


class TestSpectra:

    def test_singlet_spectrum(self):
        got = family_spectrum(TwoParamState(3, 0.0, 1.0))
        assert np.allclose(got, [1, 0, 0, 0, 0, 0], atol=1e-14)

    def test_generic_spectrum_matches_dense_solver(self):
        s = TwoParamState(3, 0.1, 0.2)
        assert np.allclose(family_spectrum(s), [0.2, 0.2, 0.2, 0.2, 0.1, 0.1], atol=1e-14)
        assert np.allclose(family_spectrum(s),
                           np.linalg.eigvalsh(build_state(s).matrix)[::-1], atol=1e-12)

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
        # At d = 3 and alpha = 1/2 the qudit marginal is pure.
        pure = entropy_b(TwoParamState(3, 0.5, 0.0))
        assert pure == 0.0 and math.copysign(1.0, pure) == 1.0

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
        got = conditional_entropy_closed(TwoParamState(3, 0.0, 1.0))
        assert got == 0.0 and math.copysign(1.0, got) == 1.0

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
                assert mutual_information(s) == classical_correlation(s) + discord(s)

    def test_all_measures_nonnegative_on_grid(self):
        # high_precision_members adds members near beta = gamma, where I, C and D
        # tend to 0 and a cancelling sum would dip below it.
        for d in (3, 4, 5):
            rng = np.random.default_rng(2300 + d)
            for s in valid_grid(d) + high_precision_members(d, rng):
                assert mutual_information(s) >= 0.0
                assert classical_correlation(s) >= 0.0
                assert discord(s) >= 0.0
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
        assert report.mutual_info == report.classical + report.discord
        assert min(report.mutual_info, report.classical,
                   report.discord, report.negativity) >= 0.0


def decimal_measures(s):
    """The five entropic measures of ``s`` from their defining entropies, in 50-digit
    decimal arithmetic on the exact values of the doubles alpha, beta and gamma.

    The weights are rescaled to unit trace first, so that rho_A is exactly I/2 and
    I = C + D holds; C and D are 1-homogeneous in the weights, so the rescaling
    moves them by the trace's rounding error only."""
    def bits(*weights):   # (multiplicity, eigenvalue) pairs
        return -sum((m * w * w.ln() for m, w in weights if w > 0), Decimal(0)) / Decimal(2).ln()

    with localcontext() as ctx:
        ctx.prec = 50
        d = s.d
        a, b, g = (Decimal(x) for x in (s.alpha, s.beta, s.gamma))
        t = 2 * (d - 2) * a + 3 * b + g
        a, b, g = a / t, b / t, g / t
        s_b = bits((2, (3 * b + g) / 2), (d - 2, 2 * a))
        s_cond = bits((d - 2, 2 * a), (1, 2 * b), (1, b + g))
        s_ab = bits((2 * (d - 2), a), (3, b), (1, g))
        classical, mutual = s_b - s_cond, 1 + s_b - s_ab
        return {entropy_b: s_b, conditional_entropy_closed: s_cond,
                classical_correlation: classical, mutual_information: mutual,
                discord: mutual - classical}


def high_precision_members(d, rng):
    """Uniform members, members with |beta - gamma|/beta from 1 down to 1e-9, and
    members on the edges beta = 0, gamma = 0 and alpha = 0."""
    alpha_max = 1.0 / (2 * (d - 2))
    members = [random_family_state(d, rng) for _ in range(30)]
    for k in range(9):
        for sign in (-1.0, 1.0):
            rel = sign * 10.0 ** -k * rng.uniform(0.1, 1.0)   # beta = gamma (1 + rel)
            gamma = rng.uniform(0.01, 0.99 / (4.0 + 3.0 * rel))
            members.append(TwoParamState(d, (1.0 - gamma * (4.0 + 3.0 * rel)) / (2 * (d - 2)),
                                         gamma))
    for alpha in rng.uniform(0.0, alpha_max, 4):
        members += [TwoParamState(d, alpha, 0.0),
                    TwoParamState(d, alpha, 1.0 - 2 * (d - 2) * alpha)]
    members += [TwoParamState(d, 0.0, gamma) for gamma in (0.0, 0.25, 1.0, rng.uniform())]
    return members + [TwoParamState(d, alpha_max, 0.0)]


class TestClosedFormsAtHighPrecision:
    """Every closed form against a decimal evaluation of its defining entropies.

    C, D and I = C + D tend to 0 as beta -> gamma, so they are held to a relative
    bound; the entropies are sums of terms of order one and are held to an absolute one.
    """

    @pytest.mark.parametrize("d", [3, 4, 5, 8, 16, 100])
    def test_closed_forms_match_decimal_reference(self, d):
        rng = np.random.default_rng(2200 + d)
        for s in high_precision_members(d, rng):
            for measure, exact in decimal_measures(s).items():
                err = abs(Decimal(measure(s)) - exact)
                if measure in (classical_correlation, discord, mutual_information):
                    assert err <= Decimal("1e-14") * exact + Decimal("1e-40"), (measure, s)
                else:
                    assert err <= Decimal("1e-14"), (measure, s)


class TestRandomFamilyState:

    @pytest.mark.parametrize("d", [2, 1, 0])
    def test_small_dimension_is_out_of_range(self, d):
        with pytest.raises(ParameterOutOfRangeError, match="d >= 3"):
            random_family_state(d, np.random.default_rng(5))

    def test_huge_dimension_is_out_of_range(self):
        # 10**400 - 2 does not convert to a double.
        with pytest.raises(ParameterOutOfRangeError, match="d >= 3"):
            random_family_state(10 ** 400, np.random.default_rng(5))

    def test_non_integer_dimension_is_out_of_range(self):
        with pytest.raises(ParameterOutOfRangeError, match="d >= 3"):
            random_family_state(3.5, np.random.default_rng(5))


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

    @pytest.mark.parametrize("d", [3, 5, 8, 16])
    def test_rebuild_is_the_validated_family_member(self, d):
        # The residual is taken against the unvalidated rebuild; it must be
        # the same matrix, bit for bit, that build_state wraps.
        rho = random_density_matrix(2, d, np.random.default_rng(40 + d))
        s, residual = nearest_family_member(rho)
        assert s == _projected_params(d, _family_weights(rho))
        assert residual == np.linalg.norm(rho.matrix - build_state(s).matrix)
        assert np.array_equal(build_state(s).matrix, _family_matrix(s))

    def test_outer_mean_above_alpha_max_is_clipped(self):
        # A valid state at trace 1 + 4e-11 whose outer mean is alpha_max + 2e-11.
        a = 0.5 * (1 + 4e-11)
        with pytest.raises(ParameterOutOfRangeError):
            TwoParamState(3, a, 0.0)
        rho = validate_density(np.diag([0, 0, a, 0, 0, a]), 2, 3)
        report = twirl(rho)
        assert (report.alpha, report.gamma) == (0.5, 0.0)
        s, residual = nearest_family_member(rho)
        assert s == TwoParamState(3, 0.5, 0.0)
        assert abs(residual - 2 ** 0.5 * 2e-11) < 1e-15

    def test_rebuild_is_not_validated(self, monkeypatch):
        rho = random_density_matrix(2, 5, np.random.default_rng(7))

        def refuse(*args):
            raise AssertionError("the family rebuild was validated")

        monkeypatch.setattr(operators, "_hermiticity_residual", refuse)
        monkeypatch.setattr(operators, "_psd_spectrum", refuse)
        s, residual = nearest_family_member(rho)
        assert s.d == 5 and residual > 1e-3
