"""Twirling pipeline: stage maps, exactness, invariance, monotonicity."""

import numpy as np
import pytest

from qucorr.family import (
    TwoParamState,
    bell_vectors,
    build_state,
    classify_family,
    random_family_state,
    singlet_weight,
)
from qucorr.operators import (
    negativity_trace_norm,
    random_density_matrix,
    validate_density,
)
from qucorr.twirl import (
    LevelOutOfRangeError,
    _halfway_weights,
    LocalUnitary,
    check_family_invariance,
    cycle_t,
    hadamard,
    hadamard_mix,
    level_sign,
    level_sign_mix,
    locc_stages,
    phase_mix,
    random_local_unitary,
    swap01,
    swap_mix,
    t_twirl,
    twirl,
    u_theta,
)

MIXES = (
    lambda rho: phase_mix(rho, np.pi),
    lambda rho: phase_mix(rho, np.pi / 2.0),
    lambda rho: level_sign_mix(rho, 2),
    swap_mix,
    t_twirl,
    hadamard_mix,
)


def basis_projector(d, i, j):
    m = np.zeros((2 * d, 2 * d), dtype=complex)
    m[i * d + j, i * d + j] = 1.0
    return m


class TestStageUnitaries:

    def test_phase_ladder_at_pi(self):
        u = u_theta(np.pi, 3)
        assert np.allclose(u.matrix_b, np.diag([1.0, -1.0, 1.0]), atol=1e-14)
        assert np.allclose(u.matrix_a, np.diag([1.0, -1.0]), atol=1e-14)

    def test_phase_ladder_at_zero_is_identity(self):
        u = u_theta(0.0, 4)
        assert np.allclose(u.full(), np.eye(8), atol=1e-14)

    def test_phase_ladder_at_half_pi(self):
        u = u_theta(np.pi / 2.0, 3)
        assert np.allclose(u.matrix_b, np.diag([1.0, 1.0j, -1.0]), atol=1e-14)

    def test_factors_act_alike_on_shared_levels(self):
        for make in (lambda: u_theta(0.7, 4), lambda: swap01(4), lambda: hadamard(4)):
            u = make()
            assert np.allclose(u.matrix_a, u.matrix_b[:2, :2], atol=1e-14)

    def test_non_unitary_factor_rejected(self):
        with pytest.raises(ValueError):
            LocalUnitary("broken", np.eye(2) * 2.0, np.eye(3))

    def test_level_sign_range_checked(self):
        with pytest.raises(LevelOutOfRangeError):
            level_sign(1, 4)
        with pytest.raises(LevelOutOfRangeError):
            level_sign(4, 4)

    def test_cycle_shifts_outer_levels(self):
        b = cycle_t(4).matrix_b
        e2, e3 = np.zeros(4), np.zeros(4)
        e2[2], e3[3] = 1.0, 1.0
        assert np.allclose(b @ e2, e3, atol=1e-14)
        assert np.allclose(b @ e3, e2, atol=1e-14)


class TestPhaseMix:

    def test_family_member_is_fixed(self):
        rho = build_state(TwoParamState(3, 0.1, 0.3))
        out = phase_mix(rho, np.pi)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12

    def test_maximally_mixed_is_fixed(self):
        rho = validate_density(np.eye(6) / 6.0, 2, 3)
        out = phase_mix(rho, 1.234)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_odd_parity_coherences_cancel(self):
        # |+>|0> has a coherence between |0 0> and |1 0> whose ladder phases differ by pi
        v = np.zeros(6, dtype=complex)
        v[0] = v[3] = 1.0 / np.sqrt(2.0)
        rho = validate_density(np.outer(v, v.conj()), 2, 3)
        out = phase_mix(rho, np.pi)
        assert abs(out.matrix[0, 3]) < 1e-15
        assert abs(rho.matrix[0, 3] - 0.5) < 1e-15


class TestLevelSignMix:

    def test_kills_coherence_with_flipped_level(self):
        v = np.zeros(6, dtype=complex)
        v[0] = v[2] = 1.0 / np.sqrt(2.0)   # |0 0> + |0 2>
        rho = validate_density(np.outer(v, v.conj()), 2, 3)
        out = level_sign_mix(rho, 2)
        assert abs(out.matrix[0, 2]) < 1e-15

    def test_diagonal_state_unchanged(self):
        rho = validate_density(np.diag([0.3, 0.2, 0.1, 0.1, 0.2, 0.1]), 2, 3)
        out = level_sign_mix(rho, 2)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_projects_after_one_application(self):
        rng = np.random.default_rng(0)
        rho = random_density_matrix(2, 4, rng)
        once = level_sign_mix(rho, 3)
        twice = level_sign_mix(once, 3)
        assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-14


class TestSwapMix:

    def test_swap_symmetric_state_unchanged(self):
        phi_p = bell_vectors(3)[0]
        rho = validate_density(np.outer(phi_p, phi_p.conj()), 2, 3)
        out = swap_mix(rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_basis_state_splits_evenly(self):
        rho = validate_density(basis_projector(3, 0, 0), 2, 3)
        out = swap_mix(rho)
        expected = 0.5 * basis_projector(3, 0, 0) + 0.5 * basis_projector(3, 1, 1)
        assert np.max(np.abs(out.matrix - expected)) < 1e-14

    def test_family_member_is_fixed(self):
        rho = build_state(TwoParamState(4, 0.1, 0.25))
        out = swap_mix(rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12


class TestCycleAverage:

    def test_identity_for_qutrit(self):
        rng = np.random.default_rng(1)
        rho = random_density_matrix(2, 3, rng)
        out = t_twirl(rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_equalizes_outer_weights(self):
        m = (0.3 * basis_projector(4, 0, 2) + 0.1 * basis_projector(4, 0, 3)
             + 0.6 * basis_projector(4, 0, 0))
        rho = validate_density(m, 2, 4)
        out = t_twirl(rho)
        assert np.isclose(out.matrix[2, 2].real, 0.2, atol=1e-14)
        assert np.isclose(out.matrix[3, 3].real, 0.2, atol=1e-14)
        assert np.isclose(out.matrix[0, 0].real, 0.6, atol=1e-14)

    def test_family_member_is_fixed(self):
        rho = build_state(TwoParamState(5, 0.05, 0.3))
        out = t_twirl(rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12


class TestHadamardMix:

    def test_singlet_is_fixed(self):
        rho = build_state(TwoParamState(3, 0.0, 1.0))
        out = hadamard_mix(rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_phi_plus_is_fixed(self):
        phi_p = bell_vectors(3)[0]
        rho = validate_density(np.outer(phi_p, phi_p.conj()), 2, 3)
        out = hadamard_mix(rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_phi_minus_mixes_with_psi_plus(self):
        _, phi_m, psi_p, _ = bell_vectors(3)
        rho = validate_density(np.outer(phi_m, phi_m.conj()), 2, 3)
        out = hadamard_mix(rho)
        expected = (2.0 / 3.0) * np.outer(psi_p, psi_p.conj()) \
            + (1.0 / 3.0) * np.outer(phi_m, phi_m.conj())
        assert np.max(np.abs(out.matrix - expected)) < 1e-14

    def test_maximally_mixed_is_fixed(self):
        rho = validate_density(np.eye(8) / 8.0, 2, 4)
        out = hadamard_mix(rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14


class TestStageProperties:

    def test_every_mix_preserves_density_invariants(self):
        rng = np.random.default_rng(2)
        for mix in MIXES:
            rho = random_density_matrix(2, 4, rng)
            out = mix(rho)
            m = out.matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            assert abs(np.trace(m).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(m)[0] > -1e-12

    def test_every_mix_preserves_singlet_weight(self):
        rng = np.random.default_rng(3)
        for mix in MIXES:
            rho = random_density_matrix(2, 4, rng)
            before = singlet_weight(rho)
            assert abs(singlet_weight(mix(rho)) - before) < 1e-12


class TestTwirl:

    def test_singlet_maps_to_itself(self):
        rho = build_state(TwoParamState(3, 0.0, 1.0))
        report = twirl(rho)
        assert abs(report.alpha) < 1e-12
        assert abs(report.gamma - 1.0) < 1e-12
        assert report.residual < 1e-12

    def test_family_member_parameters_unchanged(self):
        rng = np.random.default_rng(4)
        for d in (3, 4, 5):
            s = random_family_state(d, rng)
            report = twirl(build_state(s))
            assert abs(report.alpha - s.alpha) < 1e-12
            assert abs(report.gamma - s.gamma) < 1e-12
            assert report.residual < 1e-12

    def test_pure_product_state_gamma_is_singlet_overlap(self):
        rng = np.random.default_rng(5)
        psi_m = bell_vectors(3)[3]
        for _ in range(5):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a /= np.linalg.norm(a)
            b2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b2 /= np.linalg.norm(b2)
            b = np.r_[b2, 0.0]
            v = np.kron(a, b)
            rho = validate_density(np.outer(v, v.conj()), 2, 3)
            report = twirl(rho)
            assert abs(report.gamma - np.abs(psi_m.conj() @ v) ** 2) < 1e-12

    def test_random_states_land_in_family(self):
        rng = np.random.default_rng(6)
        for d in (3, 4, 5):
            for _ in range(5):
                rho = random_density_matrix(2, d, rng)
                report = twirl(rho)
                assert report.residual < 1e-10
                member = classify_family(report.output)
                assert abs(member.gamma - singlet_weight(rho)) < 1e-10

    def test_entanglement_never_increases(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho = random_density_matrix(2, 3, rng)
            report = twirl(rho)
            assert (negativity_trace_norm(report.output)
                    <= negativity_trace_norm(rho) + 1e-9)

    def test_idempotence(self):
        rng = np.random.default_rng(8)
        rho = random_density_matrix(2, 4, rng)
        once = twirl(rho).output
        again = twirl(once).output
        assert np.max(np.abs(again.matrix - once.matrix)) < 1e-10

    def test_intermediate_weights_are_a_distribution(self):
        rng = np.random.default_rng(9)
        rho = random_density_matrix(2, 4, rng)
        w = twirl(rho).intermediate_weights
        total = 2.0 * sum(w.level_weights) + 2.0 * w.phi_pair + w.psi_plus + w.psi_minus
        assert abs(total - 1.0) < 1e-10
        assert min(w.level_weights) > -1e-12
        assert min(w.phi_pair, w.psi_plus, w.psi_minus) > -1e-12

    def test_stage_snapshots_available_on_request(self):
        rng = np.random.default_rng(10)
        rho = random_density_matrix(2, 3, rng)
        names = [name for name, _ in locc_stages(rho)]
        assert names[:2] == ["phase(pi)", "level_sign(2)"]
        assert names.count("hadamard") >= 2

    def test_rejects_wrong_shape(self):
        rng = np.random.default_rng(11)
        rho = random_density_matrix(2, 2, rng)
        with pytest.raises(ValueError):
            twirl(rho)


class TestLoccReference:
    """The projection in ``twirl`` against the paper's stage sequence."""

    @pytest.mark.parametrize("d", [3, 4, 5, 8])
    def test_stage_sequence_ends_at_projection(self, d):
        rng = np.random.default_rng(1500 + d)
        for _ in range(5):
            rho = random_density_matrix(2, d, rng)
            last = locc_stages(rho)[-1][1]
            assert np.max(np.abs(last.matrix - twirl(rho).output.matrix)) < 1e-10

    @pytest.mark.parametrize("d", [3, 4, 5, 8])
    def test_intermediate_weights_match_post_swap_snapshot(self, d):
        rng = np.random.default_rng(1600 + d)
        for _ in range(5):
            rho = random_density_matrix(2, d, rng)
            post_swap = next(state for name, state in locc_stages(rho) if name == "swap01")
            want = _halfway_weights(post_swap)
            got = twirl(rho).intermediate_weights
            assert np.max(np.abs(np.subtract(got.level_weights, want.level_weights))) < 1e-12
            assert abs(got.phi_pair - want.phi_pair) < 1e-12
            assert abs(got.psi_plus - want.psi_plus) < 1e-12
            assert abs(got.psi_minus - want.psi_minus) < 1e-12


class TestFamilyInvariance:

    def test_family_members_are_invariant(self):
        rng = np.random.default_rng(12)
        for d in (3, 4, 5):
            s = random_family_state(d, rng)
            assert check_family_invariance(s, trials=20, seed=int(d)) < 1e-10

    def test_maximally_mixed_is_invariant(self):
        assert check_family_invariance(TwoParamState(3, 1 / 6, 1 / 6),
                                       trials=10, seed=0) < 1e-12

    def test_generic_states_move(self):
        rng = np.random.default_rng(13)
        rho = random_density_matrix(2, 3, rng)
        u = random_local_unitary(3, rng).full()
        moved = u @ rho.matrix @ u.conj().T
        assert np.linalg.norm(rho.matrix - moved) > 1e-4

    def test_random_pair_structure(self):
        rng = np.random.default_rng(14)
        u = random_local_unitary(5, rng)
        assert np.allclose(u.matrix_a, u.matrix_b[:2, :2], atol=1e-14)
        assert np.max(np.abs(u.matrix_b[:2, 2:])) == 0.0
        assert np.max(np.abs(u.matrix_b[2:, :2])) == 0.0
