"""Twirling pipeline: the stage table, exactness, invariance, monotonicity."""

import numpy as np
import pytest

from qucorr.closed_form import TwoParamState
from qucorr.family import (
    _family_weights,
    _halfway_weights,
    build_state,
    classify_family,
    random_family_state,
    singlet_weight,
    twirl,
)
from qucorr.operators import (
    DimensionMismatchError,
    NonUnitTraceError,
    negativity_trace_norm,
    random_density_matrix,
    validate_density,
)
from qucorr.locc import _apply, _random_pair, _stage_table, check_family_invariance, locc_stages
from states import bell_vectors

STAGES_D4 = [name for name, _ in _stage_table(4)]
STAGE_IDS = [name.replace("(", "_").replace(")", "").replace("/", "_") for name in STAGES_D4]


def stage(rho, name):
    """Apply the named row of the one-pass stage table to rho."""
    return _apply(rho, dict(_stage_table(rho.dim_b))[name])


def stage_unitary(d, name):
    """The qudit factor b of a table row's non-identity pair b[:2, :2] (x) b."""
    return dict(_stage_table(d))[name][-1][1]


def is_identified_pair(b):
    """Whether b and its {0, 1} block, the qubit factor, are both unitary to 1e-12."""
    return all(np.max(np.abs(m @ m.conj().T - np.eye(len(m)))) <= 1e-12 for m in (b, b[:2, :2]))


def basis_projector(d, i, j):
    m = np.zeros((2 * d, 2 * d), dtype=complex)
    m[i * d + j, i * d + j] = 1.0
    return m


class TestStageUnitaries:

    def test_phase_ladder_at_pi(self):
        b = stage_unitary(3, "phase(pi)")
        assert np.allclose(b, np.diag([1.0, -1.0, 1.0]), atol=1e-14)
        assert np.allclose(b[:2, :2], np.diag([1.0, -1.0]), atol=1e-14)

    def test_phase_ladder_at_half_pi(self):
        b = stage_unitary(3, "phase(pi/2)")
        assert np.allclose(b, np.diag([1.0, 1.0j, -1.0]), atol=1e-14)

    def test_non_unitary_factor_rejected(self):
        assert not is_identified_pair(np.eye(3) * 2.0)

    @pytest.mark.parametrize("matrix_b", [
        np.full((3, 3), np.nan), np.diag([1.0, 1.0, np.nan])], ids=["qubit_block", "outer_level"])
    def test_nan_factor_rejected(self, matrix_b):
        assert not is_identified_pair(matrix_b)

    def test_pair_must_keep_qubit_levels_apart(self):
        # The cycle 0 -> 1 -> 2 -> 0 is unitary, but its {0, 1} block is not.
        assert not is_identified_pair(np.roll(np.eye(3), 1, axis=0))

    @pytest.mark.parametrize("d", [3, 4, 5, 8, 16])
    def test_every_table_unitary_is_an_identified_pair(self, d):
        # The one unitarity check of the table's b_k; _apply trusts them.
        for name, mixture in _stage_table(d):
            assert all(is_identified_pair(b) for _, b in mixture), name
            assert abs(sum(p for p, _ in mixture) - 1.0) <= 1e-15

    def test_cycle_shifts_outer_levels(self):
        b = stage_unitary(4, "cycle_avg")
        e2, e3 = np.zeros(4), np.zeros(4)
        e2[2], e3[3] = 1.0, 1.0
        assert np.allclose(b @ e2, e3, atol=1e-14)
        assert np.allclose(b @ e3, e2, atol=1e-14)


class TestPhaseMix:

    def test_family_member_is_fixed(self):
        rho = build_state(TwoParamState(3, 0.1, 0.3))
        out = stage(rho, "phase(pi)")
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12

    def test_maximally_mixed_is_fixed(self):
        rho = validate_density(np.eye(6) / 6.0, 2, 3)
        out = stage(rho, "phase(pi/2)")
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_odd_parity_coherences_cancel(self):
        # |+>|0> has a coherence between |0 0> and |1 0> whose ladder phases differ by pi
        v = np.zeros(6, dtype=complex)
        v[0] = v[3] = 1.0 / np.sqrt(2.0)
        rho = validate_density(np.outer(v, v.conj()), 2, 3)
        out = stage(rho, "phase(pi)")
        assert abs(out.matrix[0, 3]) < 1e-15
        assert abs(rho.matrix[0, 3] - 0.5) < 1e-15


class TestLevelSignMix:

    def test_kills_coherence_with_flipped_level(self):
        v = np.zeros(6, dtype=complex)
        v[0] = v[2] = 1.0 / np.sqrt(2.0)   # |0 0> + |0 2>
        rho = validate_density(np.outer(v, v.conj()), 2, 3)
        out = stage(rho, "level_sign(2)")
        assert abs(out.matrix[0, 2]) < 1e-15

    def test_diagonal_state_unchanged(self):
        rho = validate_density(np.diag([0.3, 0.2, 0.1, 0.1, 0.2, 0.1]), 2, 3)
        out = stage(rho, "level_sign(2)")
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_projects_after_one_application(self):
        rng = np.random.default_rng(0)
        rho = random_density_matrix(2, 4, rng)
        once = stage(rho, "level_sign(3)")
        twice = stage(once, "level_sign(3)")
        assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-14


class TestSwapMix:

    def test_swap_symmetric_state_unchanged(self):
        phi_p = bell_vectors(3)[0]
        rho = validate_density(np.outer(phi_p, phi_p.conj()), 2, 3)
        out = stage(rho, "swap01")
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_basis_state_splits_evenly(self):
        rho = validate_density(basis_projector(3, 0, 0), 2, 3)
        out = stage(rho, "swap01")
        expected = 0.5 * basis_projector(3, 0, 0) + 0.5 * basis_projector(3, 1, 1)
        assert np.max(np.abs(out.matrix - expected)) < 1e-14

    def test_family_member_is_fixed(self):
        rho = build_state(TwoParamState(4, 0.1, 0.25))
        out = stage(rho, "swap01")
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12


class TestCycleAverage:

    def test_identity_for_qutrit(self):
        rng = np.random.default_rng(1)
        rho = random_density_matrix(2, 3, rng)
        out = stage(rho, "cycle_avg")
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_equalizes_outer_weights(self):
        m = (0.3 * basis_projector(4, 0, 2) + 0.1 * basis_projector(4, 0, 3)
             + 0.6 * basis_projector(4, 0, 0))
        rho = validate_density(m, 2, 4)
        out = stage(rho, "cycle_avg")
        assert np.isclose(out.matrix[2, 2].real, 0.2, atol=1e-14)
        assert np.isclose(out.matrix[3, 3].real, 0.2, atol=1e-14)
        assert np.isclose(out.matrix[0, 0].real, 0.6, atol=1e-14)


class TestHadamardMix:

    def test_singlet_is_fixed(self):
        rho = build_state(TwoParamState(3, 0.0, 1.0))
        out = stage(rho, "hadamard")
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_maximally_mixed_is_fixed(self):
        rho = validate_density(np.eye(8) / 8.0, 2, 4)
        out = stage(rho, "hadamard")
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_phi_plus_is_fixed(self):
        phi_p = bell_vectors(3)[0]
        rho = validate_density(np.outer(phi_p, phi_p.conj()), 2, 3)
        out = stage(rho, "hadamard")
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_phi_minus_mixes_with_psi_plus(self):
        _, phi_m, psi_p, _ = bell_vectors(3)
        rho = validate_density(np.outer(phi_m, phi_m.conj()), 2, 3)
        out = stage(rho, "hadamard")
        expected = (2.0 / 3.0) * np.outer(psi_p, psi_p.conj()) \
            + (1.0 / 3.0) * np.outer(phi_m, phi_m.conj())
        assert np.max(np.abs(out.matrix - expected)) < 1e-14


class TestStageProperties:

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_every_stage_fixes_the_family(self, d):
        # Every pair of the table maps the family to itself, so every row fixes
        # each member: a named one, a seeded one, the singlet and I/2d.
        named = {3: (0.1, 0.3), 4: (0.1, 0.25), 5: (0.05, 0.3)}[d]
        states = [build_state(TwoParamState(d, *named)),
                  build_state(random_family_state(d, np.random.default_rng(1700 + d))),
                  build_state(TwoParamState(d, 0.0, 1.0)),
                  validate_density(np.eye(2 * d) / (2 * d), 2, d)]
        for name, mixture in _stage_table(d):
            for rho in states:
                assert np.max(np.abs(_apply(rho, mixture).matrix - rho.matrix)) < 1e-14, name

    @pytest.mark.parametrize("name", STAGES_D4, ids=STAGE_IDS)
    def test_every_mix_preserves_density_invariants(self, name):
        rng = np.random.default_rng(2)
        rho = random_density_matrix(2, 4, rng)
        out = stage(rho, name)
        m = out.matrix
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert abs(np.trace(m).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(m)[0] > -1e-12

    @pytest.mark.parametrize("name", STAGES_D4, ids=STAGE_IDS)
    def test_every_mix_preserves_singlet_weight(self, name):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(2, 4, rng)
        before = singlet_weight(rho)
        assert abs(singlet_weight(stage(rho, name)) - before) < 1e-12


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

    def test_stages_reject_a_qubit_pair(self):
        # A valid 2 x 2 state: the stage table needs the levels outside the qubit block.
        with pytest.raises(ValueError, match="d >= 3"):
            locc_stages(validate_density(np.eye(4) / 4.0, 2, 2))

    @pytest.mark.parametrize("dims", [(1, 6), (3, 4)])
    @pytest.mark.parametrize("run", [twirl, locc_stages])
    def test_rejects_a_first_factor_other_than_a_qubit(self, run, dims):
        # No such state can be built, so neither function can be handed one.
        n = dims[0] * dims[1]
        with pytest.raises(DimensionMismatchError, match="2 x d"):
            run(validate_density(np.eye(n) / n, *dims))


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
            want = _halfway_weights(_family_weights(post_swap))
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
        moved = _apply(rho, [(1.0, _random_pair(3, rng))])
        assert np.linalg.norm(rho.matrix - moved.matrix) > 1e-4

    def test_a_non_unitary_draw_fails_closed(self, monkeypatch):
        # Each rotated member is validated: 2I (x) 2I scales the trace by 16.
        monkeypatch.setattr("qucorr.locc._random_pair", lambda d, rng: 2.0 * np.eye(d))
        with pytest.raises(NonUnitTraceError):
            check_family_invariance(TwoParamState(3, 0.1, 0.3), trials=3, seed=0)

    def test_random_pair_structure(self):
        rng = np.random.default_rng(14)
        b = _random_pair(5, rng)
        assert is_identified_pair(b)
        assert np.max(np.abs(b[:2, 2:])) == 0.0
        assert np.max(np.abs(b[2:, :2])) == 0.0


class TestInvarianceTrials:

    @pytest.mark.parametrize("trials", [0, -5])
    def test_fewer_than_one_trial_rejected(self, trials):
        with pytest.raises(ValueError, match="trials"):
            check_family_invariance(TwoParamState(3, 0.1, 0.3), trials=trials, seed=0)
