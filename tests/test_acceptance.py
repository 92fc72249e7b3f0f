"""Acceptance suite: one test per release criterion, each printing a verdict line.

Every tolerance is pinned here; run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the verdict lines on passing runs).
"""

import time

import numpy as np

from qucorr.closed_form import (
    TwoParamState,
    classical_correlation,
    conditional_entropy_closed,
    discord,
    mutual_information,
    negativity,
)
from qucorr.family import (
    build_state,
    random_family_state,
)
from qucorr.measurement import (
    classical_correlation_numeric,
    conditional_entropy,
    discord_numeric,
    ensemble_spectrum_spread,
    random_axis,
)
from qucorr.operators import (
    negativity_trace_norm,
    partial_trace_a,
    partial_trace_b,
    partial_transpose_a,
    quantum_mutual_information,
    random_density_matrix,
    random_unitary,
    von_neumann_entropy,
)
from qucorr.family import singlet_weight, twirl
from qucorr.locc import check_family_invariance

DIMS = (3, 4, 5)


def report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {message}")


def test_criterion_01_maximally_entangled_point():
    start = time.perf_counter()
    s = TwoParamState(3, 0.0, 1.0)
    closed = (mutual_information(s), classical_correlation(s),
              discord(s), negativity(s))
    for got, want in zip(closed, (2.0, 1.0, 1.0, 1.0)):
        assert abs(got - want) < 1e-12

    rho = build_state(s)
    c_num, _ = classical_correlation_numeric(rho)
    numeric = (quantum_mutual_information(rho), c_num,
               quantum_mutual_information(rho) - c_num, negativity_trace_norm(rho))
    for got, want in zip(numeric, (2.0, 1.0, 1.0, 1.0)):
        assert abs(got - want) < 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"singlet point: closed to 1e-12, numeric to 1e-7 in {elapsed:.2f}s")


def test_criterion_02_uniform_triplet_point():
    s = TwoParamState(3, 0.0, 0.0)
    c_want = 5.0 / 3.0 - np.log2(3.0)
    assert abs(classical_correlation(s) - c_want) < 1e-12
    assert abs(discord(s) - 1.0 / 3.0) < 1e-12

    rho = build_state(s)
    c_num, _ = classical_correlation_numeric(rho)
    assert abs(c_num - c_want) < 1e-7
    assert abs(discord_numeric(rho) - 1.0 / 3.0) < 1e-7
    report(2, "uniform-triplet point: C = 5/3 - log2(3), Q = 1/3")


def test_criterion_03_gamma_zero_line_ordering():
    alphas = np.linspace(0.0, 0.5, 100)
    for alpha in alphas:
        s = TwoParamState(3, float(alpha), 0.0)
        assert abs(discord(s) - (1.0 - 2.0 * alpha) / 3.0) < 1e-12
        if 0.0 < alpha < 0.5:
            assert discord(s) > classical_correlation(s)
    report(3, "gamma = 0 line: Q = (1 - 2a)/3 and Q > C on the open interval")


def test_criterion_04_beta_zero_line_equalities():
    for alpha in np.linspace(0.0, 0.5, 10):
        gamma = 1.0 - 2.0 * float(alpha)
        s = TwoParamState(3, float(alpha), gamma)
        want = 1.0 - 2.0 * alpha
        assert abs(negativity(s) - want) < 1e-12
        assert abs(classical_correlation(s) - want) < 1e-12
        assert abs(discord(s) - want) < 1e-12
        rho = build_state(s)
        c_num, _ = classical_correlation_numeric(rho)
        assert abs(c_num - want) < 1e-7
        assert abs(negativity_trace_norm(rho) - want) < 1e-9
    report(4, "beta = 0 line: N = C = Q = 1 - 2a along 10 points")


def test_criterion_05_fixed_beta_crossovers_and_null_point():
    beta = 0.05
    gammas = np.linspace(0.0, 0.85, 171)
    rows = []
    for gamma in gammas:
        alpha = (1.0 - 3.0 * beta - gamma) / 2.0
        s = TwoParamState(3, float(alpha), float(gamma))
        rows.append((gamma, classical_correlation(s), discord(s),
                     mutual_information(s), negativity(s)))
    rows = np.array(rows)
    n_minus_q = rows[:, 4] - rows[:, 2]
    n_minus_c = rows[:, 4] - rows[:, 1]
    assert n_minus_q.min() < 0.0 < n_minus_q.max()
    assert n_minus_c.min() < 0.0 < n_minus_c.max()
    nearest = rows[np.argmin(np.abs(rows[:, 0] - beta))]
    assert np.max(np.abs(nearest[1:])) < 1e-9
    report(5, "beta = 0.05 sweep: N crosses both Q and C; all measures vanish at gamma = beta")


def test_criterion_06_closed_form_vs_optimizer():
    start = time.perf_counter()
    rng = np.random.default_rng(600)
    worst = 0.0
    for d in DIMS:
        for _ in range(100):
            s = random_family_state(d, rng)
            assert abs(mutual_information(s) - classical_correlation(s)
                       - discord(s)) < 1e-12
            c_num, _ = classical_correlation_numeric(build_state(s))
            worst = max(worst, abs(c_num - classical_correlation(s)))
            assert worst < 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, f"300 random members: optimizer vs closed form within {worst:.1e} "
              f"in {elapsed:.1f}s")


def test_criterion_07_measurement_independence():
    rng = np.random.default_rng(700)
    for d in DIMS:
        for k in range(20):
            s = random_family_state(d, rng)
            assert ensemble_spectrum_spread(s, samples=50, seed=1000 * d + k) < 1e-10
            got = conditional_entropy(build_state(s), random_axis(rng))
            assert abs(got - conditional_entropy_closed(s)) < 1e-10
    report(7, "steered spectra ignore the axis (spread < 1e-10, 60 states x 50 axes)")


def test_criterion_08_twirl_pipeline():
    start = time.perf_counter()
    rng = np.random.default_rng(800)
    for d in DIMS:
        for _ in range(50):
            rho = random_density_matrix(2, d, rng)
            rep = twirl(rho)
            assert rep.residual < 1e-10
            assert abs(rep.gamma - singlet_weight(rho)) < 1e-10
            assert (negativity_trace_norm(rep.output)
                    <= negativity_trace_norm(rho) + 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(8, f"150 random states twirl into the family exactly in {elapsed:.1f}s")


def test_criterion_09_family_invariance():
    rng = np.random.default_rng(900)
    for d in DIMS:
        for k in range(3):
            s = random_family_state(d, rng)
            assert check_family_invariance(s, trials=20, seed=100 * d + k) < 1e-10
    report(9, "family members invariant under random identified local pairs")


def test_criterion_10_operator_property_suite():
    rng = np.random.default_rng(1000)
    for k in range(200):
        d = DIMS[k % len(DIMS)]
        rho = random_density_matrix(2, d, rng)
        # partial traces preserve trace and positivity
        for marg in (partial_trace_a(rho), partial_trace_b(rho)):
            assert abs(np.trace(marg).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(marg)[0] > -1e-12
        # entropy is unitarily invariant
        u = random_unitary(2 * d, rng)
        rotated = u @ rho.matrix @ u.conj().T
        assert abs(von_neumann_entropy(rotated)
                   - von_neumann_entropy(rho.matrix)) < 1e-9
        # partial transpose is a trace- and Hermiticity-preserving involution
        pt = partial_transpose_a(rho)
        assert abs(np.trace(pt).real - 1.0) < 1e-12
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12
        back = pt.reshape(2, d, 2, d).transpose(2, 1, 0, 3).reshape(2 * d, 2 * d)
        assert np.array_equal(back, np.asarray(rho.matrix))
    report(10, "operator invariants hold on 200 seeded random states")
