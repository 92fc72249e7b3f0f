"""State builders shared by the test modules and ``tools/optimizer_suite.py``,
and the test builders of the paper's fixed objects: the Bell vectors and the
measurement axis along a Bloch direction.

The suite loads this file by path against whichever tree's ``qucorr`` it
runs, so it imports only numpy and names in ``qucorr.__all__``.
"""

import numpy as np

from qucorr import MeasurementAxis, tensor, validate_density


def bell_vectors(d):
    """The four Bell vectors (phi+, phi-, psi+, psi-) embedded in C^2 (x) C^d."""
    def ket(i, j):
        v = np.zeros(2 * d, dtype=complex)
        v[i * d + j] = 1.0
        return v

    s = np.sqrt(2.0)
    return ((ket(0, 0) + ket(1, 1)) / s, (ket(0, 0) - ket(1, 1)) / s,
            (ket(0, 1) + ket(1, 0)) / s, (ket(0, 1) - ket(1, 0)) / s)


def axis_from_direction(polar, azimuth):
    """Axis whose first projector points along the Bloch direction (polar, azimuth)."""
    half = 0.5 * polar
    return MeasurementAxis(
        t=float(np.cos(half)),
        y1=float(np.sin(half) * np.sin(azimuth)),
        y2=float(-np.sin(half) * np.cos(azimuth)),
        y3=0.0,
    )


def bit_entropy(lam):
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log2(lam)))


def x_state_candidates(a, w, z):
    """Measured mutual information of the two-qubit X state with diagonal ``a``
    and coherences <00|rho|11> = w, <01|rho|10> = z, measured along z and along
    the best equatorial direction (where the coherences' phases align)."""
    entropy_b = bit_entropy(np.array([a[0] + a[2], a[1] + a[3]]))
    along_z = entropy_b - sum(pair.sum() * bit_entropy(pair / pair.sum())
                              for pair in (a[:2], a[2:]))
    coherence = abs(w) + abs(z)
    steered = np.array([[a[0] + a[2], coherence], [coherence, a[1] + a[3]]])
    return along_z, entropy_b - bit_entropy(np.linalg.eigvalsh(steered))


def embedded_x_state(a, w, z, d):
    """The two-qubit X state placed on qudit levels {0, 1} of a 2 x d system."""
    x = np.diag(a).astype(complex)
    x[0, 3], x[3, 0], x[1, 2], x[2, 1] = w, np.conj(w), z, np.conj(z)
    m = np.zeros((2 * d, 2 * d), dtype=complex)
    levels = [0, 1, d, d + 1]
    m[np.ix_(levels, levels)] = x
    return validate_density(m, 2, d)


def crossover_x_state(rng, d, gap):
    """An embedded X state whose optima along z and on the equator differ by
    ``gap``.  Its coherences are scaled by s: at s = 0 measuring along z is
    optimal, at s = 1 (chosen so) the equator wins; s is bisected to the
    requested lead of z over the equator."""
    while True:
        a = rng.dirichlet(np.ones(4))
        w = np.sqrt(a[0] * a[3]) * np.exp(2j * np.pi * rng.uniform())
        z = np.sqrt(a[1] * a[2]) * np.exp(2j * np.pi * rng.uniform())
        along_z, equator = x_state_candidates(a, w, z)
        if along_z - equator < -1e-3:
            break
    lo, hi = 0.0, 1.0
    for _ in range(60):
        s = 0.5 * (lo + hi)
        along_z, equator = x_state_candidates(a, s * w, s * z)
        lo, hi = (s, hi) if along_z - equator > gap else (lo, s)
    return embedded_x_state(a, lo * w, lo * z, d)


def random_state(n, rng):
    """An n x n state drawn as ``random_density_matrix`` draws its matrix: the same
    ``rng`` calls, G G^dag, and an in-place divide by the real trace."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return m


def product_state(rng, d=3):
    rho_a = random_state(2, rng)
    rho_b = random_state(d, rng)
    return validate_density(tensor(rho_a, rho_b), 2, d), rho_a, rho_b
