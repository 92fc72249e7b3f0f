"""Every state builder of the test modules and ``tools/optimizer_suite.py``, the
paper's fixed objects (the Pauli matrices, the Bell vectors, the Bloch direction
at given angles), and the dense oracle of the classical correlation that the
optimizer is checked against.

The suite loads this file by path against whichever tree's ``qucorr`` it
runs, so it imports only numpy and names in ``qucorr.__all__``.
"""

import numpy as np

from qucorr import projectors, random_density_matrix, validate_density

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def bell_vectors(d):
    """The four Bell vectors (phi+, phi-, psi+, psi-) embedded in C^2 (x) C^d."""
    def ket(i, j):
        v = np.zeros(2 * d, dtype=complex)
        v[i * d + j] = 1.0
        return v

    s = np.sqrt(2.0)
    return ((ket(0, 0) + ket(1, 1)) / s, (ket(0, 0) - ket(1, 1)) / s,
            (ket(0, 1) + ket(1, 0)) / s, (ket(0, 1) - ket(1, 0)) / s)


def sphere_point(polar, azimuth):
    """The unit Bloch vector at the given polar and azimuth angles (broadcast,
    components last)."""
    return np.stack([np.sin(polar) * np.cos(azimuth),
                     np.sin(polar) * np.sin(azimuth),
                     np.cos(polar)], axis=-1)


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


def isotropic_state(rng, d):
    """A 2 x d state whose correlation matrix G_kl = Re tr(T_k T_l) is isotropic,
    so that G's eigen-axes are arbitrary: rho = (I_2 (x) rho_B + eps S)/2 with
    S = sum_k sigma_k (x) E_k.

    The E_k are three Hilbert-Schmidt-orthonormal, traceless Hermitian d x d
    matrices, from Gram-Schmidt on random Hermitian ones, so T_k = eps E_k and
    G = eps^2 I.  rho_B is I/d or (I/d + a random state)/2, and eps a uniform
    0.2-0.95 fraction of lambda_min(rho_B) / |lambda_min(S)|, the largest eps
    that keeps every such rho positive.
    """
    e = []
    for _ in range(3):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = g + g.conj().T
        h -= np.trace(h).real / d * np.eye(d)
        for f in e:
            h -= np.trace(f @ h).real * f
        e.append(h / np.sqrt(np.trace(h @ h).real))
    s = sum(np.kron(p, f) for p, f in zip(PAULI, e))
    rho_b = np.eye(d) / d
    if rng.uniform() < 0.5:
        rho_b = 0.5 * (rho_b + random_state(d, rng))
    eps = rng.uniform(0.2, 0.95) * np.linalg.eigvalsh(rho_b)[0] / -np.linalg.eigvalsh(s)[0]
    return validate_density(0.5 * (np.kron(np.eye(2), rho_b) + eps * s), 2, d)


def product_state(rng, d=3):
    rho_a = random_state(2, rng)
    rho_b = random_state(d, rng)
    return validate_density(np.kron(rho_a, rho_b), 2, d), rho_a, rho_b


def admixture(rho, eps, rng):
    """``rho`` mixed with weight ``eps`` of a ``random_density_matrix`` drawn from ``rng``."""
    m = (1.0 - eps) * rho.matrix + eps * random_density_matrix(2, rho.dim_b, rng).matrix
    return validate_density(m, 2, rho.dim_b)


def rank_state(rng, d, rank):
    """A random 2 x d state of the given rank: G G^dag / tr(G G^dag) with a complex
    Gaussian G of ``rank`` columns."""
    g = rng.standard_normal((2 * d, rank)) + 1j * rng.standard_normal((2 * d, rank))
    m = g @ g.conj().T
    return validate_density(m / np.trace(m).real, 2, d)


def dense_ensemble(rho, axis):
    """Reference steering straight from the definition: the qudit reductions of
    (A_i (x) I) rho (A_i (x) I), each with its probability."""
    d = rho.dim_b
    out = []
    for a in projectors(axis):
        k = np.kron(a, np.eye(d))
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
