"""Projective qubit measurements, steered ensembles and numeric correlation.

A von Neumann measurement of the qubit is a projector pair A_i = V|i><i|V^dag
with V = t*I + i*(y . sigma) in SU(2); A_0 = (I + n . sigma)/2 points along

    n = (2(y1 y3 - t y2), 2(y2 y3 + t y1), t^2 - y1^2 - y2^2 + y3^2)

and A_1 along -n.  The pair depends on V only through n, so a measurement is
its Bloch direction here: any finite, non-zero 3-vector, normalized where it is
passed in.  The qudit is left in the unnormalized blocks

    M+-(n) = (rho_B +- n . T) / 2,    T_k = tr_A[(sigma_k (x) I) rho],

with probabilities tr M+-.  They are linear in n, and one private kernel,
``_steer``, forms them from (rho_B, T) for every ensemble, entropy and
spectrum below; each of those takes only the spectrum it needs.  The classical
correlation is the supremum over n of S(rho_B) - sum p S(M/p).  Past its first
k qudit levels a state often has no entry off the qudit's diagonal in any of
its four d x d blocks: k = 2 for every family member and embedded X state, at
any d.  There rho_B and every M+-(n) are diagonal, so the optimizer finds k
once per call, diagonalizes only the leading k x k blocks and reads the other
d - k eigenvalues off the diagonal.  A generic state has k = d.

The optimizer is a multi-start search.  Directions n and -n give the same
measurement, so its first batch is a Fibonacci grid on the upper hemisphere
(plus any seeded probes), evaluated in two kernel calls.  The first is a look
at the grid's first eighth, stored first: every eighth point of the spiral,
one turn from the pole to near the equator.  If the look is flat, the
objective does not depend on the axis (as for every family member), and the
search stops at the first grid direction before any probe is drawn.  Otherwise
the second call evaluates the rest of the grid and the probes, and every grid
point that is no worse than its nearest neighbours on the whole sphere starts
a trust-region walk, best first, and all walks advance together, one kernel
batch per iteration.  Each walk evaluates its trial point and a six-point
stencil around it, along the point's unit polar and azimuth vectors, and fits
a quadratic model there.  Between kernel calls a walk is a few plain floats,
updated in scalar arithmetic: on a handful of walks, numpy's cost per call
outweighed the work of each step.  A better trial becomes the walk's point;
the next is a damped Newton step on the model in the same frame, inside the
walk's radius (half the grid's spacing at first, then shrunk or grown with the
ratio of actual to predicted decrease).  A walk ends when its model predicts a
decrease of at most FLAT_TOL bits.  The maximum is a certified lower bound for general
states and exact for the family.
``optimize_measurement`` reports what the search did.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .closed_form import TwoParamState
from .family import build_state
from .operators import (
    DensityMatrix,
    _rescaled_entropy,
    _spectral_entropy,
    _state_entropy,
    partial_trace_a,
    quantum_mutual_information,
)

# Outcomes with probability at or below this contribute zero entropy.
DEGENERATE_TOL = 1e-12
# Directions in the optimizer's first batch, a Fibonacci grid on the upper
# hemisphere.  The first eighth of them, every eighth point of the spiral, is
# the look that can stop the search.
GRID_POINTS = 128
# Evaluations that spread by at most FLAT_TOL bits are flat.  A flat look is
# an axis-independent objective and stops the search; a walk whose
# model predicts a decrease of at most FLAT_TOL ends.
FLAT_TOL = 1e-13
# Grid points no worse than their NEIGHBOURS nearest directions on the sphere
# start a walk, best first, at most MAX_STARTS of them.
NEIGHBOURS = 6
MAX_STARTS = 8
# Each walk starts with trust radius REFINE_STEP on the tangent plane, half the
# grid's spacing (GRID_POINTS directions share the hemisphere's area 2 pi);
# REFINE_MAXITER caps the batches of the whole search.
REFINE_STEP = 0.5 * math.sqrt(2.0 * math.pi / GRID_POINTS)
REFINE_MAXITER = 500
# The stencil spacing is STENCIL_STEP * spread**-0.25 for a first batch that
# spreads by `spread` bits: the model's rounding error grows as 1/spacing**2
# against a curvature that scales with the spread, its truncation error as
# spacing**2.  On 564 mixed test states, 3e-5 and 1e-4 stay within 1e-13 bits
# of a slower reference search; 3e-4 falls 3.6e-13 short and 1e-3 1.4e-12.
STENCIL_STEP = 1e-4


@dataclass(frozen=True)
class ConditionalEnsemble:
    """Steered qudit ensemble {(p0, rho0), (p1, rho1)} after a qubit measurement.

    For an outcome with p <= DEGENERATE_TOL the corresponding state slot holds
    the (numerically zero) unnormalized block and must be skipped by entropy
    sums.
    """

    p0: float
    p1: float
    rho0: np.ndarray
    rho1: np.ndarray


@dataclass(frozen=True)
class OptimizerConfig:
    """Extra directions for the classical-correlation maximization.

    The optimizer always scans ``GRID_POINTS`` hemisphere directions before
    its trust-region refinement.  ``random_probes >= 0`` extra directions (seeded)
    can be mixed into that scan; the best first-batch direction always starts a
    walk.  Probes join the second kernel call of the first batch, and a flat
    look stops the search before any probe is drawn.  On 564 mixed test
    states 256 probes moved no value by more than 9.4e-14 bits.  Only the
    ``discord`` subcommand's fixed config and the benchmark's ``cli-cold``
    oracle, which mirrors it, build one.
    """

    random_probes: int = 0
    seed: int = 0

    def __post_init__(self):
        if not self.random_probes >= 0:
            raise ValueError(f"random_probes must be at least 0, got {self.random_probes!r}")


@dataclass(frozen=True)
class OptimizerResult:
    """What ``optimize_measurement`` found, and what the search cost.

    ``value`` is the best measured mutual information in bits, reached along
    the unit Bloch direction ``axis``, a tuple (n_x, n_y, n_z) folded so that
    (n_z, n_y, n_x) >= (0, 0, 0), since -n is the same measurement.
    ``grid_value`` is the first batch's best, so ``refine_gain = value -
    grid_value >= 0``.  On a flat look (the grid's first eighth, every
    eighth point of the spiral) the search stops with ``starts = 0``,
    ``batches = 1`` and ``evaluations = GRID_POINTS // 8``, and returns the
    first grid direction and its own value.  Otherwise the first batch takes
    two kernel calls.  ``batches`` counts kernel calls and ``evaluations`` the
    directions passed to them; ``converged`` is False only if
    ``REFINE_MAXITER`` cut the search.  ``grid_s`` and ``refine_s`` are the
    wall times of the two phases.
    """

    value: float
    axis: tuple[float, float, float]
    grid_value: float
    refine_gain: float
    starts: int
    batches: int
    evaluations: int
    converged: bool
    grid_s: float
    refine_s: float


def random_axis(rng: np.random.Generator) -> tuple[float, float, float]:
    """Uniform random Bloch direction: n(t, y) of the module docstring, for a
    normalized 4-vector (t, y1, y2, y3) of standard normals."""
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    t, y1, y2, y3 = x.tolist()
    return (2.0 * (y1 * y3 - t * y2), 2.0 * (y2 * y3 + t * y1),
            t * t + y3 * y3 - (y1 * y1 + y2 * y2))


def _unit_direction(direction) -> np.ndarray:
    """The unit vector along ``direction``, as a (1, 3) batch; any finite,
    non-zero 3-vector is accepted."""
    try:
        n = np.asarray(direction)
        if n.dtype.kind == "c":  # a cast would drop the imaginary part
            raise TypeError
        n = np.asarray(n, dtype=float)
        norm = math.hypot(*n.tolist()) if n.shape == (3,) else math.nan
    except (TypeError, ValueError):  # complex, text or ragged entries
        norm = math.nan
    if not 0.0 < norm < math.inf:
        raise ValueError(f"direction must be a finite, non-zero 3-vector, got {direction!r}")
    return n[None] / norm


def projectors(direction) -> tuple[np.ndarray, np.ndarray]:
    """The projector pair (I + n . sigma)/2, (I - n . sigma)/2 along the unit
    vector n of ``direction``; orthogonal and complete."""
    nx, ny, nz = _unit_direction(direction)[0]
    n_sigma = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])
    return 0.5 * (np.eye(2) + n_sigma), 0.5 * (np.eye(2) - n_sigma)


def _bloch_blocks(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """rho_B = a + e and T = (T_x, T_y, T_z) = (c + b, i(b - c), a - e), shape (3, d, d),
    from the d x d qubit blocks a = rho_00, b = rho_01, c = rho_10 and e = rho_11."""
    d, m = rho.dim_b, rho.matrix
    a, b, c, e = m[:d, :d], m[:d, d:], m[d:, :d], m[d:, d:]
    return a + e, np.array([c + b, 1j * (b - c), a - e])


def _fold(n: tuple) -> tuple:
    """``n``, or -n (the same measurement) if (n_z, n_y, n_x) < (0, 0, 0)."""
    return tuple(-c for c in n) if n[::-1] < (0.0, 0.0, 0.0) else n


def _sphere(polar: np.ndarray, azimuth: np.ndarray) -> np.ndarray:
    """Bloch directions (g, 3) at polar and azimuth angles of shape (g,)."""
    sp = np.sin(polar)
    return np.stack([sp * np.cos(azimuth), sp * np.sin(azimuth), np.cos(polar)], axis=1)


def _hemisphere(count: int) -> np.ndarray:
    """``count`` Fibonacci-spiral directions (count, 3) with equal area on z > 0,
    the look first (every eighth of them), then the rest in spiral order."""
    k = np.arange(count) + 0.5
    n = _sphere(np.arccos(1.0 - k / count), k * np.pi * (3.0 - np.sqrt(5.0)))
    return np.r_[n[::8], np.delete(n, np.s_[::8], axis=0)]


def _neighbour_table(grid: np.ndarray) -> np.ndarray:
    """Grid indices (g, NEIGHBOURS) of each point's nearest directions on the
    whole sphere, the grid and its antipodes; -n is the same measurement as n."""
    cos = grid @ np.r_[grid, -grid].T
    np.fill_diagonal(cos, -np.inf)
    return np.argpartition(-cos, NEIGHBOURS - 1, axis=1)[:, :NEIGHBOURS] % len(grid)


_GRID = _hemisphere(GRID_POINTS)
_NEIGHBOURS = _neighbour_table(_GRID)
# The axis of a flat look: the first grid direction.
_FLAT_AXIS = tuple(_GRID[0].tolist())
# A walk's stencil around its trial point, in tangent coordinates of unit
# spacing: +-e1, +-e2 and +-(e1 + e2).  _FIT maps the trial's value and the six
# stencil values to the model's g1, g2, h11, h12, h22 by central differences,
# still to be divided by the spacing, once for g and twice for h.
_STENCIL = np.array([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]], float)
_FIT = np.array([[0, 0, -2, 2, -2],
                 [1, 0, 1, -1, 0],
                 [-1, 0, 1, -1, 0],
                 [0, 1, 0, -1, 1],
                 [0, -1, 0, -1, 1],
                 [0, 0, 0, 1, 0],
                 [0, 0, 0, 1, 0]], float) / [2, 2, 1, 2, 1]


def _retraction(p: tuple, steps: list) -> list[tuple[float, float, float]]:
    """Unit vectors along p + s . F, in plain floats, for the tangent steps s in
    ``steps`` at the unit vector ``p``; F is the polar/azimuth frame at p's angles."""
    # Any orthonormal frame would do: the damped Newton step and its predicted
    # decrease turn with the frame, so the search differs only by rounding.
    px, py, pz = p
    polar, azimuth = math.acos(min(1.0, max(-1.0, pz))), math.atan2(py, px)
    cp, sp, ca, sa = math.cos(polar), math.sin(polar), math.cos(azimuth), math.sin(azimuth)
    q = [(px + s1 * cp * ca - s2 * sa, py + s1 * cp * sa + s2 * ca, pz - s1 * sp)
         for s1, s2 in steps]
    return [(x / norm, y / norm, z / norm) for x, y, z in q for norm in [math.hypot(x, y, z)]]


def _trust_step(g1: float, g2: float, h11: float, h12: float, h22: float, radius: float):
    """The damped Newton step s = (s1, s2) = -(h + mu I)^-1 g on the model
    g . s + s . h . s / 2, with mu = max(0, |g|/radius - lambda_min(h)), and its
    predicted decrease (Levenberg-Marquardt; Nocedal and Wright, 4.3).

    Every eigenvalue of h + mu I is at least |g|/radius, so |s| <= radius, and
    s is the Newton step whenever |g| <= lambda_min(h) * radius.  In h's
    eigenbasis (in closed form) the decrease is sum g_i^2 (lambda_i + 2 mu) /
    (2 (lambda_i + mu)^2), positive for every g != 0; g = 0 gives s = 0, pred = 0.
    """
    # h's eigenvalues lo <= hi, along (-s, c) and (c, s).
    mean, half = 0.5 * (h11 + h22), 0.5 * (h11 - h22)
    spread, angle = math.hypot(half, h12), 0.5 * math.atan2(h12, half)
    lo, hi, c, s = mean - spread, mean + spread, math.cos(angle), math.sin(angle)
    g_lo, g_hi = g2 * c - g1 * s, g1 * c + g2 * s
    mu = max(0.0, math.hypot(g1, g2) / radius - lo)
    e_lo = -g_lo / (lo + mu) if lo + mu > 0.0 else 0.0
    e_hi = -g_hi / (hi + mu) if hi + mu > 0.0 else 0.0
    pred = -(e_lo * (g_lo + 0.5 * lo * e_lo) + e_hi * (g_hi + 0.5 * hi * e_hi))
    return (e_hi * c - e_lo * s, e_hi * s + e_lo * c), pred


@dataclass(slots=True)
class _Walk:
    """One trust-region walk in plain floats: point x, value fx, the model (g1, g2,
    h11, h12, h22) fitted there, trust radius, and the trial y = x + s whose model
    decrease is pred.  The first trial is the start, and fx = inf accepts it."""

    x: tuple
    y: tuple
    fx: float = math.inf
    model: tuple = (0.0,) * 5
    s: tuple = (0.0, 0.0)
    pred: float = 1.0
    radius: float = REFINE_STEP

    def advance(self, value: float, model: list[float]) -> bool:
        """Take the trial's value and the model (g1, g2, h11, h12, h22) fitted at
        the trial, and set the next trial; False once the walk has ended."""
        # Shrink the radius after a poor prediction, widen it after a good one
        # (Nocedal and Wright, Algorithm 4.1); move to a better trial, and take
        # the model fitted there.
        ratio = (self.fx - value) / self.pred
        if ratio < 0.25:
            self.radius = 0.25 * math.hypot(*self.s)
        elif ratio > 0.75:
            self.radius = max(self.radius, 2.0 * math.hypot(*self.s))
        if value < self.fx:
            self.x, self.fx, self.model = self.y, value, model
        self.s, self.pred = _trust_step(*self.model, self.radius)
        self.y = _retraction(self.x, [self.s])[0]
        return self.pred > FLAT_TOL


def _coupled_levels(rho: DensityMatrix) -> int:
    """The smallest k such that no qudit level >= k has an entry off the qudit's
    diagonal in any of rho's four d x d qubit blocks.  Then rho_B and every T_k,
    and so every steered block M+-(n), are exactly diagonal on those levels."""
    d = rho.dim_b
    off = (rho.matrix != 0.0).reshape(2, d, 2, d).any(axis=(0, 2))
    off.flat[::d + 1] = False
    coupled = (off | off.T).any(axis=1).tolist()
    return max((j + 1 for j, c in enumerate(coupled) if c), default=0)


def _eigvalsh(m: np.ndarray, k: int) -> np.ndarray:
    """Eigenvalues of the Hermitian (..., d, d) stack ``m``, in no set order, exact
    when its levels >= k are uncoupled: ``eigvalsh`` of the leading k x k block,
    then m's diagonal on the other d - k levels."""
    if k == m.shape[-1]:
        return np.linalg.eigvalsh(m)
    return np.concatenate([np.linalg.eigvalsh(m[..., :k, :k]),
                           m.diagonal(axis1=-2, axis2=-1)[..., k:].real], axis=-1)


def _steer(rho_b: np.ndarray, t: np.ndarray, n: np.ndarray):
    """The steering kernel: the blocks M = (rho_B +- n . T)/2, shape (2, g, d, d),
    and their traces p (2, g) for the outcomes +n (index 0) and -n (index 1) of
    the (g, 3) directions ``n``."""
    d = rho_b.shape[0]
    m = np.empty((2, len(n), d * d), dtype=complex)
    np.matmul(n, t.reshape(3, d * d), out=m[0])
    m = m.reshape(2, -1, d, d)
    m[0] += rho_b
    m[0] *= 0.5
    np.subtract(rho_b, m[0], out=m[1])
    return np.einsum('ogjj->og', m).real, m


def _conditional_entropy_batch(rho_b: np.ndarray, t: np.ndarray, n: np.ndarray,
                               k: int) -> np.ndarray:
    """sum_+- p S(M/p) in bits per direction, with the qudit's levels >= k
    uncoupled (``_coupled_levels``); eigenvalues are clipped to [0, 1]."""
    p, m = _steer(rho_b, t, n)
    lam = _eigvalsh(m, k) / np.where(p > DEGENERATE_TOL, p, 1.0)[:, :, None]
    return np.where(p > DEGENERATE_TOL, p * _spectral_entropy(lam), 0.0).sum(axis=0)


def conditional_ensemble(rho: DensityMatrix, direction) -> ConditionalEnsemble:
    """Measure the qubit along the Bloch ``direction`` and steer the qudit.

    p_i = tr[(A_i (x) I) rho (A_i (x) I)]; the steered states are the qudit
    reductions of the projected blocks.  Outcomes with p_i <= DEGENERATE_TOL
    keep their unnormalized block so the ensemble is always returned.
    """
    p, m = _steer(*_bloch_blocks(rho), _unit_direction(direction))
    p = p[:, 0]
    states = m[:, 0] / np.where(p > DEGENERATE_TOL, p, 1.0)[:, None, None]
    states.flags.writeable = False
    return ConditionalEnsemble(p0=float(p[0]), p1=float(p[1]), rho0=states[0], rho1=states[1])


def conditional_entropy(rho: DensityMatrix, direction) -> float:
    """sum_i p_i S(rho_i) in bits for the measurement along the Bloch ``direction``:
    degenerate outcomes contribute zero, steered spectra are clipped to [0, 1].
    It diagonalizes the full d x d blocks, where the optimizer splits them at
    ``_coupled_levels``; the two agree to 1e-15 relative
    (``test_split_kernel_matches_the_full_kernel``)."""
    return float(_conditional_entropy_batch(*_bloch_blocks(rho), _unit_direction(direction),
                                            rho.dim_b)[0])


def measured_mutual_information(rho: DensityMatrix, direction) -> float:
    """S(rho_B) minus the conditional entropy of the steered ensemble, in bits."""
    entropy_b = _state_entropy(partial_trace_a(rho))
    return entropy_b - conditional_entropy(rho, direction)


def optimize_measurement(rho: DensityMatrix,
                         config: OptimizerConfig | None = None) -> OptimizerResult:
    """Maximize the measured mutual information over projective qubit measurements.

    The value is the best one found: a lower bound on the supremum, exact to
    rounding for smooth objectives.  See the module docstring for the search.
    """
    start = time.perf_counter()
    rho_b, t = _bloch_blocks(rho)
    k = _coupled_levels(rho)
    entropy_b = _rescaled_entropy(_eigvalsh(rho_b, k))
    # The look: the grid's first directions, one turn of the spiral.  A flat
    # look stops the search; otherwise a second kernel call evaluates the rest
    # of the first batch, the other grid directions and the probes.
    look = _conditional_entropy_batch(rho_b, t, _GRID[:GRID_POINTS // 8], k)
    if look.max() - look.min() <= FLAT_TOL:
        value = entropy_b - float(look[0])
        return OptimizerResult(value=value, axis=_FLAT_AXIS, grid_value=value,
                               refine_gain=0.0, starts=0, batches=1, evaluations=len(look),
                               converged=True, grid_s=time.perf_counter() - start, refine_s=0.0)
    batch = _GRID
    if config is not None and config.random_probes > 0:
        rng = np.random.default_rng(config.seed)
        polar = np.arccos(rng.uniform(-1.0, 1.0, config.random_probes))
        azimuth = rng.uniform(0.0, 2.0 * np.pi, config.random_probes)
        batch = np.r_[batch, _sphere(polar, azimuth)]
    first = np.r_[look, _conditional_entropy_batch(rho_b, t, batch[GRID_POINTS // 8:], k)]
    batches, evaluations = 2, len(batch)

    # Starts: the best first-batch direction (it may be a probe), then the grid's
    # local minima on the sphere, best first.
    best = int(np.argmin(first))
    grid = first[:GRID_POINTS]
    minima = np.flatnonzero(np.all(grid[:, None] <= grid[_NEIGHBOURS], axis=1))
    minima = minima[np.argsort(grid[minima], kind="stable")]
    starts = [best] + [int(i) for i in minima if i != best][:MAX_STARTS - 1]
    walks = [_Walk(x=p, y=p) for p in map(tuple, batch[starts].tolist())]
    spacing = STENCIL_STEP * (first.max() - first.min()) ** -0.25
    stencil, fit = (spacing * _STENCIL).tolist(), _FIT / spacing ** np.array([1, 1, 2, 2, 2])
    grid_s = time.perf_counter() - start

    # Each batch holds every active walk's trial point, then its stencil.
    active = walks
    while active and batches < REFINE_MAXITER:
        points = [q for walk in active for q in [walk.y, *_retraction(walk.y, stencil)]]
        cond = _conditional_entropy_batch(rho_b, t, np.array(points), k).reshape(len(active), -1)
        batches, evaluations = batches + 1, evaluations + len(points)
        values, models = cond[:, 0].tolist(), (cond @ fit).tolist()
        active = [walk for walk, v, m in zip(active, values, models) if walk.advance(v, m)]

    top = min(walks, key=lambda walk: walk.fx)
    value, grid_value = entropy_b - top.fx, entropy_b - float(first[best])
    return OptimizerResult(value=value, axis=_fold(top.x),
                           grid_value=grid_value, refine_gain=value - grid_value,
                           starts=len(starts), batches=batches, evaluations=evaluations,
                           converged=not active, grid_s=grid_s,
                           refine_s=time.perf_counter() - start - grid_s)


def classical_correlation_numeric(rho: DensityMatrix,
                                  config: OptimizerConfig | None = None,
                                  ) -> tuple[float, tuple[float, float, float]]:
    """``optimize_measurement``'s best value and the axis that attains it."""
    result = optimize_measurement(rho, config)
    return result.value, result.axis


def discord_numeric(rho: DensityMatrix) -> float:
    """Total correlations minus the numerically maximized classical part, in bits."""
    value, _ = classical_correlation_numeric(rho)
    return quantum_mutual_information(rho) - value


def ensemble_spectrum_spread(s: TwoParamState, samples: int, seed: int) -> float:
    """Largest deviation of steered-state spectra from the family reference.

    Draws ``samples`` random axes, steers the family member along each, and
    returns the max L-infinity distance between every outcome's sorted
    spectrum and {2*alpha x (d-2), 2*beta, beta+gamma}.  Values at rounding
    level certify that the ensemble spectrum ignores the measurement choice.
    """
    if samples < 2:
        raise ValueError("need at least 2 sample axes")
    reference = np.sort(np.r_[[2.0 * s.alpha] * (s.d - 2), 2.0 * s.beta,
                              s.beta + s.gamma])[::-1]
    rng = np.random.default_rng(seed)
    n = np.array([random_axis(rng) for _ in range(samples)])
    p, m = _steer(*_bloch_blocks(build_state(s)), n)
    lam = np.linalg.eigvalsh(m) / np.where(p > DEGENERATE_TOL, p, 1.0)[:, :, None]
    deviation = np.max(np.abs(lam[:, :, ::-1] - reference), axis=2)
    return float(np.max(deviation[p > DEGENERATE_TOL], initial=0.0))
