"""
Measuring the qubit: steered ensembles and the numeric optimizer
================================================================

Classical correlation is defined through a supremum over projective qubit
measurements.  For family members the steered-ensemble spectrum is the same
for every measurement direction, so the supremum is free: the optimizer sees a
flat hemisphere grid and stops there.  For arbitrary states it refines every
local minimum of the grid by damped Newton steps on a quadratic model fitted
from a small stencil around each walk's trial point; the damping keeps each
step within the walk's trust radius.  All starts share one batch per step.

A measurement is its Bloch direction n: the projector pair is (I +- n.sigma)/2,
so every function that takes one accepts any non-zero 3-vector.
"""

import numpy as np

from qucorr import (
    TwoParamState,
    build_state,
    classical_correlation,
    classical_correlation_numeric,
    conditional_ensemble,
    conditional_entropy,
    conditional_entropy_closed,
    discord_numeric,
    measured_mutual_information,
    optimize_measurement,
    partial_trace_b,
    random_axis,
    random_density_matrix,
    validate_density,
    von_neumann_entropy,
)

rng = np.random.default_rng(7)

# --- steering a family member -------------------------------------------
s = TwoParamState(d=3, alpha=0.08, gamma=0.5)
rho = build_state(s)

print("steered spectra for five random measurement axes:")
for _ in range(5):
    ens = conditional_ensemble(rho, random_axis(rng))
    lam = np.sort(np.linalg.eigvalsh(ens.rho0))[::-1]
    print(f"  p0={ens.p0:.3f}  spectrum={np.round(lam, 10)}")
print("reference {2a, 2b, b+g} :",
      np.round(np.sort([2 * s.alpha, 2 * s.beta, s.beta + s.gamma])[::-1], 10))

# The conditional entropy is therefore axis-independent and known in closed form.
values = [conditional_entropy(rho, random_axis(rng)) for _ in range(25)]
print(f"\nconditional entropy over 25 axes: spread = {np.ptp(values):.2e}")
print(f"closed form                     : {conditional_entropy_closed(s):.12f}")

# --- the optimizer agrees with the closed form ---------------------------
value, axis = classical_correlation_numeric(rho)
print(f"\nclassical correlation, optimizer  : {value:.12f}")
print(f"classical correlation, closed form: {classical_correlation(s):.12f}")
print("optimal axis: n = (" + ", ".join(f"{c:.4f}" for c in axis) + ")")

# --- arbitrary states ----------------------------------------------------
# For a generic mixed state the optimizer returns a certified lower bound.
generic = random_density_matrix(2, 3, rng)
value, axis = classical_correlation_numeric(generic)
print(f"\nrandom mixed state: C >= {value:.9f}, Q <= {discord_numeric(generic):.9f}")

# The search reports what it did: the grid's best against the refined value,
# and what the refinement cost.  A family member stops after the grid.
for label, state in (("random mixed state", generic), ("family member", rho)):
    r = optimize_measurement(state)
    print(f"{label}: grid {r.grid_value:.9f} + gain {r.refine_gain:.1e}, "
          f"{r.starts} starts, {r.batches} batches, {r.evaluations} evaluations")

# For pure states the discord reproduces the entanglement entropy.
v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
v /= np.linalg.norm(v)
pure = validate_density(np.outer(v, v.conj()), 2, 3)
print(f"\nrandom pure state: discord      = {discord_numeric(pure):.9f}")
print(f"                   entanglement = "
      f"{von_neumann_entropy(partial_trace_b(pure)):.9f}")

# A computational-basis measurement is just one sample of the objective:
# the optimum can only sit above it.
fixed = (0.0, 0.0, 1.0)
sample = measured_mutual_information(generic, fixed)
print(f"\nobjective at the z-axis : {sample:.9f}")
print(f"optimized value         : {value:.9f}  (>= sample)")
