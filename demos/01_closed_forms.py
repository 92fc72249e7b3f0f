"""
Closed-form correlation measures for the two-parameter family
==============================================================

A family member on C^2 (x) C^d mixes a maximally entangled singlet with the
three other Bell projectors and a uniform block outside the qubit levels.
Its mutual information, classical correlation, quantum discord and
negativity all come out in closed form.
"""

import numpy as np

from qucorr import (
    TwoParamState,
    build_state,
    correlation_report,
    family_spectrum,
    marginal_b_spectrum,
)

# A generic qubit-qutrit member: alpha weights the outer levels, gamma the
# singlet, and beta (derived from the trace constraint) the remaining Bell
# projectors.
s = TwoParamState(d=3, alpha=0.05, gamma=0.55)
print(f"alpha = {s.alpha}, beta = {s.beta:.6f}, gamma = {s.gamma}")

rho = build_state(s)
print("\ndensity matrix (real part):")
print(np.round(rho.matrix.real, 4))

# The analytic spectrum matches a dense eigensolver on the assembled matrix.
print("\nspectrum, closed form :", np.round(family_spectrum(s), 6))
print("spectrum, eigensolver :", np.round(np.linalg.eigvalsh(rho.matrix)[::-1], 6))
print("qudit marginal        :", np.round(marginal_b_spectrum(s), 6))

# All four correlation measures at once.
report = correlation_report(s)
print(f"\nmutual information = {report.mutual_info:.6f} bits")
print(f"classical          = {report.classical:.6f} bits")
print(f"discord            = {report.discord:.6f} bits")
print(f"negativity         = {report.negativity:.6f}")
print(f"I - C - Q          = {report.mutual_info - report.classical - report.discord:.2e}")

# Three benchmark points with exactly known values.
print("\nbenchmark points (d = 3):")
for label, alpha, gamma, expected in (
        ("pure singlet        ", 0.0, 1.0, "I=2, C=Q=N=1"),
        ("uniform triplet mix ", 0.0, 0.0, "C=5/3-log2(3), Q=1/3, N=0"),
        ("product point (b=g) ", 1 / 6, 1 / 6, "I=C=Q=N=0")):
    r = correlation_report(TwoParamState(3, alpha, gamma))
    print(f"  {label} I={r.mutual_info:.6f} C={r.classical:.6f} "
          f"Q={r.discord:.6f} N={r.negativity:.6f}   ({expected})")

# Along gamma = 0 the state is separable for every alpha, yet the discord
# (1 - 2 alpha)/3 stays strictly above the classical correlation.
print("\nseparable line gamma = 0:")
for alpha in (0.0, 0.1, 0.2, 0.3, 0.4):
    r = correlation_report(TwoParamState(3, alpha, 0.0))
    print(f"  alpha={alpha:.1f}  C={r.classical:.6f}  Q={r.discord:.6f}  "
          f"Q-C={r.discord - r.classical:+.6f}")

# Along beta = 0 the three nontrivial measures coincide: N = C = Q = 1 - 2 alpha.
print("\nsinglet-plus-noise line beta = 0:")
for alpha in (0.0, 0.125, 0.25, 0.375, 0.5):
    r = correlation_report(TwoParamState(3, alpha, 1.0 - 2.0 * alpha))
    print(f"  alpha={alpha:.3f}  N={r.negativity:.6f}  C={r.classical:.6f}  "
          f"Q={r.discord:.6f}")
