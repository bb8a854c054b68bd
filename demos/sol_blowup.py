"""
Sol geometry: finite-time blow-up, measured
===========================================

Every Sol metric hits a singularity in finite time under the negative flow.
Two regimes:

* symmetric data (A = C): exactly solvable -- B = sqrt(B0^2 - 64 t) collapses
  while A = C = A0*B0/B blows up, with singular time T0 = B0^2/64;
* generic data (A != C): B still vanishes like 8*sqrt(T0 - t) and A, C blow
  up like (T0 - t)^(-1/2) with a common coefficient, while the asymmetry
  A - C survives at a weaker rate sqrt(T0 - t).

The integrator detects the singular event on its own; the analysis layer
estimates the singular time and fits the power laws against the detected
blow-up.
"""

import numpy as np

from xcflow import (
    Geometry,
    IntegratorOptions,
    MetricDiag,
    REGIME_BLOWUP,
    XCF_MINUS,
    estimate_blowup_time,
    exact_solution,
    fit_power_law,
    integrate,
    singular_time,
)

# -- symmetric branch: compare with the exact solution -----------------------

m0 = MetricDiag(1.0, 8.0, 1.0)
traj = integrate(Geometry.SOL, XCF_MINUS, m0, IntegratorOptions(t_max=10.0))
t0 = estimate_blowup_time(traj)
print(f"symmetric (1, 8, 1): terminated {traj.termination.kind.value} "
      f"at t = {traj.t_end:.15f}")
print(f"  estimated singular time {t0:.15f}  (exact B0^2/64 = {singular_time(Geometry.SOL, m0)})")

keep = traj.times <= 0.99  # the closed form is compared away from the edge
exact = exact_solution(Geometry.SOL, m0, traj.times[keep])
rel = np.abs(traj.states[keep] / exact - 1.0).max()
print(f"  worst relative error vs closed form for t <= 0.99: {rel:.3e}")

# -- generic branch: fit the blow-up exponents --------------------------------

m0 = MetricDiag(2.0, 4.0, 1.0)
traj = integrate(Geometry.SOL, XCF_MINUS, m0, IntegratorOptions(t_max=10.0))
t0 = estimate_blowup_time(traj)
print(f"\ngeneric (2, 4, 1): singular time estimate {t0:.12f}")

print("  power laws in u = T0 - t on the window u/T0 in [1e-4, 1e-3]:")
for name, expected_p, expected_c in (
    ("B", 0.5, 8.0),
    ("A", -0.5, None),
    ("C", -0.5, None),
    ("A-C", 0.5, None),
):
    fit = fit_power_law(traj, name, regime=REGIME_BLOWUP)
    coeff = "" if expected_c is None else f"  coeff {fit.coefficient:.4f} (expect {expected_c})"
    print(f"    {name:4s} ~ u^{fit.exponent:+.5f} (expect {expected_p:+.1f}){coeff}")

# -- the sign change of A - 3C -------------------------------------------------

m0 = MetricDiag(5.0, 4.0, 1.0)
traj = integrate(Geometry.SOL, XCF_MINUS, m0, IntegratorOptions(t_max=10.0))
A, _, C = traj.states.T
d = A - 3.0 * C
flip = int(np.argmax(d < 0.0))
print(f"\n(5, 4, 1): A - 3C starts at {d[0]:+.1f} and goes negative by "
      f"t = {traj.times[flip]:.4f} -- the larger component does not stay 'too large'")
