"""
SU(2): everything shrinks to a round point
==========================================

On SU(2) the negative flow contracts the whole metric to a point in finite
time.  The round case A = B = C = s0 is exactly s(t) = sqrt(s0^2 - 4t), so
the singular time is s0^2/4.  The striking fact is that *generic* data also
becomes round on the way down: all three coefficients collapse like
2*sqrt(T0 - t), so every ratio tends to 1 -- the shape sphericalizes as the
volume vanishes.
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
)

# -- round branch: exact collapse ---------------------------------------------

m0 = MetricDiag(2.0, 2.0, 2.0)
traj = integrate(Geometry.SU2, XCF_MINUS, m0, IntegratorOptions(t_max=10.0))
t0 = estimate_blowup_time(traj)
print(f"round (2, 2, 2): singular time estimate {t0:.12f}  (exact s0^2/4 = 1)")

keep = traj.times <= 0.99 * t0
exact = exact_solution(Geometry.SU2, m0, traj.times[keep])
rel = np.abs(traj.states[keep] / exact - 1.0).max()
print(f"  worst relative error vs sqrt(s0^2 - 4t) for t <= 0.99 T0: {rel:.3e}")

# -- generic branch: rounding out ---------------------------------------------

traj = integrate(Geometry.SU2, XCF_MINUS, MetricDiag(3.0, 2.0, 1.0),
                 IntegratorOptions(t_max=10.0))
t0 = estimate_blowup_time(traj)
print(f"\ngeneric (3, 2, 1): singular time estimate {t0:.12f}")
print(f"  all components vanishing: {traj.termination.vanishing}")

A, B, C = traj.states.T
print("  ratio A/C along the run (initially 3):")
for frac in (0.0, 0.5, 0.9, 0.99, 0.9999):
    i = int(np.searchsorted(traj.times, frac * t0))
    i = min(i, len(traj.times) - 1)
    print(f"    t/T0 ~ {frac:7.4f}:  A/C = {A[i]/C[i]:.9f}")

for name in ("A", "B", "C"):
    fit = fit_power_law(traj, name, regime=REGIME_BLOWUP)
    print(f"  {name} ~ {fit.coefficient:.5f} * u^{fit.exponent:+.5f}   "
          f"(expect 2 * u^+0.5)")
