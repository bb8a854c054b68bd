"""
SL(2,R): one symmetric lifeline, otherwise blow-up
==================================================

The universal cover of SL(2,R) carries metrics (A; B, C) with one
distinguished direction.  Under the negative flow:

* symmetric data (B = C) lives forever: A settles to a finite limit A_inf
  while B = C grows like (24 A_inf t)^(1/3) -- a pancake that spreads but
  never degenerates, with 4/A + 1/B strictly decreasing along the way;
* generic data (B != C) enters the trapping region F1 < 0, F2 < 0 and then
  blows up in finite time, with C ~ 8 sqrt(T0 - t) vanishing and A, B both
  blowing up like (T0 - t)^(-1/2) at the same coefficient (A/B -> 1).

The two branches are separated by an exact reflection symmetry, so the
integrator keeps B = C to the last bit on the symmetric branch.
"""

import numpy as np

from xcflow import (
    Geometry,
    IntegratorOptions,
    MetricDiag,
    REGIME_BLOWUP,
    XCF_MINUS,
    estimate_blowup_time,
    estimate_limit_plus_power,
    fit_power_law,
    integrate,
)
from xcflow.analytic import sl2r_trapping_entry

# -- symmetric branch ----------------------------------------------------------

traj = integrate(Geometry.SL2R, XCF_MINUS, MetricDiag(1.0, 1.0, 1.0),
                 IntegratorOptions(t_max=1.0e6))
A, B, C = traj.states.T
print(f"symmetric (1, 1, 1) out to t = {traj.t_end:.0f}:")
print(f"  B stays equal to C bitwise: {np.array_equal(B, C)}")

lim = estimate_limit_plus_power(traj, "A", exponent=-1.0 / 3.0)
print(f"  A settles to A_inf = {lim.limit:.9f} with a t^(-1/3) correction")

fit = fit_power_law(traj, "B", regime="infinity")
print(f"  B ~ {fit.coefficient:.6f} * t^{fit.exponent:+.5f}   "
      f"(expect (24 A_inf)^(1/3) = {(24 * lim.limit) ** (1/3):.6f} * t^+1/3)")

q = 4.0 / A + 1.0 / B
print(f"  4/A + 1/B decreasing: max rise = {np.diff(q).max():.3e}")

# -- generic branch --------------------------------------------------------------

traj = integrate(Geometry.SL2R, XCF_MINUS, MetricDiag(1.0, 2.0, 1.0),
                 IntegratorOptions(t_max=10.0))
t0 = estimate_blowup_time(traj)
A, B, C = traj.states.T   # B is the larger of the pair here; no relabeling needed
entered, retained = sl2r_trapping_entry(traj.states)
print(f"\ngeneric (1, 2, 1): singular time estimate {t0:.9f}")
print(f"  trapping region F1<0, F2<0 entered at t = {traj.times[entered]:.4f} "
      f"and never left: {retained}")

for name, expected in (("C", "8 * u^+0.5"), ("A", "u^-0.5"), ("B", "u^-0.5")):
    fit = fit_power_law(traj, name, regime=REGIME_BLOWUP)
    print(f"  {name} ~ {fit.coefficient:.5f} * u^{fit.exponent:+.5f}   (expect {expected})")
print(f"  A/B at the last sample: {A[-1]/B[-1]:.6f} (the two blow-up "
      f"coefficients agree)")
