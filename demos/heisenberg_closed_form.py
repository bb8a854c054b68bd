"""
Nilpotent geometry: an exactly solvable flow
============================================

On the Heisenberg geometry the negative cross curvature flow of a diagonal
left-invariant metric reduces to three coupled ODEs with a closed-form
solution: the fiber coefficient A decays like t^(-1/14), the base
coefficients B and C grow like t^(3/14), and the combinations A^3*B, A^3*C,
B/C are exact first integrals.

This script integrates the unit metric far past its curve-crossing regime,
then measures how well the numerics track the closed form and how little the
first integrals drift.
"""

import numpy as np

from xcflow import (
    Geometry,
    IntegratorOptions,
    MetricDiag,
    XCF_MINUS,
    conserved_quantities,
    exact_solution,
    integrate,
    sample_at,
)

# -- run the flow -----------------------------------------------------------

m0 = MetricDiag(1.0, 1.0, 1.0)
traj = integrate(Geometry.HEISENBERG, XCF_MINUS, m0, IntegratorOptions(t_max=100.0))
print(f"termination: {traj.termination.kind.value} at t = {traj.t_end}")
print(f"accepted steps: {traj.termination.n_accepted}, "
      f"rejected: {traj.termination.n_rejected}")

# -- compare against the closed form ----------------------------------------

exact = exact_solution(Geometry.HEISENBERG, m0, traj.times)
rel = np.abs(traj.states / exact - 1.0)
print(f"\nworst relative error vs closed form over {len(traj.times)} samples: "
      f"{rel.max():.3e}")

for t in (1.0, 10.0, 100.0):
    m = sample_at(traj, t)
    e_a, e_b, _ = exact_solution(Geometry.HEISENBERG, m0, t)
    print(f"  t={t:6.1f}  A={m.A:.12f} (exact {e_a:.12f})  "
          f"B={m.B:.12f} (exact {e_b:.12f})")

# -- first integrals ---------------------------------------------------------

print("\nfirst integrals (value at t=0 -> max |drift| along the run):")
A, B, C = traj.states.T
series = {"A^3*B": A**3 * B, "A^3*C": A**3 * C, "B/C": B / C}
for (name, v0), values in zip(conserved_quantities(Geometry.HEISENBERG, XCF_MINUS, m0), series.values()):
    print(f"  {name:6s} = {v0:.6f} -> {np.abs(values - v0).max():.3e}")
