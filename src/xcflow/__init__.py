"""Cross curvature flow on locally homogeneous 3-manifolds.

Left-invariant metrics diagonalize in a Milnor frame, so each of the six
model geometries reduces the flow to an ODE system for the three diagonal
coefficients (A, B, C).  This package evaluates the curvature algebra,
integrates the negative, positive, and volume-normalized flows through
finite-time singularities, and measures trajectories against the closed
forms, first integrals, monotone quantities, and asymptotic laws that the
branch record of each initial datum (`branch_record`) says they satisfy.

Quick start::

    from xcflow import Geometry, MetricDiag, XCF_MINUS, integrate, verify

    traj = integrate(Geometry.SOL, XCF_MINUS, MetricDiag(1, 8, 1))
    report = verify(traj)
    print(report.termination["kind"], report.blowup_time)
"""

from __future__ import annotations

from .analysis import (
    CheckResult,
    LawResult,
    LimitPowerFit,
    PowerLawFit,
    VerificationReport,
    estimate_blowup_time,
    estimate_limit_plus_power,
    fit_power_law,
    series_values,
    verify,
)
from .analytic import (
    REGIME_BLOWUP,
    REGIME_INFINITY,
    AsymptoticLaw,
    BranchRecord,
    branch_record,
    canonical_permutation,
    classify_branch,
    conserved_quantities,
    exact_solution,
    singular_time,
)
from .flows import (
    NXCF,
    NXCF_PLUS,
    XCF_MINUS,
    XCF_PLUS,
    FlowDirection,
    FlowSpec,
    flow_rhs,
    rhs_function,
)
from .geometry import (
    CrossDiag,
    CurvTriple,
    Geometry,
    MetricDiag,
    cross_curvature_diag,
    cross_from_sectional,
    sectional_curvatures,
)
from .integrator import (
    IntegratorOptions,
    Termination,
    TerminationKind,
    Trajectory,
    accepted_states,
    integrate,
    sample_at,
    terminate,
)

__version__ = "0.1.0"

__all__ = [
    "Geometry",
    "MetricDiag",
    "CurvTriple",
    "CrossDiag",
    "sectional_curvatures",
    "cross_curvature_diag",
    "cross_from_sectional",
    "FlowDirection",
    "FlowSpec",
    "XCF_MINUS",
    "XCF_PLUS",
    "NXCF",
    "NXCF_PLUS",
    "flow_rhs",
    "rhs_function",
    "IntegratorOptions",
    "TerminationKind",
    "Termination",
    "Trajectory",
    "integrate",
    "terminate",
    "accepted_states",
    "sample_at",
    "exact_solution",
    "singular_time",
    "conserved_quantities",
    "branch_record",
    "BranchRecord",
    "classify_branch",
    "canonical_permutation",
    "AsymptoticLaw",
    "PowerLawFit",
    "LimitPowerFit",
    "CheckResult",
    "LawResult",
    "VerificationReport",
    "series_values",
    "REGIME_BLOWUP",
    "REGIME_INFINITY",
    "fit_power_law",
    "estimate_blowup_time",
    "estimate_limit_plus_power",
    "verify",
    "__version__",
]
