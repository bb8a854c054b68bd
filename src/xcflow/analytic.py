"""Closed-form solutions, conserved quantities and expected asymptotics.

Everything in this module is exact structure of the negative flow that the
numerical trajectories can be checked against, each fact stated once:

* `exact_solution`, the explicit solution on time columns, on the Heisenberg
  group and on the symmetric reductions of Sol (A = C) and SU(2)
  (A = B = C), and `singular_time`, the exact T0 of the latter two;
* quantities that stay constant along a flow;
* quantities that are monotone for initial data in a given branch, and the
  SL(2,R) trapping region F1 < 0, F2 < 0 (`sl2r_trapping_entry`);
* the catalog of asymptotic power laws, per geometry and branch, with
  exponents as exact rationals and coefficients either pinned to a known
  value or left to be fitted from data.

Branches are decided by exact equality of the relevant coefficients
(symmetric reductions are preserved bitwise by the integrator, so exact
comparison is the correct test).  The generic-branch analyses assume a fixed
ordering (Sol: A0 > C0, SL(2,R): B0 > C0, E(2): A0 > B0); mirrored initial
data are handled by the label swap under which the ODE systems are exactly
symmetric, see `canonical_permutation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .flows import FlowDirection, FlowSpec
from .geometry import Geometry, MetricDiag, _sl2r_f

__all__ = [
    "AsymptoticLaw",
    "exact_solution",
    "singular_time",
    "sl2r_trapping_entry",
    "conserved_quantities",
    "monotone_quantities",
    "expected_asymptotics",
    "classify_branch",
    "canonical_permutation",
]

_NEGATIVE_UNNORMALIZED = FlowSpec(FlowDirection.NEGATIVE, False)

INCREASING = "increasing"
DECREASING = "decreasing"

REGIME_INFINITY = "infinity"  # law holds as t -> infinity
REGIME_BLOWUP = "blowup"  # law holds as t -> T0 from below


@dataclass(frozen=True)
class AsymptoticLaw:
    """One power law: variable ~ coefficient * x^exponent.

    `regime` fixes the clock: x = t for "infinity", x = T0 - t for "blowup".
    `coefficient` is a known constant or None when it must be fitted from
    data.  When `limit_form` is set the law reads
    variable ~ limit + coefficient * x^exponent with a finite limit.
    """

    variable: str
    regime: str
    exponent: Fraction
    coefficient: float | None = None
    limit_form: bool = False
    description: str = ""


def singular_time(geometry: Geometry, m0: MetricDiag) -> float | None:
    """Exact singular time T0 of the negative flow from m0, where a closed form gives it.

    T0 = B0^2/64 on the symmetric branch of Sol and T0 = s0^2/4 on the round
    branch of SU(2); None on every other branch.
    """
    branch = classify_branch(geometry, m0)
    if geometry is Geometry.SOL and branch == "symmetric":
        return m0.B * m0.B / 64.0
    if geometry is Geometry.SU2 and branch == "round":
        return m0.A * m0.A / 4.0
    return None


def exact_solution(geometry: Geometry, m0: MetricDiag, t) -> np.ndarray | None:
    """Exact negative-flow states from m0 at the times t, where a closed form exists.

    Returns an (n, 3) array of (A, B, C) rows for a time array of length n,
    a (3,) array for a single time, and None on a branch without a closed
    form.  With R0 = -2 A0/(B0 C0) the scalar curvature at t = 0:

    * Heisenberg, for all t >= 0: w = 1 + 7 R0^2 t,
      A = A0 w^(-1/14), B = B0 w^(3/14), C = C0 w^(3/14);
    * Sol with A0 = C0: B = sqrt(B0^2 - 64 t), A = C = A0 B0 / B;
    * SU(2) with A0 = B0 = C0 = s0: the round metric s = sqrt(s0^2 - 4 t).

    Times must satisfy 0 <= t < T0 (`singular_time`); the singular time
    itself is rejected.
    """
    times = np.asarray(t, dtype=float)
    t0 = singular_time(geometry, m0)
    if t0 is None and geometry is not Geometry.HEISENBERG:  # Heisenberg's closed form is global
        return None
    if not np.all(times >= 0.0):
        raise ValueError(f"t must be nonnegative, got {float(np.min(times))!r}")
    if t0 is not None and np.any(times >= t0):
        raise ValueError(f"t={float(np.max(times))!r} is at or beyond the singular time {t0!r}")
    ts = np.atleast_1d(times)
    if geometry is Geometry.HEISENBERG:
        r0 = -2.0 * m0.A / (m0.B * m0.C)
        w = 1.0 + 7.0 * r0 * r0 * ts
        states = np.column_stack(
            [m0.A * w ** (-1.0 / 14.0), m0.B * w ** (3.0 / 14.0), m0.C * w ** (3.0 / 14.0)]
        )
    elif geometry is Geometry.SOL:
        b = np.sqrt(m0.B * m0.B - 64.0 * ts)
        a = m0.A * m0.B / b
        states = np.column_stack([a, b, a])
    else:
        s = np.sqrt(m0.A * m0.A - 4.0 * ts)
        states = np.column_stack([s, s, s])
    return states[0] if times.ndim == 0 else states


def conserved_quantities(
    geometry: Geometry, spec: FlowSpec, m: MetricDiag
) -> list[tuple[str, float]]:
    """Quantities constant along the flow, with their values at m.

    The unnormalized negative flow on Heisenberg conserves A^3 B, A^3 C and
    B/C; every normalized flow conserves the volume density A*B*C.
    """
    out: list[tuple[str, float]] = []
    if (
        geometry is Geometry.HEISENBERG
        and spec.direction is FlowDirection.NEGATIVE
        and not spec.normalized
    ):
        out.extend(
            [
                ("A^3*B", m.A**3 * m.B),
                ("A^3*C", m.A**3 * m.C),
                ("B/C", m.B / m.C),
            ]
        )
    if spec.normalized:
        out.append(("A*B*C", m.A * m.B * m.C))
    return out


def sl2r_trapping_entry(states: np.ndarray) -> tuple[int | None, bool]:
    """Where SL(2,R) states enter the trapping region F1 < 0 and F2 < 0.

    `states` are (A, B, C) rows in canonical order.  Returns the first row
    inside the region (None if no row is) and whether every later row stays
    inside.
    """
    f1, f2, _ = _sl2r_f(states[:, 0], states[:, 1], states[:, 2])
    inside = (f1 < 0.0) & (f2 < 0.0)
    if not np.any(inside):
        return None, False
    i0 = int(np.argmax(inside))
    return i0, bool(np.all(inside[i0:]))


def monotone_quantities(geometry: Geometry, m0: MetricDiag) -> list[tuple[str, str]]:
    """Catalog of quantities monotone along the negative flow from m0.

    The lists depend on the ordering of the initial coefficients; an empty
    list means no monotonicity statement applies to this initial datum.
    """
    a0, b0, c0 = m0.A, m0.B, m0.C
    if geometry is Geometry.SOL:
        if a0 > c0:
            return [("A-C", DECREASING), ("A/C", DECREASING), ("A-3C", DECREASING), ("C", INCREASING)]
        if c0 > a0:
            return [("C-A", DECREASING), ("C/A", DECREASING), ("C-3A", DECREASING), ("A", INCREASING)]
        return []
    if geometry is Geometry.SU2:
        order = sorted(zip((a0, b0, c0), "ABC"), key=lambda p: (-p[0], p[1]))
        hi, mid, lo = (label for _, label in order)
        return [
            (f"{hi}-{mid}", DECREASING),
            (f"{hi}-{lo}", DECREASING),
            (f"{hi}/{mid}", DECREASING),
            (f"{hi}/{lo}", DECREASING),
        ]
    if geometry is Geometry.SL2R:
        if b0 == c0:
            return [("4/A+1/B", DECREASING), ("A", DECREASING), ("B", INCREASING), ("C", INCREASING)]
        hi, lo = ("B", "C") if b0 > c0 else ("C", "B")
        entered, _ = sl2r_trapping_entry(np.array([[a0, max(b0, c0), min(b0, c0)]], dtype=float))
        if entered is not None:
            return [("A", INCREASING), (hi, INCREASING), (lo, DECREASING)]
        return []
    if geometry is Geometry.E2:
        if a0 == b0:
            return []
        hi, lo = ("A", "B") if a0 > b0 else ("B", "A")
        return [
            (f"({hi}-{lo})^2*C", INCREASING),
            (hi, DECREASING),
            (lo, INCREASING),
            ("C", INCREASING),
            (f"{hi}-{lo}", DECREASING),
        ]
    return []


def classify_branch(geometry: Geometry, m0: MetricDiag) -> str:
    """Dynamical branch of the negative flow from m0, by exact equality."""
    a0, b0, c0 = m0.A, m0.B, m0.C
    if geometry is Geometry.HEISENBERG:
        return "global"
    if geometry is Geometry.SOL:
        return "symmetric" if a0 == c0 else "generic"
    if geometry is Geometry.SU2:
        return "round" if a0 == b0 == c0 else "generic"
    if geometry is Geometry.SL2R:
        return "symmetric" if b0 == c0 else "generic"
    if geometry is Geometry.E2:
        return "flat" if a0 == b0 else "generic"
    return "stationary"


def canonical_permutation(geometry: Geometry, m0: MetricDiag) -> tuple[int, int, int]:
    """Index permutation taking m0 to the ordering the catalogs assume.

    Sol analyses assume A0 >= C0, SL(2,R) assumes B0 >= C0, E(2) assumes
    A0 >= B0; each ODE system is exactly symmetric under the corresponding
    swap, so mirrored data are handled by relabeling.  Identity otherwise.
    """
    if geometry is Geometry.SOL and m0.C > m0.A:
        return (2, 1, 0)
    if geometry is Geometry.SL2R and m0.C > m0.B:
        return (0, 2, 1)
    if geometry is Geometry.E2 and m0.B > m0.A:
        return (1, 0, 2)
    return (0, 1, 2)


def expected_asymptotics(
    geometry: Geometry, spec: FlowSpec, m0: MetricDiag
) -> list[AsymptoticLaw]:
    """Asymptotic laws the negative flow from m0 is expected to satisfy.

    Laws are stated in the canonical labels of `canonical_permutation`.
    Only the unnormalized negative flow carries a catalog; other flow specs
    are rejected.
    """
    if spec != _NEGATIVE_UNNORMALIZED:
        raise ValueError("asymptotic catalog applies to the unnormalized negative flow only")

    perm = canonical_permutation(geometry, m0)
    coeffs = m0.as_tuple()
    a0, b0, c0 = (coeffs[perm[0]], coeffs[perm[1]], coeffs[perm[2]])

    if geometry is Geometry.HEISENBERG:
        r0 = -2.0 * a0 / (b0 * c0)
        s = 7.0 * r0 * r0
        return [
            AsymptoticLaw("A", REGIME_INFINITY, Fraction(-1, 14), a0 * s ** (-1.0 / 14.0),
                          description="slow decay of the fiber direction"),
            AsymptoticLaw("B", REGIME_INFINITY, Fraction(3, 14), b0 * s ** (3.0 / 14.0),
                          description="slow growth of a base direction"),
            AsymptoticLaw("C", REGIME_INFINITY, Fraction(3, 14), c0 * s ** (3.0 / 14.0),
                          description="slow growth of a base direction"),
        ]

    if geometry is Geometry.SOL:
        laws = [
            AsymptoticLaw("B", REGIME_BLOWUP, Fraction(1, 2), 8.0,
                          description="collapsing middle direction, B ~ sqrt(64 (T0-t))"),
        ]
        if a0 == c0:
            k = a0 * b0 / 8.0
            laws += [
                AsymptoticLaw("A", REGIME_BLOWUP, Fraction(-1, 2), k,
                              description="exploding direction of the symmetric reduction"),
                AsymptoticLaw("C", REGIME_BLOWUP, Fraction(-1, 2), k,
                              description="exploding direction of the symmetric reduction"),
            ]
        else:
            laws += [
                AsymptoticLaw("A", REGIME_BLOWUP, Fraction(-1, 2), None,
                              description="exploding direction, shared constant with C"),
                AsymptoticLaw("C", REGIME_BLOWUP, Fraction(-1, 2), None,
                              description="exploding direction, shared constant with A"),
                AsymptoticLaw("A-C", REGIME_BLOWUP, Fraction(1, 2), None,
                              description="anisotropy gap closes like sqrt(T0-t)"),
            ]
        return laws

    if geometry is Geometry.SU2:
        return [
            AsymptoticLaw(v, REGIME_BLOWUP, Fraction(1, 2), 2.0,
                          description="round collapse, every direction ~ 2 sqrt(T0-t)")
            for v in ("A", "B", "C")
        ]

    if geometry is Geometry.SL2R:
        if b0 == c0:
            return [
                AsymptoticLaw("B", REGIME_INFINITY, Fraction(1, 3), None,
                              description="pancake growth, B = C ~ (24 Ainf t)^(1/3)"),
                AsymptoticLaw("A", REGIME_INFINITY, Fraction(-1, 3), None, limit_form=True,
                              description="A tends to a positive limit with a t^(-1/3) tail"),
            ]
        return [
            AsymptoticLaw("A", REGIME_BLOWUP, Fraction(-1, 2), None,
                          description="exploding direction, same constant as B"),
            AsymptoticLaw("B", REGIME_BLOWUP, Fraction(-1, 2), None,
                          description="exploding direction, same constant as A"),
            AsymptoticLaw("C", REGIME_BLOWUP, Fraction(1, 2), 8.0,
                          description="collapsing direction, C ~ 8 sqrt(T0-t)"),
        ]

    if geometry is Geometry.E2:
        if a0 == b0:
            return []
        return [
            AsymptoticLaw("A-B", REGIME_INFINITY, Fraction(-1, 6), None,
                          description="anisotropy decays like 2 E2 t^(-1/6)"),
            AsymptoticLaw("C", REGIME_INFINITY, Fraction(1, 3), None,
                          description="cigar growth, coefficient (8 E2/E1) sqrt(6)"),
            AsymptoticLaw("A+B", REGIME_INFINITY, Fraction(-1, 3), None, limit_form=True,
                          description="A+B tends to 2 E1 with a t^(-1/3) tail"),
        ]

    return []
