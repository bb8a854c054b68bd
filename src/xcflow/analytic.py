"""Exact structure of the negative flow, stated once per branch.

`branch_record` is the catalog: for a geometry and an initial datum it gives
the one `BranchRecord` of the branch the datum lies on, which holds

* the asymptotic power laws, with exponents as exact rationals, coefficients
  either pinned to a known value or left to be fitted from data, and the
  tolerance of each;
* the quantities monotone along the flow, and the first integrals;
* the closed form and the exact singular time T0, where they exist;
* the branch checks `analysis.verify` runs, in report order: each check is
  exactly one entry of the report, under the check's own name.

Only the unnormalized negative flow has a catalog.  A normalized flow's
record holds the volume density A*B*C as its one first integral, and the
positive flow gets the empty record.  `exact_solution`, `singular_time` and
`conserved_quantities` read the record.  `sl2r_trapping_entry` is the
SL(2,R) trapping region F1 < 0, F2 < 0.

`SYMMETRIC_BRANCHES` states each geometry's symmetric axes once; a datum is
on the symmetric branch exactly when their coefficients are equal (the
integrator preserves symmetric reductions bitwise, so exact comparison is the
correct test).  Every record is stated in the canonical labels of
`canonical_permutation`, which puts those coefficients in decreasing order:
A0 >= C0 on Sol, B0 >= C0 on SL(2,R), A0 >= B0 on E(2) and A0 >= B0 >= C0 on
SU(2); Heisenberg and the trivial geometry are not relabeled.  Each ODE system
is exactly symmetric under those reorderings, so a datum's twins get its record.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

import numpy as np

from ._record import Record
from .flows import XCF_MINUS, FlowSpec
from .geometry import Geometry, MetricDiag, _sl2r_f

__all__ = [
    "AsymptoticLaw",
    "BranchCheck",
    "BranchRecord",
    "branch_record",
    "exact_solution",
    "singular_time",
    "sl2r_trapping_entry",
    "conserved_quantities",
    "classify_branch",
    "canonical_permutation",
]

INCREASING = "increasing"
DECREASING = "decreasing"

REGIME_INFINITY = "infinity"  # law holds as t -> infinity
REGIME_BLOWUP = "blowup"  # law holds as t -> T0 from below

# Per geometry: the axes (0, 1, 2 for A, B, C) whose equal coefficients select
# its symmetric branch, that branch's name and every other datum's.
SYMMETRIC_BRANCHES: dict[Geometry, tuple[tuple[int, ...], str, str]] = {
    Geometry.SOL: ((0, 2), "symmetric", "generic"),
    Geometry.SL2R: ((1, 2), "symmetric", "generic"),
    Geometry.E2: ((0, 1), "flat", "generic"),
    Geometry.SU2: ((0, 1, 2), "round", "generic"),
    Geometry.HEISENBERG: ((), "global", "global"),
    Geometry.TRIVIAL: ((), "stationary", "stationary"),
}


class AsymptoticLaw(Record):
    """One power law: variable ~ coefficient * x^exponent.

    `regime` fixes the clock: x = t for "infinity", x = T0 - t for "blowup".
    `coefficient` is a known constant or None when it must be fitted from
    data.  When `limit_form` is set the law reads
    variable ~ limit + coefficient * x^exponent with a finite limit.
    A fitted exponent passes within `exponent_tol`; a known coefficient
    passes within the relative `coefficient_tol`, which is None exactly when
    no coefficient is checked.
    """

    variable: str
    regime: str
    exponent: Fraction
    coefficient: float | None = None
    limit_form: bool = False
    description: str = ""
    exponent_tol: float = 0.02
    coefficient_tol: float | None = None


class BranchCheck(Record):
    """One branch check: the `kind` that `analysis.verify` dispatches on and the name of its one report entry.

    A "lock" compares the canonical columns `columns`; a "ratio_limit", a
    "sign_change" or a "settle" reads the named series `series`.
    """

    kind: str
    name: str
    columns: tuple[int, ...] = ()
    series: str = ""


class BranchRecord(Record):
    """What a flow promises on one branch, every name and row in the canonical labels of `canonical_permutation`.

    `laws` are power laws, `monotone` (series, direction) pairs,
    `first_integrals` (series, value at m0) pairs, and `checks` come in
    report order, "termination matches branch" first.  `closed_form` maps a
    time column to the exact (A, B, C) rows where the branch is solvable, for
    0 <= t < T0 with `t0` the exact singular time where it has one.
    """

    laws: tuple[AsymptoticLaw, ...] = ()
    monotone: tuple[tuple[str, str], ...] = ()
    first_integrals: tuple[tuple[str, float], ...] = ()
    t0: float | None = None
    closed_form: Callable[[np.ndarray], np.ndarray] | None = None
    checks: tuple[BranchCheck, ...] = ()

    @property
    def singular(self) -> bool:
        """Whether the branch ends at a singular time: some law holds as t -> T0."""
        return any(law.regime == REGIME_BLOWUP for law in self.laws)


_TERMINATION = BranchCheck("termination", "termination matches branch")


def branch_record(geometry: Geometry, spec: FlowSpec, m0: MetricDiag) -> BranchRecord:
    """The record of the branch the flow `spec` from m0 lies on, in canonical labels.

    Only the unnormalized negative flow has a catalog.  A normalized flow's
    record holds the volume density ("A*B*C", its value at m0) as its one
    first integral; the positive flow gets the empty record.
    """
    perm = canonical_permutation(geometry, m0)
    a0, b0, c0 = map(m0.as_tuple().__getitem__, perm)
    if spec != XCF_MINUS:
        return BranchRecord(first_integrals=(("A*B*C", a0 * b0 * c0),) if spec.normalized else ())
    axes, symmetric, _ = SYMMETRIC_BRANCHES[geometry]
    on_symmetric = classify_branch(geometry, m0) == symmetric
    lock = BranchCheck("lock", "=".join(["ABC"[i] for i in axes]) + " locked", columns=axes)

    if geometry is Geometry.HEISENBERG:
        r0 = -2.0 * a0 / (b0 * c0)  # the scalar curvature at t = 0
        s = 7.0 * r0 * r0

        def heisenberg(ts):
            w = 1.0 + s * ts
            return np.column_stack([a0 * w ** (-1.0 / 14.0), b0 * w ** (3.0 / 14.0), c0 * w ** (3.0 / 14.0)])

        tols = {"exponent_tol": 0.005, "coefficient_tol": 0.01}
        return BranchRecord(
            laws=(
                AsymptoticLaw("A", REGIME_INFINITY, Fraction(-1, 14), a0 * s ** (-1.0 / 14.0),
                              description="slow decay of the fiber direction", **tols),
                *(AsymptoticLaw(v, REGIME_INFINITY, Fraction(3, 14), x0 * s ** (3.0 / 14.0),
                                description="slow growth of a base direction", **tols) for v, x0 in (("B", b0), ("C", c0))),
            ),
            first_integrals=(("A^3*B", a0**3 * b0), ("A^3*C", a0**3 * c0), ("B/C", b0 / c0)),
            closed_form=heisenberg,
            checks=(_TERMINATION, BranchCheck("closed_form", "closed form")),
        )

    if geometry is Geometry.SOL:
        b_law = AsymptoticLaw("B", REGIME_BLOWUP, Fraction(1, 2), 8.0, coefficient_tol=0.02,
                              description="collapsing middle direction, B ~ sqrt(64 (T0-t))")
        if on_symmetric:
            k = a0 * b0 / 8.0

            def sol_symmetric(ts):
                b = np.sqrt(b0 * b0 - 64.0 * ts)
                a = a0 * b0 / b
                return np.column_stack([a, b, a])

            return BranchRecord(
                laws=(
                    b_law,
                    *(AsymptoticLaw(v, REGIME_BLOWUP, Fraction(-1, 2), k, coefficient_tol=0.02,
                                    description="exploding direction of the symmetric reduction") for v in ("A", "C")),
                ),
                t0=b0 * b0 / 64.0,
                closed_form=sol_symmetric,
                checks=(
                    _TERMINATION,
                    BranchCheck("closed_form", "closed form (t <= 0.99 T0)"),
                    lock,
                    BranchCheck("singular_time", "singular time = B0^2/64"),
                ),
            )
        sign_change = BranchCheck("sign_change", "A-3C changes sign before the singular time", series="A-3C")
        return BranchRecord(
            laws=(
                b_law,
                *(AsymptoticLaw(v, REGIME_BLOWUP, Fraction(-1, 2), description=f"exploding direction, shared constant with {w}")
                  for v, w in (("A", "C"), ("C", "A"))),
                AsymptoticLaw("A-C", REGIME_BLOWUP, Fraction(1, 2), exponent_tol=0.05,
                              description="anisotropy gap closes like sqrt(T0-t)"),
            ),
            monotone=(("A-C", DECREASING), ("A/C", DECREASING), ("A-3C", DECREASING), ("C", INCREASING)),
            checks=(_TERMINATION, sign_change) if a0 >= 3.0 * c0 else (_TERMINATION,),
        )

    if geometry is Geometry.SU2:
        laws = tuple(
            AsymptoticLaw(v, REGIME_BLOWUP, Fraction(1, 2), 2.0, coefficient_tol=0.02,
                          description="round collapse, every direction ~ 2 sqrt(T0-t)")
            for v in ("A", "B", "C")
        )
        monotone = (("A-B", DECREASING), ("A-C", DECREASING), ("A/B", DECREASING), ("A/C", DECREASING))
        if on_symmetric:

            def su2_round(ts):
                s = np.sqrt(a0 * a0 - 4.0 * ts)
                return np.column_stack([s, s, s])

            return BranchRecord(
                laws, monotone, t0=a0 * a0 / 4.0, closed_form=su2_round,
                checks=(
                    _TERMINATION,
                    BranchCheck("closed_form", "closed form (t <= 0.99 T0)"),
                    lock,
                    BranchCheck("singular_time", "singular time = s0^2/4"),
                ),
            )
        return BranchRecord(laws, monotone, checks=(_TERMINATION, BranchCheck("ratio_limit", "A/C -> 1", series="A/C")))

    if geometry is Geometry.SL2R:
        if on_symmetric:
            return BranchRecord(
                laws=(
                    AsymptoticLaw("B", REGIME_INFINITY, Fraction(1, 3), exponent_tol=0.01,
                                  description="pancake growth, B = C ~ (24 Ainf t)^(1/3)"),
                    AsymptoticLaw("A", REGIME_INFINITY, Fraction(-1, 3), limit_form=True,
                                  description="A tends to a positive limit with a t^(-1/3) tail"),
                ),
                monotone=(("4/A+1/B", DECREASING), ("A", DECREASING), ("B", INCREASING), ("C", INCREASING)),
                checks=(
                    _TERMINATION,
                    lock,
                    BranchCheck("quadrature", "d/dt(A^9 B^3) = 24 A^10 (trapezoid)"),
                    BranchCheck("pancake_coefficient", "B coefficient = (24 Ainf)^(1/3)"),
                    BranchCheck("pancake_tail_rate", "A tail rate = Ainf^(5/3)/(8*3^(1/3))"),
                ),
            )
        entered, _ = sl2r_trapping_entry(np.array([[a0, b0, c0]], dtype=float))
        return BranchRecord(
            laws=(
                *(AsymptoticLaw(v, REGIME_BLOWUP, Fraction(-1, 2), description=f"exploding direction, same constant as {w}")
                  for v, w in (("A", "B"), ("B", "A"))),
                AsymptoticLaw("C", REGIME_BLOWUP, Fraction(1, 2), 8.0, coefficient_tol=0.03,
                              description="collapsing direction, C ~ 8 sqrt(T0-t)"),
            ),
            monotone=(("A", INCREASING), ("B", INCREASING), ("C", DECREASING)) if entered is not None else (),
            checks=(
                _TERMINATION,
                BranchCheck("trapping", "F1<0 and F2<0 entered and retained"),
                BranchCheck("ratio_limit", "A/B -> 1", series="A/B"),
            ),
        )

    if geometry is Geometry.E2:
        if on_symmetric:
            return BranchRecord(checks=(_TERMINATION, BranchCheck("stationary", "exactly stationary")))
        return BranchRecord(
            laws=(
                AsymptoticLaw("A-B", REGIME_INFINITY, Fraction(-1, 6), description="anisotropy decays like 2 E2 t^(-1/6)"),
                AsymptoticLaw("C", REGIME_INFINITY, Fraction(1, 3), description="cigar growth, coefficient (8 E2/E1) sqrt(6)"),
                AsymptoticLaw("A+B", REGIME_INFINITY, Fraction(-1, 3), limit_form=True,
                              description="A+B tends to 2 E1 with a t^(-1/3) tail"),
            ),
            monotone=(
                ("(A-B)^2*C", INCREASING), ("A", DECREASING), ("B", INCREASING), ("C", INCREASING), ("A-B", DECREASING),
            ),
            checks=(
                _TERMINATION,
                BranchCheck("settle", "(A-B)^2*C settles over the last decade", series="(A-B)^2*C"),
                BranchCheck("cigar_coefficient", "C coefficient = (8 E2/E1) sqrt(6)"),
            ),
        )

    return BranchRecord(checks=(_TERMINATION,))


def singular_time(geometry: Geometry, m0: MetricDiag) -> float | None:
    """Exact singular time T0 of the negative flow from m0, where a closed form gives it.

    T0 = B0^2/64 on the symmetric branch of Sol and T0 = s0^2/4 on the round
    branch of SU(2); None on every other branch.
    """
    return branch_record(geometry, XCF_MINUS, m0).t0


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
    record = branch_record(geometry, XCF_MINUS, m0)
    if record.closed_form is None:
        return None
    if not np.all(times >= 0.0):
        raise ValueError(f"t must be nonnegative, got {float(np.min(times))!r}")
    if record.t0 is not None and np.any(times >= record.t0):
        raise ValueError(f"t={float(np.max(times))!r} is at or beyond the singular time {record.t0!r}")
    states = record.closed_form(np.atleast_1d(times))
    return states[0] if times.ndim == 0 else states


def conserved_quantities(
    geometry: Geometry, spec: FlowSpec, m: MetricDiag
) -> list[tuple[str, float]]:
    """Quantities constant along the flow, with their values at m: the first integrals of its branch record.

    They are A^3 B, A^3 C and B/C of the unnormalized negative flow on
    Heisenberg, and the volume density A*B*C of every normalized flow, in
    canonical labels.
    """
    return list(branch_record(geometry, spec, m).first_integrals)


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


def classify_branch(geometry: Geometry, m0: MetricDiag) -> str:
    """Dynamical branch of the negative flow from m0: the symmetric one when its `SYMMETRIC_BRANCHES` axes hold equal coefficients."""
    axes, symmetric, generic = SYMMETRIC_BRANCHES[geometry]
    y = m0.as_tuple()
    return symmetric if len({y[i] for i in axes}) < 2 else generic


def canonical_permutation(geometry: Geometry, m0: MetricDiag) -> tuple[int, int, int]:
    """Index permutation taking m0 to the ordering the catalogs assume.

    The coefficients on the geometry's `SYMMETRIC_BRANCHES` axes go in
    decreasing order, ties keeping theirs; the ODE system is exactly
    symmetric under their permutations.  Every other axis stays.
    """
    axes = SYMMETRIC_BRANCHES[geometry][0]
    perm = [0, 1, 2]
    for i, j in zip(axes, sorted(axes, key=m0.as_tuple().__getitem__, reverse=True)):
        perm[i] = j
    return tuple(perm)
