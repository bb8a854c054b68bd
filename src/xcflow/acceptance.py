"""Headline verification suite: eleven quantitative pass/fail criteria.

Each criterion exercises one advertised capability end to end (integrate,
then measure) and states exactly what it checked and what it observed.  The
test suite and the `flow verify` subcommand both run these through
`run_suite`; keeping them here makes the two entry points report identical
numbers.

A criterion takes the run memo of the suite it belongs to: a dict from
(geometry, flow, init, t_max) to the verification report of that run, so a
run shared by several criteria of one suite is integrated once.  Each
`run_suite` call starts an empty memo, so its report dicts hold only the
runs of that call and nothing is kept between calls.

Criteria 10 and 11 integrate nothing.  They draw pseudo-random metrics (and
criterion 11 its scales) from a fixed SplitMix64 counter stream, `_uniform`,
which needs only numpy integer arithmetic: no `numpy.random`.  Each draw call
has its own seed, so the first k draws of a geometry do not depend on the
draw count.  The criteria evaluate the curvature kernels and `flow_rhs` on
whole columns of draws, one call per geometry (and per flow kind), then take
a gap per draw with `_max_entry_gap`.  The kernels use only elementwise
+ - * /, so each draw's gap has the same bits as evaluating that draw alone.
A NaN gap fails the criterion and names its geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan
from types import SimpleNamespace

import numpy as np

from .analysis import (
    CONSERVED_DRIFT_TOL,
    VerificationReport,
    verify,
)
from .flows import NXCF, XCF_MINUS, FlowSpec, flow_rhs
from .geometry import (
    Geometry,
    MetricDiag,
    cross_curvature_diag,
    cross_from_sectional,
    sectional_curvatures,
)
from .integrator import IntegratorOptions, TerminationKind, integrate

__all__ = ["CriterionResult", "ALL_CRITERIA", "run_suite", "run_all", "criteria_for_geometry"]

_ORACLE_SEED = 20260814
_SCALING_SEED = _ORACLE_SEED + len(Geometry)  # criterion 10 takes one seed per geometry
_ORACLE_DRAWS = 10_000
_SCALING_DRAWS = 1_000
_ORACLE_TOL = 1e-12

_NXCF_SEEDS: dict[Geometry, tuple[float, float, float]] = {
    Geometry.HEISENBERG: (1.0, 2.0, 3.0),
    Geometry.SOL: (2.0, 4.0, 1.0),
    Geometry.SU2: (3.0, 2.0, 1.0),
    Geometry.SL2R: (1.0, 2.0, 1.0),
    Geometry.E2: (2.0, 1.0, 1.0),
    Geometry.TRIVIAL: (1.0, 2.0, 3.0),
}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: tuple[str, ...]

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] criterion {self.number:2d} {self.name}: " + "; ".join(self.details)


def _report(
    runs: dict, geometry: Geometry, flow: FlowSpec, init: tuple[float, float, float], t_max: float
) -> VerificationReport:
    key = (geometry, flow, init, t_max)
    if key not in runs:
        runs[key] = verify(integrate(geometry, flow, MetricDiag(*init), IntegratorOptions(t_max=t_max)))
    return runs[key]


def _check(report: VerificationReport, name: str):
    for c in report.checks:
        if c.name == name:
            return c
    raise LookupError(f"report has no check named {name!r}")


def _law(report: VerificationReport, variable: str):
    for l in report.laws:
        if l.variable == variable:
            return l
    raise LookupError(f"report has no law for {variable!r}")


def _monotone(report: VerificationReport, prefix: str):
    for c in report.monotone:
        if c.name.startswith(prefix):
            return c
    raise LookupError(f"report has no monotone entry starting with {prefix!r}")


def _fmt_check(c) -> str:
    if c.observed is None or c.threshold is None:
        return f"{c.name}: {c.detail or ('ok' if c.passed else 'failed')}"
    return f"{c.name}: {c.observed:.3e} (tol {c.threshold:.0e})"


def _fmt_law(l) -> str:
    s = f"{l.variable}: exponent {l.fitted_exponent:+.5f} vs {l.expected_exponent:+.5f} (tol {l.exponent_tolerance})"
    if l.expected_coefficient is not None and l.fitted_coefficient is not None:
        s += f", coeff {l.fitted_coefficient:.5g} vs {l.expected_coefficient:.5g}"
    return s


def criterion_heisenberg_closed_form(runs: dict) -> CriterionResult:
    rep = _report(runs, Geometry.HEISENBERG, XCF_MINUS, (1.0, 1.0, 1.0), 100.0)
    c = _check(rep, "closed form")
    return CriterionResult(1, "nil closed form", c.passed, (_fmt_check(c),))


def criterion_heisenberg_invariants(runs: dict) -> CriterionResult:
    rep = _report(runs, Geometry.HEISENBERG, XCF_MINUS, (1.0, 1.0, 1.0), 100.0)
    wanted = ("A^3*B", "A^3*C", "B/C")
    rows = [c for c in rep.conserved if c.name in wanted]
    ok = len(rows) == 3 and all(c.passed for c in rows)
    return CriterionResult(2, "nil first integrals", ok, tuple(_fmt_check(c) for c in rows))


def criterion_sol_symmetric(runs: dict) -> CriterionResult:
    rep = _report(runs, Geometry.SOL, XCF_MINUS, (1.0, 8.0, 1.0), 10.0)
    singular = rep.termination["kind"] == TerminationKind.SINGULAR_TIME.value
    t0 = _check(rep, "singular time = B0^2/64")
    lock = _check(rep, "A=C locked")
    closed = _check(rep, "closed form (t <= 0.99 T0)")
    ok = singular and t0.passed and lock.passed and closed.passed
    details = (
        f"termination {rep.termination['kind']}",
        f"singular time {rep.blowup_time!r} vs 1.0: " + _fmt_check(t0),
        _fmt_check(lock),
        _fmt_check(closed),
    )
    return CriterionResult(3, "sol symmetric collapse", ok, details)


def criterion_sol_generic(runs: dict) -> CriterionResult:
    rep = _report(runs, Geometry.SOL, XCF_MINUS, (2.0, 4.0, 1.0), 10.0)
    laws = [_law(rep, v) for v in ("B", "A", "C", "A-C")]
    rep2 = _report(runs, Geometry.SOL, XCF_MINUS, (5.0, 4.0, 1.0), 10.0)
    sign = _check(rep2, "A-3C changes sign before the singular time")
    ok = all(l.passed for l in laws) and sign.passed
    details = tuple(_fmt_law(l) for l in laws) + (_fmt_check(sign),)
    return CriterionResult(4, "sol generic blow-up laws", ok, details)


def criterion_su2(runs: dict) -> CriterionResult:
    round_rep = _report(runs, Geometry.SU2, XCF_MINUS, (2.0, 2.0, 2.0), 10.0)
    closed = _check(round_rep, "closed form (t <= 0.99 T0)")
    gen = _report(runs, Geometry.SU2, XCF_MINUS, (3.0, 2.0, 1.0), 10.0)
    singular = gen.termination["kind"] == TerminationKind.SINGULAR_TIME.value
    ratio = _check(gen, "A/C -> 1")
    a_law = _law(gen, "A")
    ok = closed.passed and singular and ratio.passed and a_law.passed
    details = (
        "round: " + _fmt_check(closed),
        f"generic termination {gen.termination['kind']}",
        "generic " + _fmt_check(ratio),
        "generic " + _fmt_law(a_law),
    )
    return CriterionResult(5, "su2 collapse", ok, details)


def criterion_sl2r_symmetric(runs: dict) -> CriterionResult:
    rep = _report(runs, Geometry.SL2R, XCF_MINUS, (1.0, 1.0, 1.0), 1.0e6)
    lock = _check(rep, "B=C locked")
    b_law = _law(rep, "B")
    rel = _check(rep, "B coefficient = (24 Ainf)^(1/3)")
    mono = _monotone(rep, "4/A+1/B")
    quad = _check(rep, "d/dt(A^9 B^3) = 24 A^10 (trapezoid)")
    ok = lock.passed and b_law.passed and rel.passed and mono.passed and quad.passed
    details = (_fmt_check(lock), _fmt_law(b_law), _fmt_check(rel), _fmt_check(mono), _fmt_check(quad))
    return CriterionResult(6, "sl2r symmetric pancake", ok, details)


def criterion_sl2r_generic(runs: dict) -> CriterionResult:
    rep = _report(runs, Geometry.SL2R, XCF_MINUS, (1.0, 2.0, 1.0), 10.0)
    region = _check(rep, "F1<0 and F2<0 entered and retained")
    laws = [_law(rep, v) for v in ("C", "A", "B")]
    ratio = _check(rep, "A/B -> 1")
    ok = region.passed and all(l.passed for l in laws) and ratio.passed
    details = (_fmt_check(region),) + tuple(_fmt_law(l) for l in laws) + (_fmt_check(ratio),)
    return CriterionResult(7, "sl2r generic blow-up laws", ok, details)


def criterion_e2(runs: dict) -> CriterionResult:
    flat = _report(runs, Geometry.E2, XCF_MINUS, (3.0, 3.0, 1.0), 10.0)
    stat = _check(flat, "exactly stationary")
    rep = _report(runs, Geometry.E2, XCF_MINUS, (2.0, 1.0, 1.0), 1.0e8)
    gap_law = _law(rep, "A-B")
    c_law = _law(rep, "C")
    prod = _monotone(rep, "(A-B)^2*C")
    settle = _check(rep, "(A-B)^2*C settles over the last decade")
    rel = _check(rep, "C coefficient = (8 E2/E1) sqrt(6)")
    ok = stat.passed and gap_law.passed and c_law.passed and prod.passed and settle.passed and rel.passed
    details = (
        "flat: " + _fmt_check(stat),
        _fmt_law(gap_law),
        _fmt_law(c_law),
        _fmt_check(prod),
        _fmt_check(settle),
        _fmt_check(rel),
    )
    return CriterionResult(8, "e2 cigar laws", ok, details)


def criterion_nxcf_volume(runs: dict) -> CriterionResult:
    details = []
    ok = True
    for geom, init in _NXCF_SEEDS.items():
        rep = _report(runs, geom, NXCF, init, 2.0)
        vol = next((c for c in rep.conserved if c.name == "A*B*C"), None)
        if vol is None:
            ok = False
            details.append(f"{geom.value}: volume row missing")
            continue
        ok = ok and vol.passed
        details.append(f"{geom.value}: drift {vol.observed:.3e} (tol {CONSERVED_DRIFT_TOL:.0e})")
    return CriterionResult(9, "normalized flow preserves volume", ok, tuple(details))


def _max_entry_gap(got, want) -> np.ndarray:
    """Per row, the largest |got - want| entry over the largest |want| entry.

    `got` and `want` are triples of equal-length columns (scalar entries, such
    as TRIVIAL's zeros, broadcast).  Where every entry of `want` is 0 the gap
    is absolute.  Each row gets the same bits as the triple of that row alone,
    and a NaN entry in a row makes that row's gap NaN.
    """
    (g0, g1, g2), (w0, w1, w2) = got, want
    gap = np.maximum(np.maximum(np.abs(g0 - w0), np.abs(g1 - w1)), np.abs(g2 - w2))
    scale = np.maximum(np.maximum(np.abs(w0), np.abs(w1)), np.abs(w2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(scale != 0.0, gap / scale, gap)


def _uniform(seed: int, n: int) -> np.ndarray:
    """n pseudo-random draws in [0, 1) from a fixed SplitMix64 counter stream.

    Draw i is the SplitMix64 output (Steele, Lea & Flood, "Fast splittable
    pseudorandom number generators", OOPSLA 2014) for the counter
    c = (seed << 32) + i, that is the finalizer applied to c times the golden
    gamma, all modulo 2**64.  Its top 53 bits times 2**-53 give the draw, so
    the first k draws of a call do not depend on n.
    """
    z = (np.arange(n, dtype=np.uint64) + np.uint64(seed << 32)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


def _log_uniform(seed: int, n: int, lo: float, hi: float) -> np.ndarray:
    """n values 10**U(lo, hi), from the draws of `_uniform(seed, n)`."""
    return 10.0 ** (lo + (hi - lo) * _uniform(seed, n))


def _random_metrics(seed: int, n: int) -> SimpleNamespace:
    """n random metrics as the A, B, C columns the kernels and `flow_rhs` accept.

    Metric j takes draws 3j, 3j+1 and 3j+2 of the seed, so the first k metrics
    do not depend on n.
    """
    draws = _log_uniform(seed, 3 * n, -2.0, 2.0).reshape(n, 3)
    return SimpleNamespace(A=draws[:, 0], B=draws[:, 1], C=draws[:, 2])


def _oracle_gaps() -> dict[Geometry, np.ndarray]:
    """Per geometry, the gap of the sectional route to the factored kernels, one per draw.

    The k-th geometry draws its metrics with seed `_ORACLE_SEED + k`.
    """
    gaps = {}
    for k, geom in enumerate(Geometry):
        m = _random_metrics(_ORACLE_SEED + k, _ORACLE_DRAWS)
        direct = cross_curvature_diag(geom, m)
        via_k = cross_from_sectional(m, sectional_curvatures(geom, m))
        gaps[geom] = _max_entry_gap(via_k, direct)
    return gaps


def _scaling_gaps() -> dict[Geometry, np.ndarray]:
    """Per geometry, the gap of the velocity at lam*g to the velocity at g over lam.

    Row 0 holds the XCF_MINUS gaps and row 1 the NXCF gaps, one per draw.  The
    k-th geometry draws its metrics with seed `_SCALING_SEED + 2k` and its
    scales with seed `_SCALING_SEED + 2k + 1`.
    """
    gaps = {}
    for k, geom in enumerate(Geometry):
        seed = _SCALING_SEED + 2 * k
        m = _random_metrics(seed, _SCALING_DRAWS)
        lams = _log_uniform(seed + 1, _SCALING_DRAWS, -3.0, 3.0)
        m_scaled = SimpleNamespace(A=lams * m.A, B=lams * m.B, C=lams * m.C)
        rows = []
        for spec in (XCF_MINUS, NXCF):
            base = flow_rhs(geom, m, spec)
            scaled = flow_rhs(geom, m_scaled, spec)
            rows.append(_max_entry_gap(scaled, [v / lams for v in base]))
        gaps[geom] = np.array(rows)
    return gaps


def _worst_gap(gaps: dict[Geometry, np.ndarray]) -> tuple[float, str]:
    """The largest gap and its geometry; a geometry replaces the worst only if strictly larger.

    A NaN gap counts as larger than any number, so it fails the tolerance and
    names the first geometry that produced one.
    """
    worst, worst_geom = 0.0, ""
    for geom, g in gaps.items():
        err = float(np.max(g))  # NaN if any draw's gap is NaN
        if err > worst or (isnan(err) and not isnan(worst)):
            worst, worst_geom = err, geom.value
    return worst, worst_geom


def criterion_oracle_equivalence(runs: dict) -> CriterionResult:
    worst, worst_geom = _worst_gap(_oracle_gaps())
    ok = worst <= _ORACLE_TOL
    return CriterionResult(
        10,
        "product form matches principal-curvature oracle",
        ok,
        (f"worst max-entry-relative gap {worst:.3e} ({worst_geom or 'all zero'}) over "
         f"{_ORACLE_DRAWS} draws per geometry (tol {_ORACLE_TOL:.0e})",),
    )


def criterion_scaling_law(runs: dict) -> CriterionResult:
    worst, worst_geom = _worst_gap(_scaling_gaps())
    ok = worst <= _ORACLE_TOL
    return CriterionResult(
        11,
        "velocity field scales inversely with the metric",
        ok,
        (f"worst relative gap {worst:.3e} ({worst_geom or 'all zero'}) over "
         f"{_SCALING_DRAWS} (metric, scale) pairs per geometry and both flow kinds (tol {_ORACLE_TOL:.0e})",),
    )


ALL_CRITERIA = (
    criterion_heisenberg_closed_form,
    criterion_heisenberg_invariants,
    criterion_sol_symmetric,
    criterion_sol_generic,
    criterion_su2,
    criterion_sl2r_symmetric,
    criterion_sl2r_generic,
    criterion_e2,
    criterion_nxcf_volume,
    criterion_oracle_equivalence,
    criterion_scaling_law,
)

_GEOMETRY_CRITERIA: dict[Geometry, tuple] = {
    Geometry.HEISENBERG: (criterion_heisenberg_closed_form, criterion_heisenberg_invariants),
    Geometry.SOL: (criterion_sol_symmetric, criterion_sol_generic),
    Geometry.SU2: (criterion_su2,),
    Geometry.SL2R: (criterion_sl2r_symmetric, criterion_sl2r_generic),
    Geometry.E2: (criterion_e2,),
    Geometry.TRIVIAL: (),
}


def criteria_for_geometry(geometry: Geometry) -> tuple:
    """Criteria specific to one geometry, plus the cross-geometry ones."""
    return _GEOMETRY_CRITERIA[geometry] + (
        criterion_nxcf_volume,
        criterion_oracle_equivalence,
        criterion_scaling_law,
    )


def run_suite(criteria) -> tuple[list[CriterionResult], dict[str, dict]]:
    """Run criteria in order on one fresh run memo.

    Returns the results and the JSON-ready verification report of every run
    the criteria made, labelled by geometry, flow, initial data and horizon.
    """
    runs: dict = {}
    results = [fn(runs) for fn in criteria]
    reports = {
        f"{geom.value} {flow.name} init=({init[0]:g},{init[1]:g},{init[2]:g}) t_max={t_max:g}": rep.to_dict()
        for (geom, flow, init, t_max), rep in runs.items()
    }
    return results, reports


def run_all() -> list[CriterionResult]:
    return run_suite(ALL_CRITERIA)[0]
