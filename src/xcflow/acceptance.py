"""Headline verification suite: eleven quantitative pass/fail criteria.

Each criterion exercises one advertised capability end to end (integrate,
then measure) and states exactly what it checked and what it observed.  The
test suite and the `flow verify` subcommand both run these through
`run_suite`; keeping them here makes the two entry points report identical
numbers.

A criterion takes the run memo of the suite it belongs to: a dict from the
run key (geometry, flow, init, t_max) to the verification report of that
run, so a run shared by several criteria of one suite is integrated once.
Each `run_suite` call starts an empty memo, so its report dicts hold only the
runs of that call and nothing is kept between calls.

All eleven criteria are rows of one table, `_TABLE`, read by one
evaluator.  A row gives the criterion's number, name and geometry (None for
criteria 9-11, which cover all of them) and either its ordered report
entries or its gap function.  An `_Entry` names a run key, a
report field (`checks`, `conserved`, `monotone`, `laws`, or `termination`
for the run's termination kind), the entry's name within that field (a
law's variable; for `termination`, the kind that passes) and the template
its text is printed with.  The evaluator looks each entry up in its report
by name, raising `LookupError` when the report has none, prints one detail
per entry in row order from the entry's own `text` (the text
`VerificationReport.summary_lines` prints too), and passes the criterion
exactly when every printed entry passes.  Reports enter the memo in the
order the entries first name their runs, and that order is the key order of
the reports `run_suite` returns.

Criteria 10 and 11 integrate nothing: their rows hold a gap function and the
template of their one detail, formatted when the criterion runs, and they
pass when the worst gap is within `_ORACLE_TOL`.  They draw pseudo-random
metrics (and criterion 11 its scales) from a fixed SplitMix64 counter stream,
`_uniform`, which needs only numpy integer arithmetic: no `numpy.random`.
Each draw call has its own seed, so the first k draws of a geometry do not
depend on the draw count.  The gap functions evaluate the curvature kernels
and `flow_rhs` on whole columns of draws, one call per geometry (and per
flow kind), then take a gap per draw with `_max_entry_gap`.  The kernels use
only elementwise + - * /, so each draw's gap has the same bits as evaluating
that draw alone.  A NaN gap fails the criterion and names its geometry.
"""

from __future__ import annotations

from math import isnan
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from ._record import Record
from .analysis import VerificationReport, verify
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


class CriterionResult(Record):
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


class _Entry(NamedTuple):
    """One printed entry of a criterion.

    `form` is formatted with the entry's `name`, its measured `value`, the
    run's `geometry` name and the report's `blowup_time`.
    """

    run: tuple  # (geometry, flow, init, t_max)
    field: str  # "checks", "conserved", "monotone", "laws" or "termination"
    name: str
    form: str = "{name}: {value}"


def _each(run: tuple, field: str, *names: str) -> tuple[_Entry, ...]:
    return tuple(_Entry(run, field, name) for name in names)


class _Row(NamedTuple):
    key: str  # the criterion function is named criterion_<key>
    number: int
    name: str
    geometry: Geometry | None
    entries: tuple[_Entry, ...] = ()
    gaps: Callable[[], dict[Geometry, np.ndarray]] | None = None  # else the criterion prints its entries
    detail: str = ""  # the gaps' one detail, formatted with worst, geometry, oracle_draws, scaling_draws and tol


def _evaluate(row: _Row, runs: dict) -> CriterionResult:
    if row.gaps is not None:
        worst, worst_geom = _worst_gap(row.gaps())
        detail = row.detail.format(worst=worst, geometry=worst_geom or "all zero", oracle_draws=_ORACLE_DRAWS,
                                   scaling_draws=_SCALING_DRAWS, tol=_ORACLE_TOL)
        return CriterionResult(row.number, row.name, worst <= _ORACLE_TOL, (detail,))
    flags, details = [], []
    for entry in row.entries:
        rep = _report(runs, *entry.run)
        if entry.field == "termination":
            value = rep.termination["kind"]
            flags.append(value == entry.name)
        else:
            item = next((x for x in getattr(rep, entry.field) if x.name == entry.name), None)
            if item is None:
                raise LookupError(f"report has no {entry.field} entry {entry.name!r} for run {entry.run}")
            value = item.text
            flags.append(item.passed)
        details.append(entry.form.format(
            name=entry.name, value=value, geometry=entry.run[0].value, blowup_time=rep.blowup_time
        ))
    return CriterionResult(row.number, row.name, all(flags), tuple(details))


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
    return {geom: _oracle_gap(geom, _ORACLE_SEED + k) for k, geom in enumerate(Geometry)}


def _oracle_gap(geom: Geometry, seed: int) -> np.ndarray:
    """One geometry's `_oracle_gaps` entry; its draws are freed on return, before the next geometry draws."""
    m = _random_metrics(seed, _ORACLE_DRAWS)
    direct = cross_curvature_diag(geom, m)
    via_k = cross_from_sectional(m, sectional_curvatures(geom, m))
    return _max_entry_gap(via_k, direct)


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


_SINGULAR = TerminationKind.SINGULAR_TIME.value
_CLOSED = "closed form (t <= 0.99 T0)"
_NIL = (Geometry.HEISENBERG, XCF_MINUS, (1.0, 1.0, 1.0), 100.0)
_SOL_SYM = (Geometry.SOL, XCF_MINUS, (1.0, 8.0, 1.0), 10.0)
_SOL_GEN = (Geometry.SOL, XCF_MINUS, (2.0, 4.0, 1.0), 10.0)
_SU2_GEN = (Geometry.SU2, XCF_MINUS, (3.0, 2.0, 1.0), 10.0)
_SL2R_SYM = (Geometry.SL2R, XCF_MINUS, (1.0, 1.0, 1.0), 1.0e6)
_SL2R_GEN = (Geometry.SL2R, XCF_MINUS, (1.0, 2.0, 1.0), 10.0)
_E2_GEN = (Geometry.E2, XCF_MINUS, (2.0, 1.0, 1.0), 1.0e8)

_TABLE = (
    _Row("heisenberg_closed_form", 1, "nil closed form", Geometry.HEISENBERG, _each(_NIL, "checks", "closed form")),
    _Row("heisenberg_invariants", 2, "nil first integrals", Geometry.HEISENBERG,
         _each(_NIL, "conserved", "A^3*B", "A^3*C", "B/C")),
    _Row("sol_symmetric", 3, "sol symmetric collapse", Geometry.SOL, (
        _Entry(_SOL_SYM, "termination", _SINGULAR, "termination {value}"),
        _Entry(_SOL_SYM, "checks", "singular time = B0^2/64", "singular time {blowup_time!r} vs 1.0: {name}: {value}"),
        *_each(_SOL_SYM, "checks", "A=C locked", _CLOSED),
    )),
    _Row("sol_generic", 4, "sol generic blow-up laws", Geometry.SOL, (
        *_each(_SOL_GEN, "laws", "B", "A", "C", "A-C"),
        _Entry((Geometry.SOL, XCF_MINUS, (5.0, 4.0, 1.0), 10.0), "checks", "A-3C changes sign before the singular time"),
    )),
    _Row("su2", 5, "su2 collapse", Geometry.SU2, (
        _Entry((Geometry.SU2, XCF_MINUS, (2.0, 2.0, 2.0), 10.0), "checks", _CLOSED, "round: {name}: {value}"),
        _Entry(_SU2_GEN, "termination", _SINGULAR, "generic termination {value}"),
        _Entry(_SU2_GEN, "checks", "A/C -> 1", "generic {name}: {value}"),
        _Entry(_SU2_GEN, "laws", "A", "generic {name}: {value}"),
    )),
    _Row("sl2r_symmetric", 6, "sl2r symmetric pancake", Geometry.SL2R, (
        _Entry(_SL2R_SYM, "checks", "B=C locked"),
        _Entry(_SL2R_SYM, "laws", "B"),
        _Entry(_SL2R_SYM, "checks", "B coefficient = (24 Ainf)^(1/3)"),
        _Entry(_SL2R_SYM, "monotone", "4/A+1/B decreasing"),
        _Entry(_SL2R_SYM, "checks", "d/dt(A^9 B^3) = 24 A^10 (trapezoid)"),
    )),
    _Row("sl2r_generic", 7, "sl2r generic blow-up laws", Geometry.SL2R, (
        _Entry(_SL2R_GEN, "checks", "F1<0 and F2<0 entered and retained"),
        *_each(_SL2R_GEN, "laws", "C", "A", "B"),
        _Entry(_SL2R_GEN, "checks", "A/B -> 1"),
    )),
    _Row("e2", 8, "e2 cigar laws", Geometry.E2, (
        _Entry((Geometry.E2, XCF_MINUS, (3.0, 3.0, 1.0), 10.0), "checks", "exactly stationary", "flat: {name}: {value}"),
        *_each(_E2_GEN, "laws", "A-B", "C"),
        _Entry(_E2_GEN, "monotone", "(A-B)^2*C increasing"),
        *_each(_E2_GEN, "checks", "(A-B)^2*C settles over the last decade", "C coefficient = (8 E2/E1) sqrt(6)"),
    )),
    _Row("nxcf_volume", 9, "normalized flow preserves volume", None, tuple(
        _Entry((geom, NXCF, init, 2.0), "conserved", "A*B*C", "{geometry}: drift {value}")
        for geom, init in _NXCF_SEEDS.items()
    )),
    _Row("oracle_equivalence", 10, "product form matches principal-curvature oracle", None, gaps=_oracle_gaps,
         detail="worst max-entry-relative gap {worst:.3e} ({geometry}) over {oracle_draws} draws per geometry"
                " (tol {tol:.0e})"),
    _Row("scaling_law", 11, "velocity field scales inversely with the metric", None, gaps=_scaling_gaps,
         detail="worst relative gap {worst:.3e} ({geometry}) over {scaling_draws} (metric, scale) pairs per"
                " geometry and both flow kinds (tol {tol:.0e})"),
)


def _criterion(row: _Row):
    def criterion(runs: dict) -> CriterionResult:
        return _evaluate(row, runs)

    criterion.__name__ = criterion.__qualname__ = f"criterion_{row.key}"
    return criterion


# Each row's criterion is bound at module level under its __name__
# (criterion_heisenberg_closed_form, ..., criterion_scaling_law).
ALL_CRITERIA = tuple(map(_criterion, _TABLE))
globals().update((fn.__name__, fn) for fn in ALL_CRITERIA)


def criteria_for_geometry(geometry: Geometry) -> tuple:
    """Criteria specific to one geometry, plus the cross-geometry ones.

    Reads `ALL_CRITERIA` at call time and keeps the criteria whose table row
    names the geometry or none.
    """
    return tuple(fn for fn, row in zip(ALL_CRITERIA, _TABLE) if row.geometry in (geometry, None))


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
