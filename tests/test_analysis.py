"""Fitters, singular-time estimation, and the verification report."""

from __future__ import annotations

import random
from collections.abc import Callable
from itertools import product
from math import log10
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcflow import (
    Geometry,
    IntegratorOptions,
    MetricDiag,
    Termination,
    TerminationKind,
    Trajectory,
    XCF_MINUS,
    XCF_PLUS,
    estimate_blowup_time,
    estimate_limit_plus_power,
    fit_power_law,
    integrate,
    exact_solution,
    series_values,
    verify,
)
from xcflow import analysis
from xcflow.analysis import _SERIES
from xcflow.analytic import (
    REGIME_BLOWUP,
    REGIME_INFINITY,
    BranchCheck,
    branch_record,
    classify_branch,
    conserved_quantities,
    singular_time,
)
from xcflow.flows import FLOWS


# ---------------------------------------------------------------------------
# Named series


def test_series_values_names():
    S = np.array([[2.0, 4.0, 1.0], [3.0, 5.0, 2.0]])
    assert np.array_equal(series_values(S, "A"), [2.0, 3.0])
    assert np.array_equal(series_values(S, "A-C"), [1.0, 1.0])
    assert np.array_equal(series_values(S, "B/C"), [4.0, 2.5])
    assert np.array_equal(series_values(S, "A-3C"), [-1.0, -3.0])
    assert np.array_equal(series_values(S, "(A-B)^2*C"), [4.0, 8.0])
    assert np.array_equal(series_values(S, "A^3*B"), [32.0, 135.0])
    assert np.array_equal(series_values(S, "4/A+1/B"), [2.25, 4.0 / 3.0 + 0.2])
    with pytest.raises(ValueError, match="unknown series"):
        series_values(S, "A**2")


def test_series_values_accepts_trajectories(sol_symmetric_run):
    direct = series_values(sol_symmetric_run.states, "A-C")
    assert np.array_equal(series_values(sol_symmetric_run, "A-C"), direct)


# ---------------------------------------------------------------------------
# Power-law fitter on synthetic data (exact model recovery)


class _ModelTable(NamedTuple):
    """A stand-in step table: scale exponent k = 0, and `eval` gives the model's rows at the times asked for."""

    model: Callable[[np.ndarray], np.ndarray]
    k: int = 0

    def eval(self, t: np.ndarray) -> np.ndarray:
        v = self.model(t)
        return np.column_stack([v, v, v])


def _synthetic(model: Callable[[np.ndarray], np.ndarray], kind: TerminationKind, t_stop: float) -> Trajectory:
    """A run whose three coefficients all follow the series model(t), stopped by `kind` at t_stop.

    Fit windows draw their rows from the run's step table, so the model is
    that table; the emitted grid is one placeholder row at t_stop, which no
    fit reads.
    """
    return Trajectory(
        Geometry.SOL, XCF_MINUS, MetricDiag(1, 1, 1), IntegratorOptions(), np.array([t_stop]), np.ones((1, 3)),
        Termination(kind, t_stop), _ModelTable(model),
    )


_SINGULAR, _REACHED = TerminationKind.SINGULAR_TIME, TerminationKind.REACHED_T_MAX


def test_fit_recovers_sqrt_collapse():
    t0 = 1.0
    fit = fit_power_law(_synthetic(lambda t: 8.0 * np.sqrt(t0 - t), _SINGULAR, t0), "A", REGIME_BLOWUP)
    assert fit.exponent == pytest.approx(0.5, abs=1e-9)
    assert fit.coefficient == pytest.approx(8.0, rel=1e-9)
    assert fit.r2 > 0.999999


@settings(max_examples=120, deadline=None)
@given(
    st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
    st.floats(min_value=-2.0, max_value=2.0),
    st.booleans(),
)
def test_fit_recovers_synthetic_power_laws(coeff, p, blowup_mode):
    if blowup_mode:
        t0 = 2.0
        fit = fit_power_law(_synthetic(lambda t: coeff * (t0 - t) ** p, _SINGULAR, t0), "A", REGIME_BLOWUP)
    else:
        fit = fit_power_law(_synthetic(lambda t: coeff * t**p, _REACHED, 1e3), "A", REGIME_INFINITY)
    assert fit.exponent == pytest.approx(p, abs=max(1e-6, 1e-6 * abs(p)))
    assert fit.coefficient == pytest.approx(coeff, rel=1e-6)


def test_fit_rejects_bad_windows():
    with pytest.raises(ValueError, match="non-positive"):
        fit_power_law(_synthetic(lambda t: np.sqrt(t) - 2.0, _REACHED, 10.0), "A", REGIME_INFINITY)
    with pytest.raises(ValueError, match="unknown regime"):
        fit_power_law(_synthetic(np.sqrt, _REACHED, 10.0), "A", "late")
    with pytest.raises(ValueError, match="singular time"):
        fit_power_law(_synthetic(np.sqrt, _REACHED, 10.0), "A", REGIME_BLOWUP)


def test_fit_power_law_requires_matching_termination(sol_symmetric_run):
    with pytest.raises(ValueError, match="horizon"):
        fit_power_law(sol_symmetric_run, "B", REGIME_INFINITY)


# ---------------------------------------------------------------------------
# Limit-plus-power fitter


def test_limit_fit_recovers_synthetic_model():
    run = _synthetic(lambda t: 2.0 + 0.5 * t ** (-1.0 / 3.0), _REACHED, 1e4)
    fit = estimate_limit_plus_power(run, "A", -1.0 / 3.0)
    assert fit.limit == pytest.approx(2.0, rel=1e-6)
    assert fit.coefficient == pytest.approx(0.5, rel=1e-6)


def test_limit_fit_rejects_non_monotone_window():
    def wavy(t):
        return 2.0 + 0.5 * t ** (-1.0 / 3.0) + 0.01 * np.sin(t)

    with pytest.raises(ValueError, match="monotone"):
        estimate_limit_plus_power(_synthetic(wavy, _REACHED, 1e4), "A", -1.0 / 3.0)


def test_limit_fit_requires_completed_run(sol_symmetric_run):
    with pytest.raises(ValueError, match="horizon"):
        estimate_limit_plus_power(sol_symmetric_run, "A", -1.0 / 3.0)


def test_sl2r_limit_extraction(sl2r_symmetric_run):
    fit = estimate_limit_plus_power(sl2r_symmetric_run, "A", -1.0 / 3.0)
    a_inf = fit.limit
    assert a_inf > 0.0
    # tail-rate coefficient ~ Ainf^(5/3) / (8 * 3^(1/3)) within 10 percent
    want = a_inf ** (5.0 / 3.0) / (8.0 * 3.0 ** (1.0 / 3.0))
    assert fit.coefficient == pytest.approx(want, rel=0.10)
    # growth coefficient of B ~ (24 Ainf t)^(1/3) within 2 percent
    bfit = fit_power_law(sl2r_symmetric_run, "B", REGIME_INFINITY)
    assert bfit.exponent == pytest.approx(1.0 / 3.0, abs=0.01)
    assert bfit.coefficient == pytest.approx((24.0 * a_inf) ** (1.0 / 3.0), rel=0.02)


def test_a_limit_law_reports_its_limit_and_no_fitted_exponent(sl2r_symmetric_run, monkeypatch):
    # the exponent of a limit-form law is imposed, so the report states none
    [law] = [l for l in verify(sl2r_symmetric_run).laws if l.variable == "A"]
    assert law.passed and law.fitted_exponent is None and law.r2 is None
    assert law.fitted_limit > 0.0 and law.text == law.detail == f"limit={law.fitted_limit:.6g}"

    # an A-infinity that is not positive fails the law and both relations that read it, with A's detail
    real = analysis._limit_fit
    monkeypatch.setattr(analysis, "_limit_fit", lambda *args: real(*args)._replace(limit=-0.5))
    report = verify(sl2r_symmetric_run)
    [law] = [l for l in report.laws if l.variable == "A"]
    relations = [c for c in report.checks if "Ainf" in c.name]
    assert len(relations) == 2
    assert all(not e.passed and e.detail == "limit=-0.5" for e in (law, *relations))


def _lstsq_limit_fit(run: Trajectory, variable: str, exponent: float) -> tuple[float, float]:
    """Limit and coefficient of the late-time limit-form fit by a generic least-squares solve."""
    t, rows, _ = analysis._fit_window(run, REGIME_INFINITY)
    design = np.column_stack([np.ones_like(t), t**exponent])
    (limit, coeff), *_ = np.linalg.lstsq(design, series_values(rows, variable), rcond=None)
    return float(limit), float(coeff)


@pytest.mark.parametrize(
    "run_name, variable", [("sl2r_symmetric_run", "A"), ("e2_generic_run", "A+B")], ids=["sl2r", "e2"]
)
def test_limit_fits_are_the_closed_form_line_fit(run_name, variable, request, monkeypatch):
    # the two limit-form runs of `flow verify all` fit and pass without any LAPACK call
    run = request.getfixturevalue(run_name)
    reference = _lstsq_limit_fit(run, variable, -1.0 / 3.0)

    def no_lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    report = verify(run)
    assert report.passed
    [law] = [l for l in report.laws if l.variable == variable]
    assert law.passed and law.fitted_limit > 0.0
    fit = estimate_limit_plus_power(run, variable, -1.0 / 3.0)
    assert law.fitted_limit == fit.limit
    # the same least-squares problem, solved two ways: the limit to rounding
    assert fit.limit == pytest.approx(reference[0], rel=1e-14, abs=0.0)
    assert fit.coefficient == pytest.approx(reference[1], rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# Singular-time estimation


def test_blowup_time_on_trajectories(sol_symmetric_run, su2_round_run, heisenberg_unit_run):
    assert estimate_blowup_time(sol_symmetric_run) == pytest.approx(1.0, abs=1e-5)
    assert estimate_blowup_time(su2_round_run) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError, match="singular"):
        estimate_blowup_time(heisenberg_unit_run)


@pytest.mark.parametrize("samples", [48, 64, 100, 512])
@pytest.mark.parametrize(
    "geom, init",
    [
        (Geometry.SOL, (1, 8, 1)),
        (Geometry.SOL, (2, 4, 1)),
        (Geometry.SU2, (2, 2, 2)),
        (Geometry.SU2, (3, 2, 1)),
        (Geometry.SL2R, (1, 2, 1)),
    ],
)
def test_blowup_time_is_the_stop_time(geom, init, samples):
    # one singular-time rule at every sample count: the stepper's stop time
    m0 = MetricDiag(*init)
    traj = integrate(geom, XCF_MINUS, m0, IntegratorOptions(t_max=10.0, samples=samples))
    t_stop = traj.termination.t_stop
    assert estimate_blowup_time(traj) == t_stop == verify(traj).blowup_time
    t0 = singular_time(geom, m0)
    if t0 is not None:  # the two closed-form branches
        assert abs(t_stop - t0) / t0 <= 1e-12


# ---------------------------------------------------------------------------
# Trajectory-level fits (the numbers behind the acceptance runs)


def test_heisenberg_late_time_exponent(heisenberg_unit_run):
    fit = fit_power_law(heisenberg_unit_run, "B", REGIME_INFINITY)
    assert fit.exponent == pytest.approx(3.0 / 14.0, abs=0.005)
    afit = fit_power_law(heisenberg_unit_run, "A", REGIME_INFINITY)
    assert afit.exponent == pytest.approx(-1.0 / 14.0, abs=0.005)


def test_sol_generic_blowup_fits(sol_generic_run):
    bfit = fit_power_law(sol_generic_run, "B", REGIME_BLOWUP)
    assert bfit.exponent == pytest.approx(0.5, abs=0.02)
    assert bfit.coefficient == pytest.approx(8.0, rel=0.02)
    afit = fit_power_law(sol_generic_run, "A", REGIME_BLOWUP)
    assert afit.exponent == pytest.approx(-0.5, abs=0.02)
    gap = fit_power_law(sol_generic_run, "A-C", REGIME_BLOWUP)
    assert gap.exponent == pytest.approx(0.5, abs=0.05)


# ---------------------------------------------------------------------------
# verify(): reports


def test_verify_heisenberg_all_green(heisenberg_unit_run):
    report = verify(heisenberg_unit_run)
    assert report.passed
    assert report.branch == "global"
    assert not report.relabeled
    assert {c.name for c in report.conserved} == {"A^3*B", "A^3*C", "B/C"}
    assert all(c.observed <= 1e-9 for c in report.conserved)
    assert len(report.laws) == 3 and all(l.passed for l in report.laws)


def test_unfittable_entries_give_the_refusing_functions_message():
    # verify keeps no precondition of its own: a law or check that cannot be
    # fitted reports the message of the function that refused it, and each
    # window precondition has one message
    singular, horizon = "trajectory did not stop at a singular time", "trajectory did not reach its horizon"
    sol = verify(integrate(Geometry.SOL, XCF_MINUS, MetricDiag(1, 8, 1), IntegratorOptions(t_max=0.001)))
    assert sol.termination["kind"] == "reached_t_max"
    blowup = [l for l in sol.laws if l.regime == REGIME_BLOWUP]
    assert blowup and all(not l.passed for l in blowup)
    assert {l.detail for l in blowup} == {singular}
    [t0_check] = [c for c in sol.checks if c.name == "singular time = B0^2/64"]
    assert not t0_check.passed and t0_check.detail == singular

    m0 = MetricDiag(1, 1, 1)
    budget = verify(integrate(Geometry.SL2R, XCF_MINUS, m0, IntegratorOptions(t_max=1e6, max_steps=40)))
    assert budget.termination["kind"] == "step_budget_exhausted"
    limit_form = {law.variable for law in branch_record(Geometry.SL2R, XCF_MINUS, m0).laws if law.limit_form}
    limits = [l for l in budget.laws if l.variable in limit_form]
    assert limits and all(not l.passed for l in limits)
    assert {l.detail for l in limits} == {horizon}
    relations = [c for c in budget.checks if "Ainf" in c.name]
    assert len(relations) == 2 and all(not c.passed and c.detail == horizon for c in relations)

    e2 = verify(integrate(Geometry.E2, XCF_MINUS, MetricDiag(2, 1, 1), IntegratorOptions(t_max=1e8, max_steps=40)))
    assert e2.termination["kind"] == "step_budget_exhausted"
    late = [l for l in e2.laws if l.regime == REGIME_INFINITY]
    assert late and all(not l.passed for l in late)
    assert {l.detail for l in late} == {horizon}
    checks = {c.name: c for c in e2.checks}
    settle = checks["(A-B)^2*C settles over the last decade"]
    assert not settle.passed and settle.detail == horizon
    # the record's own check fails with the refusal too, it does not vanish
    named = checks["C coefficient = (8 E2/E1) sqrt(6)"]
    assert not named.passed and named.detail == horizon

    traj = integrate(Geometry.SU2, XCF_MINUS, MetricDiag(3, 2, 1), IntegratorOptions(t_max=0.001))
    with pytest.raises(ValueError) as refusal:
        analysis._fit_window(traj, REGIME_BLOWUP)
    [ratio] = [c for c in verify(traj).checks if c.name == "A/C -> 1"]
    assert not ratio.passed and ratio.detail == str(refusal.value) == singular

    # a run that stops before its first accepted step has T0 = 0 and an empty blow-up window
    traj = integrate(Geometry.SOL, XCF_MINUS, MetricDiag(2, 4, 1), IntegratorOptions(rtol=1e-200))
    assert traj.termination.kind is TerminationKind.SINGULAR_TIME and traj.termination.t_stop == 0.0
    with pytest.raises(ValueError) as refusal:
        analysis._fit_window(traj, REGIME_BLOWUP)
    empty = verify(traj).laws
    assert len(empty) == 4 and all(not l.passed for l in empty)
    assert {l.detail for l in empty} == {str(refusal.value)}
    # with no accepted step the SL(2,R) quadrature still runs, on the run's one row
    traj = integrate(Geometry.SL2R, XCF_MINUS, m0, IntegratorOptions(t_max=1e6, rtol=1e-200))
    assert traj._table is None
    [quadrature] = [c for c in verify(traj).checks if c.name == "d/dt(A^9 B^3) = 24 A^10 (trapezoid)"]
    assert quadrature.passed and quadrature.observed == 0.0


def test_window_entries_do_not_depend_on_samples():
    # fit windows draw their own rows from the run's dense output, and every
    # other entry reads the run's default grid drawn the same way, so the
    # whole report has the same bits, and passes, at any number of emitted samples
    runs = [
        (Geometry.SOL, (2, 4, 1), 10.0), (Geometry.SOL, (1, 4, 2), 10.0), (Geometry.SU2, (3, 2, 1), 10.0),
        (Geometry.SL2R, (1, 2, 1), 10.0), (Geometry.SL2R, (1, 1, 1), 1e6), (Geometry.E2, (2, 1, 1), 1e8),
        (Geometry.HEISENBERG, (1, 1, 1), 100.0),
    ]
    for geom, init, t_max in runs:
        reports = {}
        for samples in (2, 64, 448, 2048, 8192):
            options = IntegratorOptions(t_max=t_max, samples=samples)
            reports[samples] = verify(integrate(geom, XCF_MINUS, MetricDiag(*init), options)).to_dict()
            assert reports[samples]["passed"], (geom, init, samples)
        assert all(r == reports[2] for r in reports.values()), (geom, init)


def test_verify_is_idempotent(sol_generic_run):
    assert verify(sol_generic_run).to_dict() == verify(sol_generic_run).to_dict()


def test_verify_sl2r_generic_region_and_coefficient(sl2r_generic_run):
    report = verify(sl2r_generic_run)
    assert report.passed
    region = [c for c in report.checks if c.name.startswith("F1<0 and F2<0")]
    assert len(region) == 1 and region[0].passed
    claw = [l for l in report.laws if l.variable == "C"][0]
    assert claw.fitted_coefficient == pytest.approx(8.0, rel=0.03)


def test_verify_e2_flat_is_trivially_green():
    traj = integrate(Geometry.E2, XCF_MINUS, MetricDiag(3, 3, 1), IntegratorOptions(t_max=10.0))
    report = verify(traj)
    assert report.passed
    assert report.branch == "flat"
    stationary = [c for c in report.checks if c.name == "exactly stationary"]
    assert len(stationary) == 1 and stationary[0].passed
    assert report.laws == ()


def test_verify_relabels_mirrored_data():
    traj = integrate(Geometry.SOL, XCF_MINUS, MetricDiag(1, 4, 2), IntegratorOptions(t_max=10.0))
    report = verify(traj)
    assert report.relabeled
    assert report.passed


@pytest.mark.parametrize(
    "geometry, datum, twin, t_max",
    [  # a datum in canonical labels, its mirrored twin, and a horizon at which both reports pass
        (Geometry.SOL, (2.0, 4.0, 1.0), (1.0, 4.0, 2.0), 10.0),
        (Geometry.SL2R, (1.0, 2.0, 1.0), (1.0, 1.0, 2.0), 10.0),
        (Geometry.E2, (2.0, 1.0, 1.0), (1.0, 2.0, 1.0), 1e8),
    ],
    ids=lambda v: getattr(v, "value", None),
)
def test_mirrored_twins_get_reports_with_the_same_entries(geometry, datum, twin, t_max):
    reports = [verify(integrate(geometry, XCF_MINUS, MetricDiag(*m0), IntegratorOptions(t_max=t_max))) for m0 in (datum, twin)]
    assert [r.relabeled for r in reports] == [False, True]
    assert [e.name for e in reports[1].entries] == [e.name for e in reports[0].entries]
    assert reports[0].passed and reports[1].passed


def test_verify_normalized_flow_checks_volume_only(nxcf_heisenberg_run):
    report = verify(nxcf_heisenberg_run)
    assert report.passed
    assert [c.name for c in report.conserved] == ["A*B*C"]
    assert report.laws == () and report.monotone == ()


def test_report_serialization(sol_symmetric_run):
    report = verify(sol_symmetric_run)
    d = report.to_dict()
    assert d["passed"] is True
    assert d["geometry"] == "sol" and d["flow"] == "xcf-"
    assert d["branch"] == "symmetric"
    assert d["termination"]["kind"] == "singular_time"
    assert d["blowup_time"] == pytest.approx(1.0, abs=1e-5)
    for key in ("conserved", "monotone", "laws", "checks"):
        assert isinstance(d[key], list)
    lines = report.summary_lines()
    assert lines and all(isinstance(s, str) for s in lines)
    assert "passed=True" in lines[0]


@pytest.mark.parametrize("geom", list(Geometry), ids=lambda g: g.value)
def test_a_report_with_no_entry_is_unchecked_not_passed(geom):
    # xcf+ has no branch record and no conserved quantity yet: a report that
    # checked nothing must not read as a pass
    report = verify(integrate(geom, XCF_PLUS, MetricDiag(2, 4, 1), IntegratorOptions(t_max=1.0)))
    assert (report.conserved, report.monotone, report.laws, report.checks) == ((), (), (), ())
    assert report.passed is None
    assert report.to_dict()["passed"] is None
    assert "passed=unchecked" in report.summary_lines()[0]


def _records():
    """The branch record of every geometry, flow and initial datum with coefficients from {1, 2, 3}.

    The data hold all six orderings of distinct values and every tie pattern.
    """
    inits = [MetricDiag(*c) for c in product((1.0, 2.0, 3.0), repeat=3)]
    return [(geometry, spec, m0, branch_record(geometry, spec, m0)) for geometry, spec, m0 in product(Geometry, FLOWS.values(), inits)]


def test_every_catalog_series_name_resolves():
    """Every name the records or the conserved quantities can ask `verify` for is a known series."""
    names = set()
    ratio_series = set()
    for geometry, spec, m0, record in _records():
        names.update(name for name, _ in conserved_quantities(geometry, spec, m0))
        names.update(name for name, _ in record.monotone)
        names.update(law.variable for law in record.laws)
        ratio_series.update(c.series for c in record.checks if c.kind == "ratio_limit")
        names.update(c.series for c in record.checks if c.series)
    assert ratio_series == {"A/C", "A/B"}  # "A/C -> 1" (SU(2)), "A/B -> 1" (SL(2,R))
    S = np.array([[2.0, 3.0, 5.0], [3.0, 5.0, 7.0]])
    for name in sorted(names):
        assert series_values(S, name).shape == (2,), name
    assert names == set(_SERIES)  # and the table holds no name nobody asks for


def test_every_check_kind_a_record_states_has_a_handler():
    # each check gives exactly one report entry, also when the step budget
    # runs out and every window refuses
    kinds = set()
    for geometry, spec, m0, record in _records():
        kinds.update(check.kind for check in record.checks)
        for options in (IntegratorOptions(t_max=0.01, samples=64), IntegratorOptions(t_max=1e6, max_steps=20, samples=64)):
            report = verify(integrate(geometry, spec, m0, options))  # raises on an unhandled kind
            assert [c.name for c in report.checks] == [c.name for c in record.checks], (geometry, spec.name, m0)
    assert kinds == {
        "termination", "closed_form", "lock", "singular_time", "ratio_limit", "sign_change", "trapping",
        "stationary", "quadrature", "pancake_coefficient", "pancake_tail_rate", "settle", "cigar_coefficient",
    }


def test_a_check_of_unknown_kind_raises(sol_symmetric_run, monkeypatch):
    real = analysis.branch_record

    def with_unknown_kind(geometry, spec, m0):
        record = real(geometry, spec, m0)
        return record._replace(checks=record.checks + (BranchCheck("no_such_kind", "bogus check"),))

    monkeypatch.setattr(analysis, "branch_record", with_unknown_kind)
    with pytest.raises(ValueError, match="unknown branch check kind 'no_such_kind'"):
        verify(sol_symmetric_run)


@pytest.mark.parametrize(
    "geom, init, column, name",
    [
        (Geometry.SOL, (1, 8, 1), 0, "A=C locked"),
        (Geometry.SL2R, (1, 1, 1), 2, "B=C locked"),
        (Geometry.SU2, (2, 2, 2), 1, "A=B=C locked"),
    ],
)
def test_a_planted_lock_break_fails_the_lock(geom, init, column, name):
    traj = integrate(geom, XCF_MINUS, MetricDiag(*init), IntegratorOptions(t_max=10.0))
    lock = {c.name: c for c in verify(traj).checks}[name]
    assert lock.passed and lock.observed == 0.0
    states = traj.states.copy()
    states[len(states) // 2, column] *= 1.0 + 1e-8  # one entry off by 1e-8 relative
    broken = {c.name: c for c in verify(traj._replace(states=states)).checks}[name]
    assert not broken.passed
    assert broken.observed == pytest.approx(1e-8, rel=1e-6)


# ---------------------------------------------------------------------------
# One closed form per branch: bitwise the expressions `verify` evaluated inline


def _inline_closed_form(geom, branch, m0, t):
    """(T0, kept rows, exact columns) as `_branch_checks` computed them inline; None without a closed form."""
    if geom is Geometry.HEISENBERG:
        r0 = -2.0 * m0.A / (m0.B * m0.C)
        w = 1.0 + 7.0 * r0 * r0 * t
        exact = np.column_stack(
            [m0.A * w ** (-1.0 / 14.0), m0.B * w ** (3.0 / 14.0), m0.C * w ** (3.0 / 14.0)]
        )
        return None, slice(None), exact
    if geom is Geometry.SOL and branch == "symmetric":
        t0e = m0.B * m0.B / 64.0
        mask = t <= 0.99 * t0e
        b = np.sqrt(m0.B * m0.B - 64.0 * t[mask])
        a = m0.A * m0.B / b
        return t0e, mask, np.column_stack([a, b, a])
    if geom is Geometry.SU2 and branch == "round":
        t0e = m0.A * m0.A / 4.0
        mask = t <= 0.99 * t0e
        s = np.sqrt(m0.A * m0.A - 4.0 * t[mask])
        return t0e, mask, np.column_stack([s, s, s])
    return None


def _inline_expect_singular(geom, branch):
    """The singular-branch list `verify` stated before it read the asymptotic catalog."""
    return geom in (Geometry.SOL, Geometry.SU2) or (geom is Geometry.SL2R and branch == "generic")


# every geometry and branch, canonical and mirrored orderings, integer and float data
_BRANCH_RUNS = [
    (Geometry.HEISENBERG, (1, 1, 1), 100.0),
    (Geometry.HEISENBERG, (1.25, 0.5, 2.0), 10.0),
    (Geometry.HEISENBERG, (3.1, 2.7, 0.55), 10.0),
    (Geometry.SOL, (1, 8, 1), 10.0),
    (Geometry.SOL, (2.5, 3.0, 2.5), 10.0),
    (Geometry.SOL, (2, 4, 1), 10.0),
    (Geometry.SOL, (1, 4, 2), 10.0),
    (Geometry.SOL, (5, 4, 1), 10.0),
    (Geometry.SU2, (2, 2, 2), 10.0),
    (Geometry.SU2, (0.7, 0.7, 0.7), 10.0),
    (Geometry.SU2, (3, 2, 1), 10.0),
    (Geometry.SU2, (1, 2, 3), 10.0),
    (Geometry.SL2R, (1, 1, 1), 1e3),
    (Geometry.SL2R, (1, 2, 1), 10.0),
    (Geometry.SL2R, (1, 1, 2), 10.0),
    (Geometry.E2, (2, 1, 1), 1e3),
    (Geometry.E2, (1, 2, 1), 1e3),
    (Geometry.E2, (2, 2, 5), 10.0),
    (Geometry.TRIVIAL, (1, 2, 3), 10.0),
]


@pytest.mark.parametrize(
    "geom, init, t_max", _BRANCH_RUNS, ids=[f"{g.value}-{i}" for g, i, _ in _BRANCH_RUNS]
)
def test_branch_facts_are_bitwise_the_inline_expressions(geom, init, t_max):
    m0 = MetricDiag(*init)
    traj = integrate(geom, XCF_MINUS, m0, IntegratorOptions(t_max=t_max))
    t = traj.times
    branch = classify_branch(geom, m0)
    reference = _inline_closed_form(geom, branch, m0, t)
    report = verify(traj)
    checks = {c.name: c for c in report.checks}
    if reference is None:
        assert singular_time(geom, m0) is None
        assert exact_solution(geom, m0, t) is None
        assert not any(name.startswith("closed form") for name in checks)
    else:
        t0e, keep, want = reference
        assert singular_time(geom, m0) == t0e
        got = exact_solution(geom, m0, t[keep])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        name = "closed form" if t0e is None else "closed form (t <= 0.99 T0)"
        observed = float(np.max(np.abs(traj.states[keep] - want) / want))
        assert checks[name].observed == observed
    catalog = branch_record(geom, XCF_MINUS, m0).laws
    expect_singular = _inline_expect_singular(geom, branch)
    assert any(law.regime == REGIME_BLOWUP for law in catalog) == expect_singular
    detail = checks["termination matches branch"].detail
    assert detail.startswith(f"expected {'singular' if expect_singular else 'complete'},")


# ---------------------------------------------------------------------------
# Monotone checks of a difference ignore the rounding of its operands

_NEAR_SYMMETRIC_SOL = MetricDiag(2.5, 2.001, 2.523)


def test_difference_steps_within_the_rounding_floor_are_ignored():
    # the floor's derivation, by hand: 2 * (2 * 4.5 + 2 * 14.01 + 3.5) + 2 = 83.04 spacings, rounded up
    assert analysis.ROUNDING_SPACINGS == 84
    n = analysis.ROUNDING_SPACINGS
    big, spacing = 2.0**20, 2.0**-32  # every operand below lies in [2^20, 2^21)
    a = [big + 2.0**-20, big + 2.0**-21, big + 2.0**-21 + n * spacing]  # A-C falls, then rises by n spacings
    states = np.array([[ai, 1.0, big] for ai in a])
    values = series_values(states, "A-C")
    floor = analysis._rounding_floor(states, "A-C")
    assert floor.tolist() == [n * spacing, n * spacing]
    assert analysis._monotone_violation(values, "decreasing") > 0.0
    assert analysis._monotone_violation(values, "decreasing", floor) == 0.0  # n spacings the wrong way
    states[2, 0] += spacing  # now n + 1
    assert analysis._monotone_violation(series_values(states, "A-C"), "decreasing", floor) > 0.0
    assert analysis._rounding_floor(states, "A-3C").tolist() == [2 * n * spacing, 2 * n * spacing]
    assert analysis._rounding_floor(states, "A/C") is None and analysis._rounding_floor(states, "C") is None


def test_no_source_file_names_long_double():
    # the rows, and the floor derived from their operations, are float64 on every platform
    sources = sorted(Path(analysis.__file__).parent.glob("*.py"))
    assert sources and [p.name for p in sources if "longdouble" in p.read_text()] == []


def test_np_exp_is_within_one_ulp_as_the_rounding_floor_assumes():
    # against the long-double exp, on the exponents a row can take: |h * theta * P(theta)| <= 1/2
    x = np.linspace(-0.5, 0.5, 100_001)
    got = np.exp(x)
    err = np.abs(got.astype(np.longdouble) - np.exp(x.astype(np.longdouble))) / np.spacing(got)
    assert float(err.max()) < 1.0


def test_near_symmetric_sol_passes_its_monotone_checks():
    # C0 > A0, so the difference A-C of the canonical labels is C-A in the run's; it steps the
    # wrong way by a few spacings of A ~ 1e6 near the singular time, inside the floor
    report = verify(integrate(Geometry.SOL, XCF_MINUS, _NEAR_SYMMETRIC_SOL, IntegratorOptions(t_max=10.0)))
    assert report.passed
    assert [c.observed for c in report.monotone if c.name == "A-C decreasing"] == [0.0]


def _near_symmetric_sol_data(count):
    """Seeded Sol data with C just below A: A, B uniform in [1, 4], C = A/(1+g), g log-uniform in [1e-4, 3e-2]."""
    rng = random.Random(7)
    data = []
    for _ in range(count):
        a, b, g = rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0), 10.0 ** rng.uniform(-4.0, log10(3e-2))
        data.append((a, b, a / (1.0 + g)))
    return data


def test_near_symmetric_sol_sweep_passes_its_difference_checks():
    # the floor covers the rows' rounding: every difference stays monotone, in both labels, under one name
    for datum in _near_symmetric_sol_data(40):
        for m0 in (datum, datum[::-1]):
            report = verify(integrate(Geometry.SOL, XCF_MINUS, MetricDiag(*m0), IntegratorOptions(t_max=10.0)))
            differences = [c for c in report.monotone if c.name.startswith(("A-C ", "C-A "))]
            assert [c.name for c in differences] == ["A-C decreasing"] and differences[0].passed, (m0, differences)
            assert report.passed, m0


def _difference_check(traj, states):
    """The entry "A-C decreasing" of a run with C0 > A0, whose A-C is C-A in the run's labels."""
    report = verify(traj._replace(states=states))
    return next(c for c in report.monotone if c.name == "A-C decreasing")


def test_planted_wrong_way_step_of_a_difference_still_fails():
    traj = integrate(Geometry.SOL, XCF_MINUS, _NEAR_SYMMETRIC_SOL, IntegratorOptions(t_max=10.0))
    v = traj.states[:, 2] - traj.states[:, 0]
    # early, where A ~ 10 and its spacing is far below the slack: C-A rises by 2e-9 of its scale
    states = np.array(traj.states)
    i = int(np.argmax(states[:, 0] > 10.0))
    states[i + 1:, 2] += (v[i] - v[i + 1]) + 2e-9 * np.max(np.abs(v))
    check = _difference_check(traj, states)
    assert not check.passed and check.observed == pytest.approx(2e-9, rel=1e-3)
    # at the last sample, where A ~ 7e6 and the floor is largest: C rises by 1e-9 of itself
    states = np.array(traj.states)
    states[-1, 2] *= 1.0 + 1e-9
    assert not _difference_check(traj, states).passed
