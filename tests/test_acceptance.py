"""Acceptance gate: every headline quantitative claim, one pass/fail line each.

Each criterion runs the relevant flows (a run shared by criteria of one suite
is integrated once per suite) and checks closed forms, conserved quantities, fitted exponents/coefficients,
and structural facts at their stated tolerances.  `pytest -v -s` shows one
line per criterion.
"""

from __future__ import annotations

import json
import re
import weakref

import numpy as np
import pytest

from xcflow import acceptance, cli
from xcflow.acceptance import CriterionResult
from xcflow.analysis import verify
from xcflow.flows import NXCF, XCF_MINUS, RhsTriple, flow_rhs
from xcflow.geometry import (
    CrossDiag,
    Geometry,
    MetricDiag,
    cross_curvature_diag,
    cross_from_sectional,
    sectional_curvatures,
)
from xcflow.integrator import IntegratorOptions, TerminationKind, integrate


@pytest.mark.parametrize(
    "criterion",
    acceptance.ALL_CRITERIA,
    ids=[fn.__name__.removeprefix("criterion_") for fn in acceptance.ALL_CRITERIA],
)
def test_criterion(criterion):
    [result], _ = acceptance.run_suite([criterion])
    print(result.line())
    assert result.passed, result.line()


def test_verify_all_takes_at_most_1000_step_attempts(monkeypatch):
    # the 16 canonical runs of `flow verify all`; the Dormand-Prince 5(4)
    # stepper took 2,781 attempts on them, DOP853 takes 818
    attempts = []
    real_integrate = acceptance.integrate

    def counting_integrate(*args):
        traj = real_integrate(*args)
        attempts.append(traj.termination.n_accepted + traj.termination.n_rejected)
        return traj

    monkeypatch.setattr(acceptance, "integrate", counting_integrate)
    assert all(result.passed for result in acceptance.run_all())
    assert len(attempts) == 16
    assert sum(attempts) <= 1000


def test_full_suite_is_green():
    results = acceptance.run_all()
    assert len(results) == 11
    assert [r.number for r in results] == list(range(1, 12))
    for line in (r.line() for r in results):
        print(line)
    assert all(r.passed for r in results)


def test_every_criterion_is_the_criterion_of_one_table_row():
    # one table holds all eleven criteria, in order, each read by `_evaluate`:
    # a row prints its report entries or the one detail of its gap function
    assert [row.number for row in acceptance._TABLE] == list(range(1, 12))
    assert len(acceptance.ALL_CRITERIA) == len(acceptance._TABLE)
    for fn, row in zip(acceptance.ALL_CRITERIA, acceptance._TABLE):
        assert fn.__name__ == f"criterion_{row.key}"
        assert [cell.cell_contents for cell in fn.__closure__] == [row]
        assert (row.gaps is None) == bool(row.entries) == (row.detail == ""), row.number


# ---------------------------------------------------------------------------
# Criteria 1-9 pass exactly when every entry they print passes.  Each entry of
# each report a criterion reads is flipped in turn, in a wrapped `verify`: the
# criterion must fail when it prints that entry and pass when it does not
# (criterion 6 does not print the `A decreasing` entry of its run, say).  A
# termination entry is flipped by changing the run's termination kind.


def _entry_keys(report) -> list[tuple[str, str]]:
    keys = [("termination", report.termination["kind"])]
    keys += [("laws", law.variable) for law in report.laws]
    for field in ("conserved", "monotone", "checks"):
        keys += [(field, c.name) for c in getattr(report, field)]
    return keys


def _flipped(report, field: str, name: str):
    if field == "termination":
        return report._replace(termination={**report.termination, "kind": TerminationKind.STEP_BUDGET_EXHAUSTED.value})
    attr = "variable" if field == "laws" else "name"
    entries = tuple(e._replace(passed=False) if getattr(e, attr) == name else e for e in getattr(report, field))
    assert entries != getattr(report, field), (field, name)
    return report._replace(**{field: entries})


@pytest.fixture(scope="module")
def verified_runs() -> dict:
    """Integrate-call arguments -> (trajectory, report), filled once for the whole module."""
    return {}


@pytest.mark.parametrize(
    "criterion",
    acceptance.ALL_CRITERIA[:9],
    ids=[fn.__name__.removeprefix("criterion_") for fn in acceptance.ALL_CRITERIA[:9]],
)
def test_each_printed_entry_gates_its_criterion(monkeypatch, verified_runs, criterion):
    real_integrate, real_verify = acceptance.integrate, acceptance.verify
    used, flip = [], None  # flip: the trajectory, field and name of the entry to flip

    def memo_integrate(*args):
        if args not in verified_runs:
            traj = real_integrate(*args)
            verified_runs[args] = traj, real_verify(traj)
        used.append(verified_runs[args])
        return verified_runs[args][0]

    def flipping_verify(traj):
        report = next(rep for t, rep in verified_runs.values() if t is traj)
        return _flipped(report, *flip[1:]) if flip and flip[0] is traj else report

    monkeypatch.setattr(acceptance, "integrate", memo_integrate)
    monkeypatch.setattr(acceptance, "verify", flipping_verify)
    result = criterion({})
    assert result.passed, result.line()
    [row] = [row for row in acceptance._TABLE if row.number == result.number]
    printed = {(e.run, e.field, e.name) for e in row.entries}
    assert len(result.details) == len(row.entries)
    flips = 0
    for traj, report in used[:]:  # the runs of the first call; each flipped call appends its own
        run = (traj.geometry, traj.spec, (traj.m0.A, traj.m0.B, traj.m0.C), traj.options.t_max)
        for key in _entry_keys(report):
            flip = (traj, *key)
            flipped = criterion({})
            assert flipped.passed is ((run, *key) not in printed), (key, flipped.line())
            flips += not flipped.passed
    assert flips == len(printed)


def test_a_missing_entry_is_a_lookup_error():
    geometry, flow, init, t_max = run = acceptance._TABLE[1].entries[0].run
    report = verify(integrate(geometry, flow, MetricDiag(*init), IntegratorOptions(t_max=t_max)))
    trimmed = report._replace(conserved=tuple(c for c in report.conserved if c.name != "B/C"))
    with pytest.raises(LookupError, match=r"conserved.*'B/C'"):
        acceptance.criterion_heisenberg_invariants({run: trimmed})


def test_an_unfitted_law_prints_its_detail():
    # a law whose fit was refused has no exponent to print: the criterion
    # line and the report summary both print its detail and fail
    geometry, flow, init, t_max = run = acceptance._SOL_GEN
    report = verify(integrate(geometry, flow, MetricDiag(*init), IntegratorOptions(t_max=t_max)))
    planted = report._replace(laws=tuple(
        l._replace(fitted_exponent=None, passed=False, detail="planted: no fit") if l.variable == "B" else l
        for l in report.laws
    ))
    line = acceptance.criterion_sol_generic({run: planted}).line()
    assert line.startswith("[FAIL]") and "B: planted: no fit" in line
    assert "  law B: planted: no fit FAIL" in planted.summary_lines()


# The shape of each `flow verify all` line and the order of its runs, with
# every numeric token masked: changes to the stepper's output bits move the
# numbers, never the shape.  The margin regexes of the benchmark parse these lines.

_NUMBER = re.compile(r"(?<![\w^])[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?(?!\w)")

_MASKED_LINES = [
    "[PASS] criterion  # nil closed form: closed form: # (tol #)",
    "[PASS] criterion  # nil first integrals: A^3*B: # (tol #); A^3*C: # (tol #); B/C: # (tol #)",
    "[PASS] criterion  # sol symmetric collapse: termination singular_time; singular time # vs #: "
    "singular time = B0^2/#: # (tol #); A=C locked: # (tol #); closed form (t <= # T0): # (tol #)",
    "[PASS] criterion  # sol generic blow-up laws: B: exponent # vs # (tol #), coeff # vs #; "
    "A: exponent # vs # (tol #); C: exponent # vs # (tol #); A-C: exponent # vs # (tol #); "
    "A-3C changes sign before the singular time: min(A-3C)=#",
    "[PASS] criterion  # su2 collapse: round: closed form (t <= # T0): # (tol #); generic termination singular_time; "
    "generic A/C -> #: # (tol #); generic A: exponent # vs # (tol #), coeff # vs #",
    "[PASS] criterion  # sl2r symmetric pancake: B=C locked: # (tol #); B: exponent # vs # (tol #); "
    "B coefficient = (# Ainf)^(#/#): # (tol #); #/A+#/B decreasing: # (tol #); "
    "d/dt(A^9 B^3) = # A^10 (trapezoid): # (tol #)",
    "[PASS] criterion  # sl2r generic blow-up laws: F1<# and F2<# entered and retained: entered at t=#; "
    "C: exponent # vs # (tol #), coeff # vs #; A: exponent # vs # (tol #); B: exponent # vs # (tol #); "
    "A/B -> #: # (tol #)",
    "[PASS] criterion  # e2 cigar laws: flat: exactly stationary: # (tol #); A-B: exponent # vs # (tol #); "
    "C: exponent # vs # (tol #); (A-B)^2*C increasing: # (tol #); "
    "(A-B)^2*C settles over the last decade: # (tol #); C coefficient = (# E2/E1) sqrt(#): # (tol #)",
    "[PASS] criterion  # normalized flow preserves volume: heisenberg: drift # (tol #); sol: drift # (tol #); "
    "su2: drift # (tol #); sl2r: drift # (tol #); e2: drift # (tol #); trivial: drift # (tol #)",
    "[PASS] criterion # product form matches principal-curvature oracle: "
    "worst max-entry-relative gap # (sol) over # draws per geometry (tol #)",
    "[PASS] criterion # velocity field scales inversely with the metric: "
    "worst relative gap # (sl2r) over # (metric, scale) pairs per geometry and both flow kinds (tol #)",
]

_REPORT_LABELS = [
    "heisenberg xcf- init=(1,1,1) t_max=100",
    "sol xcf- init=(1,8,1) t_max=10",
    "sol xcf- init=(2,4,1) t_max=10",
    "sol xcf- init=(5,4,1) t_max=10",
    "su2 xcf- init=(2,2,2) t_max=10",
    "su2 xcf- init=(3,2,1) t_max=10",
    "sl2r xcf- init=(1,1,1) t_max=1e+06",
    "sl2r xcf- init=(1,2,1) t_max=10",
    "e2 xcf- init=(3,3,1) t_max=10",
    "e2 xcf- init=(2,1,1) t_max=1e+08",
    "heisenberg nxcf init=(1,2,3) t_max=2",
    "sol nxcf init=(2,4,1) t_max=2",
    "su2 nxcf init=(3,2,1) t_max=2",
    "sl2r nxcf init=(1,2,1) t_max=2",
    "e2 nxcf init=(2,1,1) t_max=2",
    "trivial nxcf init=(1,2,3) t_max=2",
]

_GEOMETRY_SUITES = {
    Geometry.HEISENBERG: [1, 2, 9, 10, 11],
    Geometry.SOL: [3, 4, 9, 10, 11],
    Geometry.SU2: [5, 9, 10, 11],
    Geometry.SL2R: [6, 7, 9, 10, 11],
    Geometry.E2: [8, 9, 10, 11],
    Geometry.TRIVIAL: [9, 10, 11],
}


def test_verify_all_line_shapes_run_order_and_suites(capsys, tmp_path):
    out_path = tmp_path / "verify.json"
    assert cli.main(["verify", "all", "--output", str(out_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [_NUMBER.sub("#", line) for line in lines] == _MASKED_LINES
    assert list(json.loads(out_path.read_text())["reports"]) == _REPORT_LABELS
    numbers = {fn: number for number, fn in enumerate(acceptance.ALL_CRITERIA, start=1)}
    for geometry, want in _GEOMETRY_SUITES.items():
        assert [numbers[fn] for fn in acceptance.criteria_for_geometry(geometry)] == want, geometry


# ---------------------------------------------------------------------------
# Criteria 10 and 11 evaluate the kernels on columns of draws.  The reference
# below is the per-draw loop they replaced, one MetricDiag per draw; it must
# give every draw's gap with the same bits and the same result lines.


def _row_gap(got: np.ndarray, want: np.ndarray) -> float:
    gap = float(np.max(np.abs(got - want)))
    scale = float(np.max(np.abs(want)))
    return gap / scale if scale != 0.0 else gap


def _reference_oracle() -> tuple[CriterionResult, dict]:
    n, tol = acceptance._ORACLE_DRAWS, acceptance._ORACLE_TOL
    worst, worst_geom, gaps = 0.0, "", {}
    for k, geom in enumerate(Geometry):
        u = acceptance._uniform(acceptance._ORACLE_SEED + k, 3 * n)
        draws = 10.0 ** (-2.0 + 4.0 * u.reshape(n, 3))
        row_gaps = []
        for row in draws:
            m = MetricDiag(*row)
            direct = np.array(cross_curvature_diag(geom, m))
            via_k = np.array(cross_from_sectional(m, sectional_curvatures(geom, m)))
            err = _row_gap(via_k, direct)
            row_gaps.append(err)
            if err > worst:
                worst, worst_geom = err, geom.value
        gaps[geom] = np.array(row_gaps)
    result = CriterionResult(
        10,
        "product form matches principal-curvature oracle",
        worst <= tol,
        (f"worst max-entry-relative gap {worst:.3e} ({worst_geom or 'all zero'}) over "
         f"{n} draws per geometry (tol {tol:.0e})",),
    )
    return result, gaps


def _reference_scaling() -> tuple[CriterionResult, dict]:
    n, tol = acceptance._SCALING_DRAWS, acceptance._ORACLE_TOL
    worst, worst_geom, gaps = 0.0, "", {}
    for k, geom in enumerate(Geometry):
        seed = acceptance._SCALING_SEED + 2 * k
        draws = 10.0 ** (-2.0 + 4.0 * acceptance._uniform(seed, 3 * n).reshape(n, 3))
        lams = 10.0 ** (-3.0 + 6.0 * acceptance._uniform(seed + 1, n))
        row_gaps = np.empty((2, n))
        for i, (row, lam) in enumerate(zip(draws, lams)):
            m = MetricDiag(*row)
            for k, spec in enumerate((XCF_MINUS, NXCF)):
                base = np.array(flow_rhs(geom, m, spec))
                scaled = np.array(flow_rhs(geom, m.scaled(lam), spec))
                err = _row_gap(scaled, base / lam)
                row_gaps[k, i] = err
                if err > worst:
                    worst, worst_geom = err, geom.value
        gaps[geom] = row_gaps
    result = CriterionResult(
        11,
        "velocity field scales inversely with the metric",
        worst <= tol,
        (f"worst relative gap {worst:.3e} ({worst_geom or 'all zero'}) over "
         f"{n} (metric, scale) pairs per geometry and both flow kinds (tol {tol:.0e})",),
    )
    return result, gaps


_COLUMN_CASES = [
    (acceptance.criterion_oracle_equivalence, acceptance._oracle_gaps, _reference_oracle),
    (acceptance.criterion_scaling_law, acceptance._scaling_gaps, _reference_scaling),
]


@pytest.mark.parametrize("draws", [300, None], ids=["300-draws", "full-size"])
@pytest.mark.parametrize("criterion, column_gaps, reference", _COLUMN_CASES, ids=["10", "11"])
def test_column_criteria_match_per_draw_reference(monkeypatch, draws, criterion, column_gaps, reference):
    if draws is not None:
        monkeypatch.setattr(acceptance, "_ORACLE_DRAWS", draws)
        monkeypatch.setattr(acceptance, "_SCALING_DRAWS", draws)
    want_result, want_gaps = reference()
    got_gaps = column_gaps()
    assert list(got_gaps) == list(Geometry)
    for geom in Geometry:
        got, want = got_gaps[geom], want_gaps[geom]
        assert got.shape == want.shape and got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), geom
    assert criterion({}) == want_result


# The draws come from a SplitMix64 counter stream.  The reference is the
# generator in Python integers: counter c = (seed << 32) + i, the finalizer
# applied to c times the golden gamma modulo 2**64, and the top 53 bits.

_MASK64 = (1 << 64) - 1


def _splitmix_draw(seed: int, i: int) -> float:
    z = (((seed << 32) + i) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


# The first call of each criterion: criterion 10's for its first geometry, and
# criterion 11's metric call for its first geometry.
_FIRST_DRAWS = [
    (acceptance._ORACLE_SEED, [0.43702265703034826, 0.5232609493582604, 0.44091755798820287, 0.8244275953138898]),
    (acceptance._SCALING_SEED, [0.6082353652178495, 0.9781366728879198, 0.6857982361785842, 0.8200589006140482]),
]


@pytest.mark.parametrize("seed, want", _FIRST_DRAWS, ids=["10", "11"])
def test_first_draws_of_each_criterion_are_pinned(seed, want):
    assert acceptance._uniform(seed, 4).tolist() == want
    assert [_splitmix_draw(seed, i) for i in range(4)] == want


def test_every_draw_of_both_criteria_lies_in_the_unit_interval():
    n10, n11 = acceptance._ORACLE_DRAWS, acceptance._SCALING_DRAWS
    calls = [(acceptance._ORACLE_SEED + k, 3 * n10) for k in range(len(Geometry))]
    calls += [(acceptance._SCALING_SEED + 2 * k, 3 * n11) for k in range(len(Geometry))]
    calls += [(acceptance._SCALING_SEED + 2 * k + 1, n11) for k in range(len(Geometry))]
    for seed, n in calls:
        u = acceptance._uniform(seed, n)
        assert u.shape == (n,) and u.dtype == np.float64
        assert np.all((u >= 0.0) & (u < 1.0)), seed
        assert np.array_equal(u * 2.0**53, np.floor(u * 2.0**53)), seed
        assert [_splitmix_draw(seed, i) for i in (0, 1, n // 2, n - 1)] == u[[0, 1, n // 2, n - 1]].tolist()


@pytest.mark.parametrize("column_gaps", [acceptance._oracle_gaps, acceptance._scaling_gaps], ids=["10", "11"])
def test_a_300_draw_call_is_a_prefix_of_the_full_size_call(monkeypatch, column_gaps):
    full = column_gaps()
    monkeypatch.setattr(acceptance, "_ORACLE_DRAWS", 300)
    monkeypatch.setattr(acceptance, "_SCALING_DRAWS", 300)
    short = column_gaps()
    for geom in Geometry:
        assert np.array_equal(short[geom].view(np.int64), full[geom][..., :300].view(np.int64)), geom
    for seed in (acceptance._ORACLE_SEED, acceptance._SCALING_SEED + 1):
        assert np.array_equal(acceptance._uniform(seed, 300), acceptance._uniform(seed, 30_000)[:300])


def test_oracle_draws_of_a_geometry_are_freed_before_the_next_geometry_draws(monkeypatch):
    # criterion 10 holds one geometry's 10,000 draws at a time; two
    # geometries' draws alive at once would set the peak memory of `flow verify all`
    real = acceptance._random_metrics
    draws = []
    alive_at_each_call = []

    def tracked(seed, n):
        alive_at_each_call.append([ref() is not None for ref in draws])
        m = real(seed, n)
        owner = m.A
        while owner.base is not None:  # the array that holds all 3n draws
            owner = owner.base
        assert owner.size == 3 * n
        draws.append(weakref.ref(owner))
        return m

    monkeypatch.setattr(acceptance, "_random_metrics", tracked)
    gaps = acceptance._oracle_gaps()
    assert list(gaps) == list(Geometry) and len(draws) == len(Geometry)
    assert alive_at_each_call == [[False] * k for k in range(len(Geometry))]
    assert all(ref() is None for ref in draws)


# Planted defects: one entry of one draw is wrong by a relative 1e-9 (a
# thousand times the tolerance), or one draw's value is NaN.  The criterion
# must fail and name the geometry; the gap must land on that draw alone, so
# an axis or broadcasting slip cannot make the column comparison vacuous.

_DRAW = 617  # below both draw counts


def _plant(columns, draw: int, value=None) -> tuple:
    """Copies of a triple of columns with the draw's largest entry changed.

    That entry is multiplied by 1 + 1e-9, or replaced by `value` if given.
    """
    cols = [np.array(c, dtype=float) for c in columns]
    j = int(np.argmax([abs(c[draw]) for c in cols]))
    cols[j][draw] = cols[j][draw] * (1.0 + 1e-9) if value is None else value
    return tuple(cols)


# A relative perturbation of TRIVIAL's zeros is no defect, so only NaN is
# planted there.
_PLANTS = [(g, None) for g in Geometry if g is not Geometry.TRIVIAL] + [(g, np.nan) for g in Geometry]
_PLANT_IDS = [f"{g.value}-{'nan' if v is not None else 'perturbed'}" for g, v in _PLANTS]


def _assert_fails_naming(result: CriterionResult, geom: Geometry, value) -> None:
    assert not result.passed, result.line()
    assert f"({geom.value})" in result.line()
    assert ("gap nan " in result.line()) == (value is not None)


@pytest.mark.parametrize("kernel", ["cross_curvature_diag", "sectional_curvatures"])
@pytest.mark.parametrize("geom, value", _PLANTS, ids=_PLANT_IDS)
def test_oracle_criterion_fails_on_a_planted_defect(monkeypatch, geom, value, kernel):
    # the defect goes into the factored kernel, which gives the `want` side of
    # the gap, or into the sectional curvatures that `cross_from_sectional`
    # turns into its `got` side
    real = getattr(acceptance, kernel)

    def planted(g, m):
        h = real(g, m)
        if g is not geom:
            return h
        return type(h)(*_plant(np.broadcast_arrays(*h, m.A)[:3], _DRAW, value))

    monkeypatch.setattr(acceptance, kernel, planted)
    gaps = acceptance._oracle_gaps()
    assert np.flatnonzero(~(gaps[geom] <= acceptance._ORACLE_TOL)).tolist() == [_DRAW]
    _assert_fails_naming(acceptance.criterion_oracle_equivalence({}), geom, value)


@pytest.mark.parametrize("geom, value", _PLANTS, ids=_PLANT_IDS)
def test_scaling_criterion_fails_on_a_planted_defect(monkeypatch, geom, value):
    # A perturbation goes into the first call for the geometry only (the
    # unscaled XCF_MINUS velocity): the same relative change in the scaled
    # velocity would cancel.  NaN goes into every call for the geometry.
    real = acceptance.flow_rhs
    calls = []

    def planted(g, m, spec):
        v = real(g, m, spec)
        if g is not geom:
            return v
        calls.append(spec)
        if value is None and len(calls) > 1:
            return v
        return RhsTriple(*_plant(np.broadcast_arrays(*v, m.A)[:3], _DRAW, value))

    monkeypatch.setattr(acceptance, "flow_rhs", planted)
    gaps = acceptance._scaling_gaps()
    bad = np.argwhere(~(gaps[geom] <= acceptance._ORACLE_TOL)).tolist()
    assert calls[0] is XCF_MINUS
    assert bad == ([[0, _DRAW]] if value is None else [[0, _DRAW], [1, _DRAW]])
    calls.clear()
    _assert_fails_naming(acceptance.criterion_scaling_law({}), geom, value)


def test_first_nan_gap_keeps_its_geometry(monkeypatch):
    # NaN in the first geometry and a perturbation a thousand times the
    # tolerance in a later one: the NaN is the worst gap and stays named.
    real = acceptance.cross_curvature_diag

    def planted(g, m):
        h = real(g, m)
        if g is Geometry.HEISENBERG:
            return CrossDiag(*_plant(h, _DRAW, np.nan))
        if g is Geometry.SL2R:
            return CrossDiag(*_plant(h, _DRAW))
        return h

    monkeypatch.setattr(acceptance, "cross_curvature_diag", planted)
    _assert_fails_naming(acceptance.criterion_oracle_equivalence({}), Geometry.HEISENBERG, np.nan)
