"""Integrator: closed-form accuracy, stop rule, determinism, exact symmetry."""

from __future__ import annotations

import itertools
from dataclasses import replace
from math import exp, expm1, inf, ldexp, log, sqrt

import numpy as np
import pytest

from xcflow import (
    Geometry,
    IntegratorOptions,
    MetricDiag,
    NXCF,
    TerminationKind,
    XCF_MINUS,
    XCF_PLUS,
    exact_solution,
    integrate,
    integrator,
    rhs_function,
    sample_at,
    series_values,
)
from xcflow.flows import FLOWS
from xcflow.integrator import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64, _A65,
    _B1, _B3, _B4, _B5, _B6, _E1, _E3, _E4, _E5, _E6, _E7,
    _attempt_step,
)


@pytest.fixture(scope="module")
def heisenberg_short_run():
    return integrate(
        Geometry.HEISENBERG, XCF_MINUS, MetricDiag(1, 1, 1), IntegratorOptions(t_max=10.0)
    )


# ---------------------------------------------------------------------------
# Options validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t_max": 0.0},
        {"t_max": -1.0},
        {"rtol": 0.0},
        {"atol": -1e-13},
        {"samples": 1},
        {"max_steps": 0},
        {"rtol": float("nan")},
        {"rtol": float("inf")},
        {"rtol": float("-inf")},
        {"atol": float("nan")},
        {"atol": float("inf")},
        {"atol": float("-inf")},
    ],
)
def test_options_validation(kwargs):
    with pytest.raises(ValueError):
        IntegratorOptions(**kwargs)


# ---------------------------------------------------------------------------
# Termination classification


def test_sol_symmetric_terminates_singular(sol_symmetric_run):
    term = sol_symmetric_run.termination
    assert term.kind is TerminationKind.SINGULAR_TIME
    assert term.t_stop == pytest.approx(1.0, abs=1e-5)
    assert term.vanishing == ("B",)
    assert term.exploding == ("A", "C")


def test_heisenberg_reaches_horizon(heisenberg_short_run):
    term = heisenberg_short_run.termination
    assert term.kind is TerminationKind.REACHED_T_MAX
    assert term.t_stop == 10.0
    # (1 + 7*4*10) = 281; A(10) = 281^(-1/14) ~ 0.668533
    a_final = heisenberg_short_run.states[-1, 0]
    assert a_final == pytest.approx(281.0 ** (-1.0 / 14.0), rel=1e-8)


def test_su2_round_collapses_everything(su2_round_run):
    term = su2_round_run.termination
    assert term.kind is TerminationKind.SINGULAR_TIME
    assert term.t_stop == pytest.approx(1.0, abs=1e-5)
    assert term.vanishing == ("A", "B", "C")
    assert term.exploding == ()


def test_step_budget_termination():
    traj = integrate(
        Geometry.SL2R,
        XCF_MINUS,
        MetricDiag(1, 1, 1),
        IntegratorOptions(t_max=1e6, max_steps=25),
    )
    assert traj.termination.kind is TerminationKind.STEP_BUDGET_EXHAUSTED
    assert traj.termination.trigger == "max_steps"
    assert traj.termination.t_stop == traj.times[-1]
    assert traj.termination.n_accepted <= 25
    assert 0.0 < traj.t_end < 1e6
    assert len(traj.times) == len(traj.states)


_SINGULAR_FIXTURES = (
    "sol_symmetric_run", "sol_generic_run", "su2_round_run", "su2_generic_run", "sl2r_generic_run",
)
_IMMORTAL_FIXTURES = (
    "heisenberg_unit_run", "sl2r_symmetric_run", "e2_generic_run", "nxcf_heisenberg_run",
)


@pytest.mark.parametrize("name", _SINGULAR_FIXTURES + _IMMORTAL_FIXTURES)
def test_stop_vocabulary(request, name):
    # one singular-time rule (step_underflow); every run ends on one of three triggers
    traj = request.getfixturevalue(name)
    term = traj.termination
    if name in _SINGULAR_FIXTURES:
        assert term.kind is TerminationKind.SINGULAR_TIME
        assert term.trigger == "step_underflow"
    else:
        assert term.kind is TerminationKind.REACHED_T_MAX
        assert term.trigger == "t_max"
    assert term.t_stop == traj.times[-1]


def test_trivial_geometry_is_constant():
    m0 = MetricDiag(1.5, 2.5, 3.5)
    traj = integrate(Geometry.TRIVIAL, XCF_MINUS, m0, IntegratorOptions(t_max=5.0))
    assert traj.termination.kind is TerminationKind.REACHED_T_MAX
    assert np.all(traj.states == m0.as_array())


def test_termination_to_dict_round_trips_enums(sol_symmetric_run):
    d = sol_symmetric_run.termination.to_dict()
    assert d["kind"] == "singular_time"
    assert d["vanishing"] == ["B"]
    assert d["exploding"] == ["A", "C"]
    assert set(d) == {
        "kind", "t_stop", "vanishing", "exploding", "trigger", "n_accepted", "n_rejected",
    }


@pytest.mark.parametrize("geom", [Geometry.SOL, Geometry.SU2, Geometry.HEISENBERG])
def test_non_finite_velocity_at_initial_metric_raises(geom):
    # the run is scaled so that the largest coefficient lies in [0.5, 1);
    # (ABC)^2 of the scaled metric still underflows to 0.0 here, so the
    # kernels divide by zero
    with pytest.raises(ValueError, match="not finite at the initial metric"):
        integrate(geom, XCF_MINUS, MetricDiag(1e-200, 1.0, 1e-200))


# ---------------------------------------------------------------------------
# Sampled-output contract


def test_sample_grid_shape(sol_symmetric_run, heisenberg_short_run):
    for traj in (sol_symmetric_run, heisenberg_short_run):
        t = traj.times
        assert t[0] == 0.0
        assert np.all(np.diff(t) > 0.0)
        assert traj.states.shape == (len(t), 3)
        assert np.all(traj.states > 0.0)
        assert np.all(np.isfinite(traj.states))


def test_sample_at_endpoints_and_range(sol_symmetric_run):
    m0 = sol_symmetric_run.m0
    assert sample_at(sol_symmetric_run, 0.0) == m0
    with pytest.raises(ValueError):
        sample_at(sol_symmetric_run, -0.1)
    with pytest.raises(ValueError):
        sample_at(sol_symmetric_run, sol_symmetric_run.t_end * (1.0 + 1e-9))


def test_sample_at_matches_closed_forms(sol_symmetric_run, heisenberg_short_run):
    got = sample_at(sol_symmetric_run, 0.75).as_array()
    assert got == pytest.approx([2.0, 4.0, 2.0], rel=1e-8)
    want = exact_solution(Geometry.HEISENBERG, MetricDiag(1, 1, 1), 10.0)
    assert want == pytest.approx(
        [281.0 ** (-1.0 / 14.0), 281.0 ** (3.0 / 14.0), 281.0 ** (3.0 / 14.0)], rel=1e-15
    )
    got = sample_at(heisenberg_short_run, 10.0).as_array()
    assert got == pytest.approx(want, rel=1e-8)


def test_sample_at_agrees_with_emitted_grid(heisenberg_short_run, sol_generic_run):
    # sample_at and the emitted grid share one evaluator, so every row matches bitwise
    for traj in (heisenberg_short_run, sol_generic_run):
        got = np.array([sample_at(traj, float(t)).as_array() for t in traj.times])
        assert np.array_equal(got, traj.states)


def test_512_singular_rows_cover_every_decade_of_the_approach():
    # blow-up fits need 32 rows in their decade of u = t_stop - t
    traj = integrate(Geometry.SOL, XCF_MINUS, MetricDiag(2, 4, 1), IntegratorOptions(samples=512))
    t_stop = traj.termination.t_stop
    u = (t_stop - traj.times) / t_stop
    for k in range(-12, -1):
        assert int(np.count_nonzero((u >= 10.0**k) & (u <= 10.0 ** (k + 1)))) >= 32, k


@pytest.mark.parametrize("samples", [2, 3])
@pytest.mark.parametrize(
    "geom, init, opts, trigger",
    [
        (Geometry.HEISENBERG, (1, 2, 3), {"t_max": 10.0}, "t_max"),
        (Geometry.SOL, (2, 4, 1), {}, "step_underflow"),
        (Geometry.SOL, (2, 4, 1), {"max_steps": 50}, "max_steps"),
    ],
)
def test_fewest_samples_span_the_run(geom, init, opts, trigger, samples):
    # the grid starts at 0, increases strictly and ends at t_stop whatever the trigger
    traj = integrate(geom, XCF_MINUS, MetricDiag(*init), IntegratorOptions(samples=samples, **opts))
    term = traj.termination
    assert term.trigger == trigger
    t = traj.times
    assert len(t) == samples and t[0] == 0.0 and np.all(np.diff(t) > 0.0)
    assert t[-1] == term.t_stop == traj.t_end
    assert np.array_equal(sample_at(traj, term.t_stop).as_array(), traj.states[-1])


@pytest.mark.parametrize("kind", list(TerminationKind), ids=lambda k: k.value)
def test_sample_grid_has_exactly_the_asked_rows(kind):
    # an even uniform share of a singular grid used to hold t_end / 2, the first geometric row too
    for t_end in (1.0, 3.7, 1e-5, 123.456, 2.0 - 2.0**-52, 2.0**-30):
        for n in (*range(2, 130), 511, 512, 2048, 8191, 8192, 16384, 32768, 65536):
            grid = integrator._sample_times(kind, t_end, n)
            assert len(grid) == n, (t_end, n)
            assert grid[0] == 0.0 and grid[-1] == t_end and np.all(np.diff(grid) > 0.0), (t_end, n)


@pytest.mark.parametrize("samples", [4, 17, 48, 512])
def test_singular_run_returns_the_asked_rows(samples):
    traj = integrate(Geometry.SOL, XCF_MINUS, MetricDiag(2, 4, 1), IntegratorOptions(samples=samples))
    assert traj.termination.kind is TerminationKind.SINGULAR_TIME
    assert len(traj.times) == len(traj.states) == samples


def _row_state(table, t):
    """The dense output at one scaled time, in numpy scalars: the reference for `_StepTable.eval`."""
    i = int(np.searchsorted(table.t0, t, side="right")) - 1
    h, w0, a = table.h[i], table.w0[i], table.a[i]
    c0, c1, c2, c3 = table.qt[i]
    m = np.expm1(-a)
    e1 = 1.0 if a == 0.0 else -m / a
    lin = w0 * e1
    d = (t - table.t0[i]) / h
    v = min(max(d / (lin + (c0 + c1 + c2 + c3)), 0.0), 1.0)
    for n in range(integrator._NEWTON_STEPS + 1):
        vm = max(v * m, integrator._VM_FLOOR)
        theta = v if a == 0.0 else min(-np.log1p(vm) / a, 1.0)
        if n == integrator._NEWTON_STEPS:
            break
        p = theta * (c0 + theta * (c1 + theta * (c2 + theta * c3)))
        dp = c0 + theta * (2.0 * c1 + theta * (3.0 * c2 + theta * (4.0 * c3)))
        dtheta = 1.0 if a == 0.0 else e1 / (1.0 + vm)
        v = min(max(v - (lin * v + p - d) / (lin + dp * dtheta), 0.0), 1.0)
    theta = np.longdouble(theta)
    q = table.q[i]
    x = table.x0[i] + np.longdouble(h) * (theta * (q[:, 0] + theta * (q[:, 1] + theta * (q[:, 2] + theta * q[:, 3]))))
    return np.ldexp((table.base * np.exp(x)).astype(float), table.k)


def test_dense_grid_matches_per_row_interpolant(heisenberg_short_run, sol_generic_run, su2_round_run):
    # reference: the same interpolant and inverse evaluated one row at a time
    for traj in (heisenberg_short_run, sol_generic_run, su2_round_run):
        table = traj._table
        want = [_row_state(table, t) for t in np.ldexp(traj.times, -2 * table.k)]
        assert np.array_equal(np.array(want), traj.states)


def test_dense_inverse_has_converged(sol_generic_run, su2_generic_run, sl2r_generic_run, e2_generic_run):
    # the fixed Newton count maps every sample time to tau as well as many more steps do
    for traj in (sol_generic_run, su2_generic_run, sl2r_generic_run, e2_generic_run):
        grid = np.ldexp(traj.times, -2 * traj._table.k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "_NEWTON_STEPS", 30)
            converged = traj._table.eval(grid)
        assert np.max(np.abs(traj.states - converged) / converged) <= 1e-14


# ---------------------------------------------------------------------------
# The single step: finiteness guards and the matrix-form reference

# Dormand-Prince 5(4) in matrix form on numpy vectors, the log/Sundman step
# written without unrolling: the reference for _attempt_step.
_REF_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_REF_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_REF_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_REF_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])


def _reference_step(rhs, y, f, h, t, smin, rtol, atol):
    def rate(z):
        g = np.array(rhs(z)) / z
        s = max(float(np.max(np.abs(g))), smin)
        return np.append(g / s, 1.0 / s)

    K = np.empty((7, 4))
    K[0] = f
    with np.errstate(over="ignore"):
        for s in range(1, 7):
            weights = _REF_A[s - 1] if s < 6 else _REF_B
            z = y * np.exp(h * (weights @ K[:s, :3]))
            if not (np.all(np.isfinite(z)) and np.all(z > 0.0)):
                return None
            K[s] = rate(z)
            if not np.all(np.isfinite(K[s])):
                return None
    w = K[:, 3]
    a = np.log(w[0] / w[6])
    r = w - w[0] * np.exp(-a * _REF_C)  # dt/dtau less the exponential through both ends
    dt = h * (w[0] * -np.expm1(-a) / a + _REF_B @ r[:6])
    scale = np.array([rtol, rtol, rtol, atol + rtol * (t + dt)])
    e = h * (_REF_E @ np.column_stack([K[:, :3], r])) / scale
    return z, dt, K[6], sqrt(float(np.mean(e * e))), K


def _scripted_rhs(bad_call, bad_value, component=0):
    """Velocity (1, 1, 1), with bad_value in one component on call number bad_call; counts calls.

    A bad_value that is an exception type is raised instead.
    """
    calls = []

    def rhs(y):
        calls.append(tuple(y))
        k = [1.0, 1.0, 1.0]
        if len(calls) == bad_call:
            if isinstance(bad_value, type):
                raise bad_value("planted")
            k[component] = bad_value
        return tuple(k)

    return rhs, calls


_UNIT = (1.0, 1.0, 1.0)
_UNIT_VELOCITY = (1.0, 1.0, 1.0, 1.0)  # of the scripted rhs at _UNIT: g = 1, s = 1


@pytest.mark.parametrize("bad_value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("bad_call", range(1, 7))
def test_attempt_step_rejects_non_finite_stage_velocity(bad_call, bad_value):
    rhs, calls = _scripted_rhs(bad_call, bad_value)
    assert _attempt_step(rhs, _UNIT, _UNIT_VELOCITY, 1e-3, 0.0, 0.1, 1e-10, 1e-13) is None
    assert len(calls) == bad_call


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
@pytest.mark.parametrize("bad_call", range(1, 7))
def test_attempt_step_rejects_a_raising_stage(bad_call, error):
    # a kernel that overflows or divides by zero rejects the attempt, it does not propagate
    rhs, calls = _scripted_rhs(bad_call, error)
    assert _attempt_step(rhs, _UNIT, _UNIT_VELOCITY, 1e-3, 0.0, 0.1, 1e-10, 1e-13) is None
    assert len(calls) == bad_call


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_attempt_step_rejects_a_stage_state_beyond_the_floats(sign):
    # |dxi/dtau| <= 1, so only a step of hundreds of units of tau takes exp
    # past the floats: above, math.exp raises before the rhs sees the state;
    # below, the state underflows to 0 and g = (dy/dt)/y divides by zero
    rhs, calls = _scripted_rhs(0, 0.0)
    f = (sign, sign, sign, 1.0)
    assert _attempt_step(rhs, _UNIT, f, 1e4, 0.0, 0.1, 1e-10, 1e-13) is None
    assert len(calls) == (0 if sign > 0.0 else 1)


def _table_points(traj, count):
    """(scaled state, scaled time, step size) at up to `count` accepted steps spread over the run."""
    table = traj._table
    for i in np.unique(np.linspace(0, len(table.h) - 1, count).round().astype(int)):
        y = tuple((table.base * np.exp(table.x0[i])).astype(float).tolist())
        yield y, float(table.t0[i]), float(table.h[i])


def _smin(traj):
    return 1.0 / ldexp(traj.options.t_max, -2 * traj._table.k)


def test_attempt_step_matches_matrix_form_reference(
    sol_symmetric_run, sol_generic_run, sl2r_generic_run, su2_round_run, su2_generic_run
):
    # The float form sums the tableau left to right; BLAS may fuse and reorder
    # the same products, so results differ in the last bits.  States and
    # velocities are compared relatively.  err is a difference of nearly
    # cancelling terms (the E weights sum to 0), so its gap is measured
    # against the rms of the term magnitudes instead of err itself.
    rtol, atol = 1e-10, 1e-13
    for traj in (sol_symmetric_run, sol_generic_run, sl2r_generic_run, su2_round_run, su2_generic_run):
        rhs = rhs_function(traj.geometry, traj.spec)
        smin = _smin(traj)
        for y, t, h in _table_points(traj, 60):
            f = integrator._velocity(rhs, y, smin)
            got = _attempt_step(rhs, y, f, h, t, smin, rtol, atol)
            want = _reference_step(rhs, np.array(y), np.array(f), h, t, smin, rtol, atol)
            z, dt, k7, err, K = want
            assert np.max(np.abs(np.array(got[0]) - z) / z) <= 1e-14
            assert abs(got[1] - dt) <= 1e-14 * dt
            assert np.max(np.abs(np.array(got[2]) - k7)) <= 1e-14
            magnitude = sqrt(float(np.mean((h * (np.abs(_REF_E) @ np.abs(K))) ** 2))) / rtol
            assert abs(got[3] - err) <= 1e-14 * magnitude


# The step written with loops over the tableau rows and a helper for the
# stage velocity, instead of unrolled into locals.  The unrolled form must
# give exactly its bits, or None where it gives None.

_STAGE_ROWS = (
    ((_A21, 0),),
    ((_A31, 0), (_A32, 1)),
    ((_A41, 0), (_A42, 1), (_A43, 2)),
    ((_A51, 0), (_A52, 1), (_A53, 2), (_A54, 3)),
    ((_A61, 0), (_A62, 1), (_A63, 2), (_A64, 3), (_A65, 4)),
    ((_B1, 0), (_B3, 2), (_B4, 3), (_B5, 4), (_B6, 5)),  # the new state, where stage 7 is evaluated
)
_ERROR_ROW = ((_E1, 0), (_E3, 2), (_E4, 3), (_E5, 4), (_E6, 5), (_E7, 6))


def _weighted(row, ks, c):
    total = row[0][0] * ks[row[0][1]][c]
    for coef, j in row[1:]:
        total = total + coef * ks[j][c]
    return total


def _stage_velocity(rhs, z, smin):
    g = [v / c for v, c in zip(rhs(z), z)]
    s = abs(g[0])
    for v in g[1:]:
        s = abs(v) if abs(v) > s else s
    s = smin if smin > s else s
    k = (g[0] / s, g[1] / s, g[2] / s, 1.0 / s)
    return k if all(-inf < v < inf for v in k[:3]) else None


def _helper_form_step(rhs, y, f, h, t, smin, rtol, atol):
    ks = [f]
    try:
        for row in _STAGE_ROWS:
            z = tuple(y[c] * exp(h * _weighted(row, ks, c)) for c in range(3))
            k = _stage_velocity(rhs, z, smin)
            if k is None:
                return None
            ks.append(k)
        w = [k[3] for k in ks]
        a = log(w[0] / w[6])
        lin = w[0] if a == 0.0 else w[0] * -expm1(-a) / a
        r = [w[j] - w[0] * exp(-c * a) for j, c in ((2, 3 / 10), (3, 4 / 5), (4, 8 / 9), (5, 1.0))]
    except (OverflowError, ZeroDivisionError):
        return None
    dt = h * (lin + (_B3 * r[0] + _B4 * r[1] + _B5 * r[2] + _B6 * r[3]))
    e = [h * _weighted(_ERROR_ROW, ks, c) / rtol for c in range(3)]
    e.append(h * (_E3 * r[0] + _E4 * r[1] + _E5 * r[2] + _E6 * r[3]) / (atol + rtol * (t + dt)))
    err = sqrt((((e[0] * e[0] + e[1] * e[1]) + e[2] * e[2]) + e[3] * e[3]) / 4.0)
    return z, dt, ks[6], err, tuple(v for k in ks for v in k)


def _step_bits(out):
    """The result of a step attempt as bytes (None stays None); tells -0.0 from 0.0."""
    if out is None:
        return None
    y_new, dt, f_new, err, stages = out
    assert len(y_new) == 3 and len(f_new) == 4 and len(stages) == 28
    return np.array([*y_new, dt, *f_new, err, *stages], dtype=float).tobytes()


_FIXTURES = _SINGULAR_FIXTURES + _IMMORTAL_FIXTURES


@pytest.mark.parametrize("flow", list(FLOWS))
@pytest.mark.parametrize("geom", list(Geometry))
def test_attempt_step_is_bitwise_the_helper_form(request, geom, flow):
    # states and step sizes of accepted steps of every canonical run, stepped
    # under this geometry and flow at h, 8h and 1e3h, so that attempts end
    # accepted, rejected on error, and rejected by a finiteness guard (None)
    rtol, atol = 1e-10, 1e-13
    rhs = rhs_function(geom, FLOWS[flow])
    outcomes = {"none": 0, "rejected": 0, "accepted": 0}
    for name in _FIXTURES:
        traj = request.getfixturevalue(name)
        smin = _smin(traj)
        for y, t, h in _table_points(traj, 12):
            try:
                f = integrator._velocity(rhs, y, smin)
            except ArithmeticError:
                continue
            for step in (h, 8.0 * h, 1e3 * h):
                got = _attempt_step(rhs, y, f, step, t, smin, rtol, atol)
                assert _step_bits(got) == _step_bits(_helper_form_step(rhs, y, f, step, t, smin, rtol, atol))
                kind = "none" if got is None else "rejected" if got[3] > 1.0 else "accepted"
                outcomes[kind] += 1
    # TRIVIAL's velocity is zero, so its every attempt passes with err = 0
    assert outcomes["accepted"] > 0
    if geom is not Geometry.TRIVIAL:
        assert outcomes["none"] > 0 and outcomes["rejected"] > 0


@pytest.mark.parametrize("component", range(3))
@pytest.mark.parametrize("bad_value", [float("inf"), float("-inf"), float("nan"), -1e6, 1e6])
@pytest.mark.parametrize("bad_call", range(0, 7))
def test_attempt_step_rejections_match_the_helper_form(bad_call, bad_value, component):
    # every finiteness guard on every component: a non-finite velocity, or a
    # huge one that makes s large and the other components' dxi/dtau small
    for f in (_UNIT_VELOCITY, (0.5, -1.0, 0.25, 2.0)):
        for h in (1e-3, 0.1):
            rhs, calls = _scripted_rhs(bad_call, bad_value, component)
            ref_rhs, ref_calls = _scripted_rhs(bad_call, bad_value, component)
            got = _attempt_step(rhs, _UNIT, f, h, 0.0, 0.1, 1e-10, 1e-13)
            assert _step_bits(got) == _step_bits(_helper_form_step(ref_rhs, _UNIT, f, h, 0.0, 0.1, 1e-10, 1e-13))
            assert calls == ref_calls


_G_VALUES = (1.0, -2.0, 0.0, -0.0, 1e300, inf, -inf, float("nan"))


def test_velocity_raises_exactly_where_the_helper_form_is_not_finite():
    # every triple of these log-derivatives: the same bits as the reference
    # stage velocity, and ArithmeticError exactly where the reference is None
    raised = 0
    for g in itertools.product(_G_VALUES, repeat=3):
        for z in (_UNIT, (0.25, 2.0, 3.0)):
            rates = tuple(v * c for v, c in zip(g, z))
            for smin in (0.1, 1e3):
                want = _stage_velocity(lambda _: rates, z, smin)
                if want is None:
                    with pytest.raises(ArithmeticError):
                        integrator._velocity(lambda _: rates, z, smin)
                    raised += 1
                else:
                    got = integrator._velocity(lambda _: rates, z, smin)
                    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert 0 < raised < 2 * 2 * len(_G_VALUES) ** 3


@pytest.mark.parametrize(
    "name, pairs",
    [
        ("sol_symmetric_run", ((0, 2),)),
        ("sl2r_symmetric_run", ((1, 2),)),
        ("su2_round_run", ((0, 1), (1, 2))),
    ],
)
def test_attempt_step_is_bitwise_symmetric(request, name, pairs):
    # exactly symmetric states step to exactly symmetric states, stage by
    # stage, accepted or not; these are the symmetric-branch locks
    traj = request.getfixturevalue(name)
    rhs = rhs_function(traj.geometry, traj.spec)
    smin = _smin(traj)
    checked = 0
    for y, t, h in _table_points(traj, 20):
        assert all(y[i] == y[j] for i, j in pairs)
        f = integrator._velocity(rhs, y, smin)
        for step in (h, 8.0 * h):
            out = _attempt_step(rhs, y, f, step, t, smin, 1e-10, 1e-13)
            if out is None:
                continue
            y_new, _, f_new, _, stages = out
            stages = np.array(stages).reshape(7, 4)
            for i, j in pairs:
                assert y_new[i] == y_new[j] and f_new[i] == f_new[j]
                assert np.array_equal(stages[:, i], stages[:, j])
            checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# The interface the benchmark's tracer wraps: integrator.rhs_function, looked
# up at call time, whose closure also accepts an ndarray row


@pytest.mark.parametrize(
    "geom, init, t_max, spec",
    [
        (Geometry.SOL, (2, 4, 1), 10.0, XCF_MINUS),
        (Geometry.SU2, (3, 2, 1), 10.0, XCF_MINUS),
        (Geometry.SL2R, (1, 2, 1), 10.0, XCF_MINUS),
        (Geometry.HEISENBERG, (1, 1, 1), 100.0, XCF_MINUS),
        # the normalized closure and the unnormalized one with the positive sign
        (Geometry.E2, (2, 1, 1), 10.0, NXCF),
        (Geometry.SU2, (3, 2, 1), 10.0, XCF_PLUS),
    ],
)
def test_wrapped_rhs_function_changes_no_bit_and_counts_the_fsal_budget(monkeypatch, geom, init, t_max, spec):
    opts = IntegratorOptions(t_max=t_max)
    plain = integrate(geom, spec, MetricDiag(*init), opts)

    calls = []
    real_rhs_function = integrator.rhs_function

    def counting_rhs_function(geometry, spec):
        fn = real_rhs_function(geometry, spec)

        def rhs(y):
            calls.append(1)
            return fn(y)

        return rhs

    outcomes = []
    real_attempt_step = integrator._attempt_step

    def recording_attempt_step(*args):
        out = real_attempt_step(*args)
        outcomes.append(out is not None)
        return out

    monkeypatch.setattr(integrator, "rhs_function", counting_rhs_function)
    monkeypatch.setattr(integrator, "_attempt_step", recording_attempt_step)
    wrapped = integrate(geom, spec, MetricDiag(*init), opts)

    assert wrapped.times.tobytes() == plain.times.tobytes()
    assert wrapped.states.tobytes() == plain.states.tobytes()
    assert wrapped.termination == plain.termination
    term = wrapped.termination
    assert len(outcomes) == term.n_accepted + term.n_rejected
    # every attempt of these runs passes its finiteness guards: FSAL costs one
    # evaluation at t=0 and six per attempt, and the first step is fixed in tau
    assert all(outcomes)
    assert len(calls) == 1 + 6 * len(outcomes)


# ---------------------------------------------------------------------------
# Closed-form accuracy along the whole run


def test_heisenberg_run_tracks_exact_solution(heisenberg_short_run):
    want = exact_solution(Geometry.HEISENBERG, MetricDiag(1, 1, 1), heisenberg_short_run.times)
    worst = float(np.max(np.abs(heisenberg_short_run.states - want) / want))
    assert worst <= 1e-8


def test_sol_symmetric_run_tracks_exact_solution(sol_symmetric_run):
    t0 = 1.0
    keep = sol_symmetric_run.times <= 0.99 * t0
    want = exact_solution(Geometry.SOL, MetricDiag(1.0, 8.0, 1.0), sol_symmetric_run.times[keep])
    worst = float(np.max(np.abs(sol_symmetric_run.states[keep] - want) / want))
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# Determinism and tolerance convergence


def test_integration_is_deterministic():
    opts = IntegratorOptions(t_max=10.0)
    a = integrate(Geometry.SOL, XCF_MINUS, MetricDiag(2, 4, 1), opts)
    b = integrate(Geometry.SOL, XCF_MINUS, MetricDiag(2, 4, 1), opts)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert a.termination == b.termination


def test_halving_tolerances_moves_states_within_old_tolerance():
    m0 = MetricDiag(1, 1, 1)
    coarse = integrate(Geometry.HEISENBERG, XCF_MINUS, m0, IntegratorOptions(t_max=10.0))
    fine = integrate(
        Geometry.HEISENBERG, XCF_MINUS, m0, IntegratorOptions(t_max=10.0, rtol=5e-11, atol=5e-14)
    )
    for t in np.linspace(0.5, 10.0, 21):
        a = sample_at(coarse, float(t)).as_array()
        b = sample_at(fine, float(t)).as_array()
        assert np.max(np.abs(a - b) / b) <= 10.0 * 1e-10


def test_halving_tolerances_on_singular_run():
    m0 = MetricDiag(1, 8, 1)
    coarse = integrate(Geometry.SOL, XCF_MINUS, m0, IntegratorOptions(t_max=10.0))
    fine = integrate(
        Geometry.SOL, XCF_MINUS, m0, IntegratorOptions(t_max=10.0, rtol=5e-11, atol=5e-14)
    )
    for t in np.linspace(0.1, 0.99, 19):
        a = sample_at(coarse, float(t)).as_array()
        b = sample_at(fine, float(t)).as_array()
        assert np.max(np.abs(a - b) / b) <= 10.0 * 1e-10


# ---------------------------------------------------------------------------
# Exact symmetry preservation (no special-casing in the integrator)


def test_sol_symmetric_lock_is_bitwise(sol_symmetric_run):
    assert np.array_equal(sol_symmetric_run.states[:, 0], sol_symmetric_run.states[:, 2])


def test_sl2r_symmetric_lock_is_bitwise(sl2r_symmetric_run):
    assert np.array_equal(sl2r_symmetric_run.states[:, 1], sl2r_symmetric_run.states[:, 2])


def test_su2_round_lock_is_bitwise(su2_round_run):
    assert np.array_equal(su2_round_run.states[:, 0], su2_round_run.states[:, 1])
    assert np.array_equal(su2_round_run.states[:, 1], su2_round_run.states[:, 2])


def test_e2_flat_branch_is_exactly_stationary():
    m0 = MetricDiag(2, 2, 5)
    traj = integrate(Geometry.E2, XCF_MINUS, m0, IntegratorOptions(t_max=10.0))
    assert np.all(traj.states == m0.as_array())


# ---------------------------------------------------------------------------
# Drift of first integrals at default tolerances


def test_heisenberg_conserved_drift(heisenberg_unit_run):
    for name in ("A^3*B", "A^3*C", "B/C"):
        v = series_values(heisenberg_unit_run, name)
        assert np.max(np.abs(v - v[0])) / abs(v[0]) <= 1e-9


def test_normalized_flow_volume_drift(nxcf_heisenberg_run):
    v = series_values(nxcf_heisenberg_run, "A*B*C")
    assert np.max(np.abs(v - v[0])) / abs(v[0]) <= 1e-9


# ---------------------------------------------------------------------------
# Monotone facts at default tolerances


def _max_increase(v: np.ndarray) -> float:
    return float(np.max(np.maximum(np.diff(v), 0.0), initial=0.0))


def test_sol_generic_monotone_quantities(sol_generic_run):
    scale = 1e-9
    for name in ("A-C", "A/C", "A-3C"):
        v = series_values(sol_generic_run, name)
        assert _max_increase(v) <= scale * float(np.max(np.abs(v)))
    c = sol_generic_run.states[:, 2]
    assert float(np.max(np.maximum(-np.diff(c), 0.0), initial=0.0)) <= scale * float(np.max(c))


def test_e2_spread_energy_is_nondecreasing(e2_generic_run):
    v = series_values(e2_generic_run, "(A-B)^2*C")
    assert float(np.max(np.maximum(-np.diff(v), 0.0), initial=0.0)) <= 1e-9 * float(np.max(v))


# ---------------------------------------------------------------------------
# Units: the run is computed in units scaled by a power of two


_SCALE_DATA = {
    Geometry.HEISENBERG: (1.0, 2.0, 3.0),
    Geometry.SOL: (2.0, 4.0, 1.0),
    Geometry.SU2: (3.0, 2.0, 1.0),
    Geometry.SL2R: (1.0, 2.0, 1.0),
    Geometry.E2: (2.0, 1.0, 1.0),
    Geometry.TRIVIAL: (1.5, 2.5, 3.5),
}
_SCALE_EXPONENTS = (-400, -263, -64, -1, 1, 37, 211, 400)


@pytest.mark.parametrize("flow", list(FLOWS))
@pytest.mark.parametrize("geom", list(Geometry), ids=lambda g: g.value)
def test_power_of_two_scaling_is_bitwise(geom, flow):
    # integrate(2^k g, 4^k t_max) is the base run with times * 4^k and states * 2^k
    opts = IntegratorOptions(t_max=10.0, samples=64)
    m0 = _SCALE_DATA[geom]
    base = integrate(geom, FLOWS[flow], MetricDiag(*m0), opts)
    for k in _SCALE_EXPONENTS:
        run = integrate(
            geom, FLOWS[flow], MetricDiag(*(ldexp(v, k) for v in m0)), replace(opts, t_max=ldexp(10.0, 2 * k))
        )
        assert np.ldexp(run.times, -2 * k).tobytes() == base.times.tobytes()
        assert np.ldexp(run.states, -k).tobytes() == base.states.tobytes()
        assert run.termination == replace(base.termination, t_stop=ldexp(base.termination.t_stop, 2 * k))


@pytest.mark.parametrize("scale", [1e-8, 1e-60, 1e60])
@pytest.mark.parametrize(
    "geom, init", [(Geometry.SOL, (2, 4, 1)), (Geometry.HEISENBERG, (2, 4, 1)), (Geometry.SU2, (3, 2, 1))],
    ids=["sol", "heisenberg", "su2"],
)
def test_any_scale_ends_like_the_unit_run(geom, init, scale):
    # Before runs were scaled, these stopped at t = 0 (1e-8; 1e-60, or raised
    # there) or reported a false t_max with the state unchanged (1e60).
    unit = integrate(geom, XCF_MINUS, MetricDiag(*init), IntegratorOptions(t_max=10.0))
    run = integrate(
        geom, XCF_MINUS, MetricDiag(*(scale * v for v in init)), IntegratorOptions(t_max=10.0 * scale * scale)
    )
    assert run.termination.trigger == unit.termination.trigger
    assert run.termination.kind is unit.termination.kind
    assert run.termination.t_stop / scale**2 == pytest.approx(unit.termination.t_stop, rel=1e-12)


def test_t_max_out_of_range_at_the_metric_scale_is_an_error():
    # 10 / 4^k overflows for the scale 2^k of this metric
    with pytest.raises(ValueError, match="out of range at the scale of the initial metric"):
        integrate(Geometry.SOL, XCF_MINUS, MetricDiag(2e-300, 4e-300, 1e-300))


# ---------------------------------------------------------------------------
# What the log/Sundman step buys, and what it must keep

# Step attempts of the t-parametrised Dormand-Prince stepper that this one
# replaced, on the same runs at the default options.
_T_FORM_ATTEMPTS = {
    (Geometry.SOL, (2, 4, 1)): 745,
    (Geometry.SOL, (1, 8, 1)): 755,
    (Geometry.SL2R, (1, 2, 1)): 674,
    (Geometry.SU2, (2, 2, 2)): 366,
}


@pytest.mark.parametrize("geom, init", list(_T_FORM_ATTEMPTS), ids=lambda v: getattr(v, "value", str(v)))
def test_singular_runs_take_at_most_half_the_t_form_attempts(geom, init):
    term = integrate(geom, XCF_MINUS, MetricDiag(*init), IntegratorOptions(t_max=10.0)).termination
    assert term.trigger == "step_underflow"
    assert term.n_accepted + term.n_rejected <= _T_FORM_ATTEMPTS[(geom, init)] // 2


@pytest.mark.parametrize(
    "geom, init, t0", [(Geometry.SOL, (1, 8, 1), 1.0), (Geometry.SU2, (2, 2, 2), 1.0)], ids=["sol", "su2"]
)
def test_singular_time_lands_within_1e_10_of_the_closed_form(geom, init, t0):
    term = integrate(geom, XCF_MINUS, MetricDiag(*init), IntegratorOptions(t_max=10.0)).termination
    assert abs(term.t_stop - t0) <= 1e-10 * t0


def test_positive_heisenberg_flow_lands_on_its_singular_time():
    # the positive flow runs the closed form backward: w = 1 - 28 (A0/(B0 C0))^2 t = 1 - 7t, so T0 = 1/7
    term = integrate(Geometry.HEISENBERG, XCF_PLUS, MetricDiag(2, 4, 1), IntegratorOptions(t_max=10.0)).termination
    assert term.trigger == "step_underflow"
    assert abs(term.t_stop - 1.0 / 7.0) <= 1e-10 / 7.0


def test_first_integrals_are_conserved_to_rounding(heisenberg_unit_run):
    # A^3 B, A^3 C and B/C are linear in log coordinates, which a Runge-Kutta step conserves
    for name in ("A^3*B", "A^3*C", "B/C"):
        v = series_values(heisenberg_unit_run, name)
        assert np.max(np.abs(v - v[0])) / abs(v[0]) < 1e-13


@pytest.mark.parametrize("geom", list(Geometry), ids=lambda g: g.value)
def test_normalized_flow_conserves_volume_to_rounding(geom):
    traj = integrate(geom, NXCF, MetricDiag(*_SCALE_DATA[geom]), IntegratorOptions(t_max=2.0))
    v = series_values(traj, "A*B*C")
    assert np.max(np.abs(v - v[0])) / abs(v[0]) < 1e-13


@pytest.mark.parametrize("kind", ["overflow", "nan"])
@pytest.mark.parametrize("stage", range(1, 7))
def test_a_fault_planted_at_every_attempt_ends_the_run_in_bounded_cost(monkeypatch, stage, kind):
    # the right-hand side fails at this stage of every attempt: each attempt
    # is rejected, h halves, and the retry floor ends the run at t = 0
    real_rhs_function = integrator.rhs_function

    def faulty_rhs_function(geometry, spec):
        fn = real_rhs_function(geometry, spec)
        calls = []

        def rhs(y):
            calls.append(1)
            if len(calls) > 1 and (len(calls) - 2) % 6 == stage - 1:
                if kind == "overflow":
                    raise OverflowError("planted")
                return (float("nan"),) * 3
            return fn(y)

        return rhs

    monkeypatch.setattr(integrator, "rhs_function", faulty_rhs_function)
    traj = integrate(Geometry.SOL, XCF_MINUS, MetricDiag(2, 4, 1), IntegratorOptions(t_max=10.0))
    term = traj.termination
    assert (term.kind, term.trigger, term.t_stop, term.n_accepted) == (
        TerminationKind.SINGULAR_TIME, "step_underflow", 0.0, 0,
    )
    assert term.n_rejected <= 40  # 0.01 halved below 1e-12
    assert traj.times.tolist() == [0.0] and np.array_equal(traj.states, [[2.0, 4.0, 1.0]])
