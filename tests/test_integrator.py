"""Integrator: closed-form accuracy, stop rule, determinism, exact symmetry."""

from __future__ import annotations

from math import sqrt

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
    _attempt_step, _finite, _positive, _rms,
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
    # the step floor is the only singular-time rule; every run ends on one of three triggers
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
    # (ABC)^2 underflows to 0.0, so the kernels divide by zero
    with pytest.raises(ValueError, match="not finite at the initial metric"):
        integrate(geom, XCF_MINUS, MetricDiag(2e-100, 4e-100, 1e-100))


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


def test_dense_grid_matches_per_row_interpolant(heisenberg_short_run, sol_generic_run):
    # reference: the quartic interpolant evaluated one row at a time in Python floats
    for traj in (heisenberg_short_run, sol_generic_run):
        table = traj._table
        want = []
        for t in traj.times:
            i = int(np.searchsorted(table.t0, t, side="right")) - 1
            theta = min(float((t - table.t0[i]) / table.h[i]), 1.0)
            powers = np.array([theta, theta * theta, theta**3, theta**4])
            want.append(table.y0[i] + table.h[i] * (table.q[i] @ powers))
        assert np.array_equal(np.array(want), traj.states)


# ---------------------------------------------------------------------------
# The single step: stage guards and the matrix-form reference

# Dormand-Prince 5(4) in matrix form on numpy 3-vectors, the step as it was
# written before the elementwise float form: the reference for _attempt_step.
_REF_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_REF_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_REF_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def _reference_step(rhs, y, f, h, rtol, atol):
    K = np.empty((7, 3))
    K[0] = f
    for s in range(1, 6):
        ys = y + h * (_REF_A[s - 1] @ K[:s])
        if not (np.all(np.isfinite(ys)) and np.all(ys > 0.0)):
            return None
        K[s] = rhs(ys)
        if not np.all(np.isfinite(K[s])):
            return None
    y_new = y + h * (_REF_B @ K[:6])
    if not (np.all(np.isfinite(y_new)) and np.all(y_new > 0.0)):
        return None
    K[6] = rhs(y_new)
    if not np.all(np.isfinite(K[6])):
        return None
    e = h * (_REF_E @ K)
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
    err = sqrt(float(np.mean((e / scale) ** 2)))
    return y_new, K[6], err, K


def _scripted_rhs(bad_call, bad_value, component=0):
    """Velocity (1, 1, 1), with bad_value in one component on call number bad_call; counts calls."""
    calls = []

    def rhs(y):
        calls.append(tuple(y))
        k = [1.0, 1.0, 1.0]
        if len(calls) == bad_call:
            k[component] = bad_value
        return tuple(k)

    return rhs, calls


# The coefficient of stage velocity k_(n+1) in the state of stage n+2 (y_new for n = 5).
_NEXT_COEF = {
    1: integrator._A32, 2: integrator._A43, 3: integrator._A54, 4: integrator._A65, 5: integrator._B6,
}


@pytest.mark.parametrize("bad_call", sorted(_NEXT_COEF))
def test_attempt_step_rejects_stage_outside_positive_cone(bad_call):
    # a huge velocity of the sign that drives the next stage state negative
    value = -1e6 if _NEXT_COEF[bad_call] > 0.0 else 1e6
    rhs, calls = _scripted_rhs(bad_call, value)
    assert _attempt_step(rhs, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 0.1, 1e-10, 1e-13) is None
    assert len(calls) == bad_call  # the negative state was never evaluated
    assert all(min(y) > 0.0 for y in calls)


def test_attempt_step_rejects_negative_first_stage():
    rhs, calls = _scripted_rhs(0, 0.0)
    assert _attempt_step(rhs, (1.0, 1.0, 1.0), (-1e6, 1.0, 1.0), 0.1, 1e-10, 1e-13) is None
    assert calls == []


@pytest.mark.parametrize("bad_value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("bad_call", range(1, 7))
def test_attempt_step_rejects_non_finite_stage_velocity(bad_call, bad_value):
    rhs, calls = _scripted_rhs(bad_call, bad_value)
    assert _attempt_step(rhs, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 1e-3, 1e-10, 1e-13) is None
    assert len(calls) == bad_call


def test_attempt_step_matches_matrix_form_reference(
    sol_symmetric_run, sol_generic_run, sl2r_generic_run, su2_round_run, su2_generic_run
):
    # The float form sums the tableau left to right; BLAS may fuse and reorder
    # the same products, so results differ in the last bits.  y_new is a sum of
    # like-signed terms here and is compared relatively.  err is a difference of
    # nearly cancelling terms (the E weights sum to 0), so its gap is measured
    # against the rms of the term magnitudes instead of err itself.
    rtol, atol = 1e-10, 1e-13
    for traj in (sol_symmetric_run, sol_generic_run, sl2r_generic_run, su2_round_run, su2_generic_run):
        rhs = rhs_function(traj.geometry, traj.spec)
        table = traj._table
        for i in np.unique(np.linspace(0, len(table.h) - 1, 200).round().astype(int)):
            y, h = tuple(table.y0[i].tolist()), float(table.h[i])
            f = rhs(y)
            got = _attempt_step(rhs, y, f, h, rtol, atol)
            want = _reference_step(lambda v: np.array(rhs(v)), np.array(y), np.array(f), h, rtol, atol)
            y_new, K = want[0], want[3]
            assert np.max(np.abs(np.array(got[0]) - y_new) / y_new) <= 1e-14
            assert np.max(np.abs(np.array(got[1]) - K[6]) / np.abs(K[6])) <= 1e-14
            scale = atol + rtol * np.maximum(np.abs(y), y_new)
            magnitude = sqrt(float(np.mean((abs(h) * (np.abs(_REF_E) @ np.abs(K)) / scale) ** 2)))
            assert abs(got[2] - want[2]) <= 1e-14 * magnitude


# The step as written before its guards and error norm were inlined: stage
# states as tuples checked by _positive/_finite, max() and _rms.  The inline
# form must give exactly its bits, or None where it gives None.


def _helper_form_step(rhs, y, f, h, rtol, atol):
    y0, y1, y2 = y
    k10, k11, k12 = f
    s = (y0 + h * (_A21 * k10), y1 + h * (_A21 * k11), y2 + h * (_A21 * k12))
    if not _positive(s):
        return None
    k2 = k20, k21, k22 = rhs(s)
    if not _finite(k2):
        return None
    s = (
        y0 + h * (_A31 * k10 + _A32 * k20),
        y1 + h * (_A31 * k11 + _A32 * k21),
        y2 + h * (_A31 * k12 + _A32 * k22),
    )
    if not _positive(s):
        return None
    k3 = k30, k31, k32 = rhs(s)
    if not _finite(k3):
        return None
    s = (
        y0 + h * (_A41 * k10 + _A42 * k20 + _A43 * k30),
        y1 + h * (_A41 * k11 + _A42 * k21 + _A43 * k31),
        y2 + h * (_A41 * k12 + _A42 * k22 + _A43 * k32),
    )
    if not _positive(s):
        return None
    k4 = k40, k41, k42 = rhs(s)
    if not _finite(k4):
        return None
    s = (
        y0 + h * (_A51 * k10 + _A52 * k20 + _A53 * k30 + _A54 * k40),
        y1 + h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41),
        y2 + h * (_A51 * k12 + _A52 * k22 + _A53 * k32 + _A54 * k42),
    )
    if not _positive(s):
        return None
    k5 = k50, k51, k52 = rhs(s)
    if not _finite(k5):
        return None
    s = (
        y0 + h * (_A61 * k10 + _A62 * k20 + _A63 * k30 + _A64 * k40 + _A65 * k50),
        y1 + h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51),
        y2 + h * (_A61 * k12 + _A62 * k22 + _A63 * k32 + _A64 * k42 + _A65 * k52),
    )
    if not _positive(s):
        return None
    k6 = k60, k61, k62 = rhs(s)
    if not _finite(k6):
        return None
    y_new = z0, z1, z2 = (
        y0 + h * (_B1 * k10 + _B3 * k30 + _B4 * k40 + _B5 * k50 + _B6 * k60),
        y1 + h * (_B1 * k11 + _B3 * k31 + _B4 * k41 + _B5 * k51 + _B6 * k61),
        y2 + h * (_B1 * k12 + _B3 * k32 + _B4 * k42 + _B5 * k52 + _B6 * k62),
    )
    if not _positive(y_new):
        return None
    k7 = k70, k71, k72 = rhs(y_new)
    if not _finite(k7):
        return None
    err = _rms(
        h * (_E1 * k10 + _E3 * k30 + _E4 * k40 + _E5 * k50 + _E6 * k60 + _E7 * k70)
        / (atol + rtol * max(y0, z0)),
        h * (_E1 * k11 + _E3 * k31 + _E4 * k41 + _E5 * k51 + _E6 * k61 + _E7 * k71)
        / (atol + rtol * max(y1, z1)),
        h * (_E1 * k12 + _E3 * k32 + _E4 * k42 + _E5 * k52 + _E6 * k62 + _E7 * k72)
        / (atol + rtol * max(y2, z2)),
    )
    return y_new, k7, err, (*f, *k2, *k3, *k4, *k5, *k6, *k7)


def _step_bits(out):
    """The result of a step attempt as bytes (None stays None); tells -0.0 from 0.0."""
    if out is None:
        return None
    y_new, f_new, err, stages = out
    assert len(y_new) == len(f_new) == 3 and len(stages) == 21
    return np.array([*y_new, *f_new, err, *stages], dtype=float).tobytes()


_FIXTURES = _SINGULAR_FIXTURES + _IMMORTAL_FIXTURES


@pytest.mark.parametrize("flow", list(FLOWS))
@pytest.mark.parametrize("geom", list(Geometry))
def test_attempt_step_is_bitwise_the_helper_form(request, geom, flow):
    # states and step sizes of accepted steps of every canonical run, stepped
    # under this geometry and flow at h, 8h and 1e3h, so that attempts end
    # accepted, rejected on error, and rejected by a stage guard (None)
    rtol, atol = 1e-10, 1e-13
    rhs = rhs_function(geom, FLOWS[flow])
    outcomes = {"none": 0, "rejected": 0, "accepted": 0}
    for name in _FIXTURES:
        table = request.getfixturevalue(name)._table
        for i in np.unique(np.linspace(0, len(table.h) - 1, 12).round().astype(int)):
            y, h = tuple(table.y0[i].tolist()), float(table.h[i])
            f = rhs(y)
            for step in (h, 8.0 * h, 1e3 * h):
                got = _attempt_step(rhs, y, f, step, rtol, atol)
                assert _step_bits(got) == _step_bits(_helper_form_step(rhs, y, f, step, rtol, atol))
                kind = "none" if got is None else "rejected" if got[2] > 1.0 else "accepted"
                outcomes[kind] += 1
    # TRIVIAL's velocity is zero, so its every attempt passes with err = 0
    assert outcomes["accepted"] > 0
    if geom is not Geometry.TRIVIAL:
        assert outcomes["none"] > 0 and outcomes["rejected"] > 0


@pytest.mark.parametrize("component", range(3))
@pytest.mark.parametrize("bad_value", [float("inf"), float("-inf"), float("nan"), -1e6, 1e6])
@pytest.mark.parametrize("bad_call", range(0, 7))
def test_attempt_step_rejections_match_the_helper_form(bad_call, bad_value, component):
    # every stage guard on every component: a non-finite velocity, or one
    # that drives the next stage state out of the positive cone
    y = (1.0, 1.0, 1.0)
    for f in (y, tuple(bad_value if i == component else 1.0 for i in range(3))):
        for h in (1e-3, 0.1):
            rhs, calls = _scripted_rhs(bad_call, bad_value, component)
            ref_rhs, ref_calls = _scripted_rhs(bad_call, bad_value, component)
            got = _attempt_step(rhs, y, f, h, 1e-10, 1e-13)
            assert _step_bits(got) == _step_bits(_helper_form_step(ref_rhs, y, f, h, 1e-10, 1e-13))
            assert calls == ref_calls


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
    # every attempt of these runs passes its stage guards: FSAL costs one
    # evaluation at t=0, one in the initial step heuristic and six per attempt
    assert all(outcomes)
    assert len(calls) == 2 + 6 * len(outcomes)


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
