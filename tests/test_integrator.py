"""Integrator: closed-form accuracy, events, determinism, exact symmetry."""

from __future__ import annotations

import numpy as np
import pytest

from xcflow import (
    Geometry,
    IntegratorOptions,
    MetricDiag,
    NXCF,
    TerminationKind,
    XCF_MINUS,
    heisenberg_exact,
    integrate,
    sample_at,
    series_values,
    sol_symmetric_exact,
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
        {"floor_factor": 2.0},
        {"ceil_factor": 0.5},
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
    assert sol_symmetric_run.t_switch is not None


def test_heisenberg_reaches_horizon(heisenberg_short_run):
    term = heisenberg_short_run.termination
    assert term.kind is TerminationKind.REACHED_T_MAX
    assert term.t_stop == 10.0
    # (1 + 7*4*10) = 281; A(10) = 281^(-1/14) ~ 0.668533
    a_final = heisenberg_short_run.states[-1, 0]
    assert a_final == pytest.approx(281.0 ** (-1.0 / 14.0), rel=1e-8)
    # all coefficients stay within [1e-2, 1e2] of their start, so no switch
    assert heisenberg_short_run.t_switch is None


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
    assert traj.termination.n_accepted <= 25
    assert 0.0 < traj.t_end < 1e6
    assert len(traj.times) == len(traj.states)


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
    want = heisenberg_exact(MetricDiag(1, 1, 1), 10.0).as_array()
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
# Closed-form accuracy along the whole run


def test_heisenberg_run_tracks_exact_solution(heisenberg_short_run):
    worst = 0.0
    for t, row in zip(heisenberg_short_run.times, heisenberg_short_run.states):
        want = heisenberg_exact(MetricDiag(1, 1, 1), float(t)).as_array()
        worst = max(worst, float(np.max(np.abs(row - want) / want)))
    assert worst <= 1e-8


def test_sol_symmetric_run_tracks_exact_solution(sol_symmetric_run):
    t0 = 1.0
    worst = 0.0
    for t, row in zip(sol_symmetric_run.times, sol_symmetric_run.states):
        if t > 0.99 * t0:
            break
        want = sol_symmetric_exact(1.0, 8.0, float(t)).as_array()
        worst = max(worst, float(np.max(np.abs(row - want) / want)))
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
