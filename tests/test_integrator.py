"""Integrator: closed-form accuracy, stop rule, determinism, exact symmetry."""

from __future__ import annotations

import itertools
import random
from math import exp, expm1, fsum, inf, ldexp, log, sqrt

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
from xcflow.integrator import _attempt_step


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


def test_an_error_estimate_that_overflows_rejects_the_attempt():
    # at rtol 1e-200 the squared scaled errors overflow and err is NaN: every
    # attempt is rejected, as an infinite err is, until the retry floor ends the run
    opts = IntegratorOptions(rtol=1e-200, samples=2)
    term = integrate(Geometry.SOL, XCF_MINUS, MetricDiag(2, 4, 1), opts).termination
    assert (term.trigger, term.t_stop, term.n_accepted) == ("step_underflow", 0.0, 0)


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
    # the output grid's density: 512 rows put 32 in each decade of u = t_stop - t
    # (no fit reads the grid; fit windows draw their own rows)
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
    """The dense output at one scaled time, in numpy scalars: the reference for `_StepTable.eval`.

    P(theta) is written out in `dop853.f`'s nested form; theta * Pt(theta)
    and its derivative go through the same levels by the product rule.
    """
    i = int(np.searchsorted(table.t0, t, side="right")) - 1
    h, w0, a, F = table.h[i], table.w0[i], table.a[i], table.q[i]
    c = F[:, 3]
    m = np.expm1(-a)
    e1 = 1.0 if a == 0.0 else -m / a
    lin = w0 * e1
    d = (t - table.t0[i]) / h

    def pt(theta):
        s1 = 1.0 - theta
        p, dp = c[6], 0.0
        for j in range(5, -1, -1):
            g, dg = (theta, 1.0) if j % 2 else (s1, -1.0)
            p, dp = c[j] + g * p, dg * p + g * dp
        return theta * p, p + theta * dp

    v = min(max(d / (lin + pt(1.0)[0]), 0.0), 1.0)
    for n in range(integrator._NEWTON_STEPS + 1):
        vm = max(v * m, integrator._VM_FLOOR)
        theta = v if a == 0.0 else min(-np.log1p(vm) / a, 1.0)
        if n == integrator._NEWTON_STEPS:
            break
        p, dp = pt(theta)
        dtheta = 1.0 if a == 0.0 else e1 / (1.0 + vm)
        v = min(max(v - (lin * v + p - d) / (lin + dp * dtheta), 0.0), 1.0)
    s1 = 1.0 - theta
    P = F[0] + s1 * (F[1] + theta * (F[2] + s1 * (F[3] + theta * (F[4] + s1 * (F[5] + theta * F[6])))))
    return np.ldexp(table.y[i] * np.exp(h * (theta * P[:3])), table.k)


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

# DOP853 in matrix form on numpy vectors, the log/Sundman step written
# without unrolling: the reference for _attempt_step.  Its tableau is a copy
# of the Prince & Dormand (1981) coefficients as `dop853.f` gives them,
# indexed from 0 (stage 12 is f at the new state; 13-15 serve the dense output).
_REF_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6,
    0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778,
])
_REF_A = np.zeros((16, 16))
for (_i, _j), _v in {
    (1, 0): 5.26001519587677318785587544488e-2,
    (2, 0): 1.97250569845378994544595329183e-2, (2, 1): 5.91751709536136983633785987549e-2,
    (3, 0): 2.95875854768068491816892993775e-2, (3, 2): 8.87627564304205475450678981324e-2,
    (4, 0): 2.41365134159266685502369798665e-1, (4, 2): -8.84549479328286085344864962717e-1,
    (4, 3): 9.24834003261792003115737966543e-1,
    (5, 0): 3.7037037037037037037037037037e-2, (5, 3): 1.70828608729473871279604482173e-1,
    (5, 4): 1.25467687566822425016691814123e-1,
    (6, 0): 3.7109375e-2, (6, 3): 1.70252211019544039314978060272e-1, (6, 4): 6.02165389804559606850219397283e-2,
    (6, 5): -1.7578125e-2,
    (7, 0): 3.70920001185047927108779319836e-2, (7, 3): 1.70383925712239993810214054705e-1,
    (7, 4): 1.07262030446373284651809199168e-1, (7, 5): -1.53194377486244017527936158236e-2,
    (7, 6): 8.27378916381402288758473766002e-3,
    (8, 0): 6.24110958716075717114429577812e-1, (8, 3): -3.36089262944694129406857109825,
    (8, 4): -8.68219346841726006818189891453e-1, (8, 5): 2.75920996994467083049415600797e1,
    (8, 6): 2.01540675504778934086186788979e1, (8, 7): -4.34898841810699588477366255144e1,
    (9, 0): 4.77662536438264365890433908527e-1, (9, 3): -2.48811461997166764192642586468,
    (9, 4): -5.90290826836842996371446475743e-1, (9, 5): 2.12300514481811942347288949897e1,
    (9, 6): 1.52792336328824235832596922938e1, (9, 7): -3.32882109689848629194453265587e1,
    (9, 8): -2.03312017085086261358222928593e-2,
    (10, 0): -9.3714243008598732571704021658e-1, (10, 3): 5.18637242884406370830023853209,
    (10, 4): 1.09143734899672957818500254654, (10, 5): -8.14978701074692612513997267357,
    (10, 6): -1.85200656599969598641566180701e1, (10, 7): 2.27394870993505042818970056734e1,
    (10, 8): 2.49360555267965238987089396762, (10, 9): -3.0467644718982195003823669022,
    (11, 0): 2.27331014751653820792359768449, (11, 3): -1.05344954667372501984066689879e1,
    (11, 4): -2.00087205822486249909675718444, (11, 5): -1.79589318631187989172765950534e1,
    (11, 6): 2.79488845294199600508499808837e1, (11, 7): -2.85899827713502369474065508674,
    (11, 8): -8.87285693353062954433549289258, (11, 9): 1.23605671757943030647266201528e1,
    (11, 10): 6.43392746015763530355970484046e-1,
    (12, 0): 5.42937341165687622380535766363e-2, (12, 5): 4.45031289275240888144113950566,
    (12, 6): 1.89151789931450038304281599044, (12, 7): -5.8012039600105847814672114227,
    (12, 8): 3.1116436695781989440891606237e-1, (12, 9): -1.52160949662516078556178806805e-1,
    (12, 10): 2.01365400804030348374776537501e-1, (12, 11): 4.47106157277725905176885569043e-2,
    (13, 0): 5.61675022830479523392909219681e-2, (13, 6): 2.53500210216624811088794765333e-1,
    (13, 7): -2.46239037470802489917441475441e-1, (13, 8): -1.24191423263816360469010140626e-1,
    (13, 9): 1.5329179827876569731206322685e-1, (13, 10): 8.20105229563468988491666602057e-3,
    (13, 11): 7.56789766054569976138603589584e-3, (13, 12): -8.298e-3,
    (14, 0): 3.18346481635021405060768473261e-2, (14, 5): 2.83009096723667755288322961402e-2,
    (14, 6): 5.35419883074385676223797384372e-2, (14, 7): -5.49237485713909884646569340306e-2,
    (14, 10): -1.08347328697249322858509316994e-4, (14, 11): 3.82571090835658412954920192323e-4,
    (14, 12): -3.40465008687404560802977114492e-4, (14, 13): 1.41312443674632500278074618366e-1,
    (15, 0): -4.28896301583791923408573538692e-1, (15, 5): -4.69762141536116384314449447206,
    (15, 6): 7.68342119606259904184240953878, (15, 7): 4.06898981839711007970213554331,
    (15, 8): 3.56727187455281109270669543021e-1, (15, 12): -1.39902416515901462129418009734e-3,
    (15, 13): 2.9475147891527723389556272149, (15, 14): -9.15095847217987001081870187138,
}.items():
    _REF_A[_i, _j] = _v
_REF_B = _REF_A[12, :12]
_REF_E5 = np.zeros(13)
_REF_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1, -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
)
_REF_E3 = np.zeros(13)  # 8th- less 3rd-order weights
_REF_E3[:12] = _REF_B
_REF_E3[[0, 8, 11]] -= (
    0.244094488188976377952755905512, 0.733846688281611857341361741547, 0.220588235294117647058823529412e-1,
)


def _sundman_speed(g, smin):
    """s = max(|g_A|, |g_B|, |g_C|, smin), by the comparisons of `integrator._velocity`."""
    s = g[0] if g[0] >= 0.0 else -g[0]
    for v in g[1:]:
        a = v if v >= 0.0 else -v
        s = a if a > s else s
    return smin if smin > s else s


def _reference_step(rhs, y, f, h, t, smin, rtol, atol):
    def rate(z):
        g = np.array(rhs(z)) / z
        s = _sundman_speed(g, smin)
        return np.append(g / s, 1.0 / s)

    K = np.empty((13, 4))
    K[0] = f
    with np.errstate(over="ignore"):
        for s in range(1, 13):
            z = y * np.exp(h * (_REF_A[s, :s] @ K[:s, :3]))
            if not (np.all(np.isfinite(z)) and np.all(z > 0.0)):
                return None
            K[s] = rate(z)
            if not np.all(np.isfinite(K[s])):
                return None
    w = K[:, 3]
    a = np.log(w[0] / w[12])
    r = w - w[0] * np.exp(-a * _REF_C[:13])  # dt/dtau less the exponential through both ends
    dt = h * (w[0] * -np.expm1(-a) / a + _REF_B @ r[:12])
    scale = np.array([rtol, rtol, rtol, atol + rtol * (t + dt)])
    Kr = np.column_stack([K[:, :3], r])
    e5, e3 = (_REF_E5 @ Kr) / scale, (_REF_E3 @ Kr) / scale
    s5, s3 = float(e5 @ e5), float(e3 @ e3)
    return z, dt, K[12], h * s5 / sqrt(4.0 * (s5 + 0.01 * s3)), Kr


def _integrator_tableau():
    """The integrator's stage weights as one 16 x 16 matrix, its error weights and its nodes."""
    A = np.zeros((16, 16))
    for i in range(2, 13):
        for j in range(1, i):
            A[i - 1, j - 1] = getattr(integrator, f"_A{i}_{j}", 0.0)
    for i, row in enumerate(integrator._EXTRA, 13):
        for j, a in row:
            A[i, j] = a
    for j in range(1, 13):
        A[12, j - 1] = getattr(integrator, f"_B{j}", 0.0)
    E5 = np.array([getattr(integrator, f"_E{j}", 0.0) for j in range(1, 14)])
    bhh = np.array([getattr(integrator, f"_BHH{j}", 0.0) for j in range(1, 14)])
    return A, E5, bhh, integrator._C


def test_tableau_is_the_reference_copy_and_meets_the_order_conditions():
    A, E5, bhh, c = _integrator_tableau()
    assert np.array_equal(A, _REF_A) and np.array_equal(c, _REF_C) and np.array_equal(E5, _REF_E5)
    b = A[12, :12]
    assert np.array_equal(b - bhh[:12], _REF_E3[:12])
    nodes = (integrator._C6, integrator._C7, integrator._C8, integrator._C9, integrator._C10, integrator._C11)
    assert nodes == tuple(c[5:11])
    # quadrature conditions of order 8
    for q in range(1, 9):
        assert abs(fsum(b * c[:12] ** (q - 1)) - 1.0 / q) <= 1e-14, q
    # every row, the three stages of the dense output too, sums to its node
    for i in range(1, 16):
        assert abs(fsum(A[i, :i]) - c[i]) <= 4e-16 * fsum(np.abs(A[i, :i])), i
    # both error estimates vanish on constants: their weights sum to 0
    for e in (E5, b - bhh[:12]):
        assert abs(fsum(e)) <= 4e-16 * fsum(np.abs(e))


@pytest.mark.parametrize("theta", [0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
def test_dense_weights_meet_the_quadrature_conditions_of_their_order(theta):
    # the weights b_i(theta) of xi = x0 + h * sum_i b_i(theta) k_i, built in
    # long double from the stage weights of F0-F6 by the nested form, integrate
    # c^(q-1) exactly up to q = 7, and with F3-F6 = 0 (the cubic Hermite part)
    # up to q = 3; at theta = 1 both are the b_i
    ld = np.longdouble
    b = np.zeros(16, dtype=ld)
    b[integrator._INCREMENT[0]] = integrator._INCREMENT[1].ravel()
    one, end = np.eye(16, dtype=ld)[[0, 12]]
    d = np.zeros((4, 16), dtype=ld)
    d[:, 5:] = integrator._D
    d[:, 0] = -d.sum(axis=1)  # the differences k_i - k_1 give stage 1 the weight that makes each row sum to 0
    th, s1 = ld(theta), 1 - ld(theta)
    c = integrator._C.astype(ld)
    for F, order in (((b, one - b, 2 * b - one - end, *d), 7), ((b, one - b, 2 * b - one - end, *(0 * d)), 3)):
        p = F[6]
        for j in range(5, -1, -1):
            p = F[j] + (th if j % 2 else s1) * p
        weights = th * p
        for q in range(1, order + 1):
            assert abs(float((weights * c ** (q - 1)).sum() - th**q / q)) <= 1e-14, (order, q)
        if theta < 1.0:  # and no further inside the step
            assert abs(float((weights * c**order).sum() - th ** (order + 1) / (order + 1))) > 1e-7, order


def _built(traj):
    """A fresh copy of a trajectory's step table with the interpolant of every step built."""
    table = traj._table._replace()
    table._build(np.arange(len(table.h)))
    return table


def test_a_built_step_table_holds_float_arrays_with_the_same_bytes_on_every_run():
    # no long-double field, whose padding bytes numpy leaves uninitialised
    runs = [integrate(Geometry.SOL, XCF_MINUS, MetricDiag(2, 4, 1), IntegratorOptions(samples=64)) for _ in range(2)]
    first, second = (_built(traj) for traj in runs)
    names = [name for name, value in vars(first).items() if isinstance(value, np.ndarray)]
    assert sorted(names) == sorted(["t0", "h", "y", "K", "w0", "a", "q", "ready"])
    for name in names:
        assert getattr(first, name).dtype == (np.bool_ if name == "ready" else np.float64), name
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name


def test_dense_output_at_theta_1_reproduces_each_step_end(sol_generic_run, su2_generic_run, e2_generic_run):
    # at theta = 1 the nested form is F0, the stepper's own increment, so the
    # stepper's y * exp(h * F0) is its next state to the bit
    for traj in (sol_generic_run, su2_generic_run, e2_generic_run):
        table = _built(traj)
        h, F0 = table.h[:-1], table.q[:-1, 0]
        y1 = [[y * exp(hi * f) for y, f in zip(yi, fi)] for yi, hi, fi in zip(table.y.tolist(), h.tolist(), F0[:, :3].tolist())]
        assert np.array(y1).tobytes() == table.y[1:].tobytes()
        a = table.a[:-1]
        e1 = np.where(a == 0.0, 1.0, -np.expm1(-a) / np.where(a == 0.0, 1.0, a))
        t1 = table.t0[:-1] + h * (table.w0[:-1] * e1 + F0[:, 3])
        assert np.max(np.abs(t1 - table.t0[1:]) / table.t0[1:]) <= 1e-14


def test_a_row_has_the_same_bits_whatever_else_is_sampled(sol_generic_run, heisenberg_unit_run):
    # the extension's stages of a step come from that step alone, so a row
    # sampled on its own equals the row of the full grid
    for traj in (sol_generic_run, heisenberg_unit_run):
        grid = np.ldexp(traj.times, -2 * traj._table.k)
        for i in np.linspace(0, len(grid) - 1, 9).round().astype(int):
            alone = traj._table._replace().eval(grid[i : i + 1])
            assert alone.tobytes() == traj.states[i : i + 1].tobytes()


def _grid(traj, n):
    """The n-row sample grid of a run, in its step table's scaled times."""
    term, k = traj.termination, traj._table.k
    return integrator._sample_times(term.kind, ldexp(term.t_stop, -2 * k), n)


@pytest.mark.parametrize("n", [2, 512, 8192, 100_000])
def test_rows_evaluated_in_chunks_equal_rows_evaluated_in_stacks_of_1000(sol_generic_run, n):
    # `eval` cuts a grid into chunks of `_EVAL_CHUNK` rows; stacks of 1,000
    # cut it elsewhere, so every chunk boundary falls inside a stack
    grid = _grid(sol_generic_run, n)
    rows = sol_generic_run._table._replace().eval(grid)
    table = sol_generic_run._table._replace()
    stacks = np.concatenate([table.eval(grid[i : i + 1000]) for i in range(0, n, 1000)])
    assert rows.shape == (n, 3) and rows.tobytes() == stacks.tobytes()


def test_a_dense_output_peaks_at_a_bounded_memory_per_row(sol_generic_run):
    # the 24 bytes of each row, and one chunk's temporaries shared by all;
    # evaluated in one pass, 10^5 rows peaked at about 400 bytes a row
    import tracemalloc

    n = 100_000
    grid = _grid(sol_generic_run, n)
    table = sol_generic_run._table._replace()
    tracemalloc.start()
    try:
        table.eval(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 64


@pytest.mark.parametrize("fault", ["overflow", "nan"])
def test_a_step_whose_extra_stage_fails_keeps_its_rows(sol_generic_run, su2_generic_run, fault):
    # the extension's stages are rejected like a step's: the step's rows come
    # from the cubic Hermite interpolant through its two ends instead
    def faulty(y):
        if fault == "overflow":
            raise OverflowError("planted")
        return (float("nan"),) * 3

    for traj in (sol_generic_run, su2_generic_run):
        table = traj._table._replace(rhs=faulty)
        got = table.eval(np.ldexp(traj.times, -2 * table.k))
        assert got.shape == traj.states.shape and np.all(np.isfinite(got)) and np.all(got > 0.0)
        assert np.max(np.abs(got - traj.states) / traj.states) <= 1e-4
        assert got[0].tobytes() == traj.states[0].tobytes()  # theta = 0 is the step start exactly


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
@pytest.mark.parametrize("bad_call", range(1, 13))
def test_attempt_step_rejects_non_finite_stage_velocity(bad_call, bad_value):
    rhs, calls = _scripted_rhs(bad_call, bad_value)
    assert _attempt_step(rhs, _UNIT, _UNIT_VELOCITY, 1e-3, 0.0, 0.1, 1e-10, 1e-13) is None
    assert len(calls) == bad_call


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
@pytest.mark.parametrize("bad_call", range(1, 13))
def test_attempt_step_rejects_a_raising_stage(bad_call, error):
    # a kernel that overflows or divides by zero rejects the attempt, it does not propagate
    rhs, calls = _scripted_rhs(bad_call, error)
    assert _attempt_step(rhs, _UNIT, _UNIT_VELOCITY, 1e-3, 0.0, 0.1, 1e-10, 1e-13) is None
    assert len(calls) == bad_call


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_attempt_step_rejects_a_stage_state_beyond_the_floats(sign):
    # |dxi/dtau| <= 1, so only a step of thousands of units of tau takes exp
    # past the floats at the second stage (c = 0.0526): above, math.exp raises
    # before the rhs sees the state; below, the state underflows to 0 and
    # g = (dy/dt)/y divides by zero
    rhs, calls = _scripted_rhs(0, 0.0)
    f = (sign, sign, sign, 1.0)
    assert _attempt_step(rhs, _UNIT, f, 1e5, 0.0, 0.1, 1e-10, 1e-13) is None
    assert len(calls) == (0 if sign > 0.0 else 1)


def _table_points(traj, count):
    """(scaled state, scaled time, step size) at up to `count` accepted steps spread over the run."""
    table = traj._table
    for i in np.unique(np.linspace(0, len(table.h) - 1, count).round().astype(int)):
        yield tuple(table.y[i].tolist()), float(table.t0[i]), float(table.h[i])


def _smin(traj):
    return 1.0 / ldexp(traj.options.t_max, -2 * traj._table.k)


def test_attempt_step_matches_matrix_form_reference(
    sol_symmetric_run, sol_generic_run, sl2r_generic_run, su2_round_run, su2_generic_run
):
    # The float form sums the tableau left to right; BLAS may fuse and reorder
    # the same products, so results differ in the last bits: DOP853's stage
    # weights reach 43 in magnitude (up to 93 summed over a row), so those
    # bits reach 3e-14 here, and states, dt and velocities are compared to
    # 1e-13, relatively where they are positive.  err is built from differences of
    # nearly cancelling terms (both error weight rows sum to 0), and its
    # gradient in the 5th-order errors is at most h and in the 3rd-order ones
    # at most h/10, so its gap is measured against those term magnitudes.
    rtol, atol = 1e-10, 1e-13
    for traj in (sol_symmetric_run, sol_generic_run, sl2r_generic_run, su2_round_run, su2_generic_run):
        rhs = rhs_function(traj.geometry, traj.spec)
        smin = _smin(traj)
        for y, t, h in _table_points(traj, 60):
            f = integrator._velocity(rhs, y, smin)
            got = _attempt_step(rhs, y, f, h, t, smin, rtol, atol)
            want = _reference_step(rhs, np.array(y), np.array(f), h, t, smin, rtol, atol)
            z, dt, k13, err, Kr = want
            assert np.max(np.abs(np.array(got[0]) - z) / z) <= 1e-13
            assert abs(got[1] - dt) <= 1e-13 * dt
            assert np.max(np.abs(np.array(got[2]) - k13)) <= 1e-13
            scale = np.array([rtol, rtol, rtol, atol + rtol * (t + dt)])
            m5 = np.abs(_REF_E5) @ np.abs(Kr) / scale
            m3 = np.abs(_REF_E3) @ np.abs(Kr) / scale
            magnitude = h * (np.linalg.norm(m5) + 0.1 * np.linalg.norm(m3))
            assert abs(got[3] - err) <= 1e-14 * magnitude


# The step written with loops over the tableau rows and a helper for the
# stage velocity, instead of unrolled into locals.  The unrolled form must
# give exactly its bits, or None where it gives None.

def _row(i, stop=None):
    """(weight, stage) pairs of the nonzero weights of row i of the reference tableau, in stage order."""
    stop = i if stop is None else stop
    return tuple((_REF_A[i, j], j) for j in range(stop) if _REF_A[i, j] != 0.0)


_STAGE_ROWS = tuple(_row(i) for i in range(1, 13))  # row 12 is the new state, where stage 13 is evaluated
_E5_ROW = tuple((_REF_E5[j], j) for j in range(12) if _REF_E5[j] != 0.0)
_BHH_ROW = tuple((_REF_B[j] - _REF_E3[j], j) for j in (0, 8, 11))
_T_NODES = tuple((j, _REF_C[j]) for j in range(5, 12))  # the stages with weight in t, stages 2-5 have none


def _weighted(row, ks, c):
    total = row[0][0] * ks[row[0][1]][c]
    for coef, j in row[1:]:
        total = total + coef * ks[j][c]
    return total


def _stage_velocity(rhs, z, smin):
    g = [v / c for v, c in zip(rhs(z), z)]
    s = _sundman_speed(g, smin)
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
        a = log(w[0] / w[12])
        lin = w[0] if a == 0.0 else w[0] * -expm1(-a) / a
        r = [0.0] * 5 + [w[j] - w[0] * exp(-c * a) for j, c in _T_NODES]
    except (OverflowError, ZeroDivisionError):
        return None
    rs = [(v,) for v in r]  # r as the single component of stage-indexed rows
    bt = _weighted(_STAGE_ROWS[-1][1:], rs, 0)  # stage 1 lies on the exponential: r = 0 there
    dt = h * (lin + bt)
    st = atol + rtol * (t + dt)
    e5 = [_weighted(_E5_ROW, ks, c) / rtol for c in range(3)] + [_weighted(_E5_ROW[1:], rs, 0) / st]
    b = [_weighted(_STAGE_ROWS[-1], ks, c) for c in range(3)]
    e3 = [(b[c] - _weighted(_BHH_ROW, ks, c)) / rtol for c in range(3)] + [(bt - _weighted(_BHH_ROW[1:], rs, 0)) / st]
    s5 = ((e5[0] * e5[0] + e5[1] * e5[1]) + e5[2] * e5[2]) + e5[3] * e5[3]
    s3 = ((e3[0] * e3[0] + e3[1] * e3[1]) + e3[2] * e3[2]) + e3[3] * e3[3]
    deno = s5 + 0.01 * s3
    err = h * s5 / sqrt(4.0 * deno) if deno > 0.0 else 0.0
    return z, dt, ks[12], err, tuple(v for k in ks for v in k)


def _step_bits(out):
    """The result of a step attempt as bytes (None stays None); tells -0.0 from 0.0."""
    if out is None:
        return None
    y_new, dt, f_new, err, stages = out
    assert len(y_new) == 3 and len(f_new) == 4 and len(stages) == 52
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
@pytest.mark.parametrize("bad_call", range(0, 13))
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


# Stages 14-16 of the continuous extension, step by step in pure Python from
# rows 14-16 of the reference tableau: the one pass of `_extra_stages`, which
# forms the stage sums on numpy columns, must give exactly their bits.

def _stage_state(ks, y, h, row):
    return tuple(y[c] * exp(h * _weighted(_row(row), ks, c)) for c in range(3))


def _reference_extra_stages(rhs, y, k, h, smin):
    ks = [tuple(stage) for stage in k]
    for row in range(13, 16):
        ks.append(integrator._velocity(rhs, _stage_state(ks, y, h, row), smin))
    return ks[13:]


def test_extra_stages_are_bitwise_the_per_step_reference(
    sol_generic_run, su2_generic_run, heisenberg_unit_run, e2_generic_run
):
    for traj in (sol_generic_run, su2_generic_run, heisenberg_unit_run, e2_generic_run):
        table = traj._table
        K, ok = integrator._extra_stages(table.rhs, table.y, table.K, table.h, table.smin)
        assert K.shape == (len(table.h), 16, 4) and ok.all()
        assert K[:, :13].tobytes() == table.K.tobytes()
        want = [
            _reference_extra_stages(table.rhs, y, k, h, table.smin)
            for y, k, h in zip(table.y.tolist(), table.K.tolist(), table.h.tolist())
        ]
        assert K[:, 13:16].tobytes() == np.array(want).tobytes()


def test_a_step_whose_stage_14_raises_stops_there_and_moves_no_other_step(sol_generic_run):
    # only the middle step's stage 14 raises: that step makes no stage-15 or
    # stage-16 call and falls back to its Hermite rows, and every other step
    # keeps its stages and interpolant to the bit
    table = sol_generic_run._table
    n, bad = len(table.h), len(table.h) // 2
    z14 = _stage_state([tuple(k) for k in table.K[bad].tolist()], table.y[bad].tolist(), float(table.h[bad]), 13)
    calls = []

    def rhs(z):
        calls.append(tuple(z))
        if tuple(z) == z14:
            raise OverflowError("planted")
        return table.rhs(z)

    clean, _ = integrator._extra_stages(table.rhs, table.y, table.K, table.h, table.smin)
    K, ok = integrator._extra_stages(rhs, table.y, table.K, table.h, table.smin)
    assert np.flatnonzero(~ok).tolist() == [bad]
    assert calls.count(z14) == 1 and len(calls) == 3 * (n - 1) + 1
    others = np.arange(n) != bad
    assert K[others].tobytes() == clean[others].tobytes()
    assert K[bad, :13].tobytes() == table.K[bad].tobytes()
    faulty, full = table._replace(rhs=rhs), _built(sol_generic_run)
    faulty._build(np.arange(n))
    assert faulty.q[others].tobytes() == full.q[others].tobytes()
    assert faulty.q[bad].tobytes() != full.q[bad].tobytes()


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
            stages = np.array(stages).reshape(13, 4)
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
    # evaluation at t=0 and twelve per attempt, and the first step is fixed in
    # tau; each step that holds a sample time adds the extension's three stages
    assert all(outcomes)
    extended = int(np.count_nonzero(wrapped._table.ready))
    assert 0 < extended <= term.n_accepted
    assert len(calls) == 1 + 12 * len(outcomes) + 3 * extended


# ---------------------------------------------------------------------------
# `terminate` runs the same step loop as `integrate` and keeps nothing


def _bits(term):
    """A Termination's fields, its one float as its hex text, so that equality is bitwise."""
    return (term.kind, term.t_stop.hex(), term.vanishing, term.exploding, term.trigger,
            term.n_accepted, term.n_rejected)


def _seeded_datum(geom, flow):
    rng = random.Random(f"terminate/{geom.value}/{flow}")
    return MetricDiag(*(rng.uniform(0.3, 5.0) for _ in range(3)))


@pytest.mark.parametrize("flow", list(FLOWS))
@pytest.mark.parametrize("geom", list(Geometry), ids=lambda g: g.value)
def test_terminate_is_the_termination_of_integrate(geom, flow):
    m0 = _seeded_datum(geom, flow)
    for t_max in (1.0, 10.0, 1e3):
        opts = IntegratorOptions(t_max=t_max, samples=2)
        want = integrate(geom, FLOWS[flow], m0, opts).termination
        got = integrator.terminate(geom, FLOWS[flow], m0, opts)
        kept = integrator.accepted_states(geom, FLOWS[flow], m0, opts)[0]
        assert _bits(got) == _bits(kept) == _bits(want)


@pytest.mark.parametrize("geom", list(Geometry), ids=lambda g: g.value)
def test_terminate_spends_the_step_budget_as_integrate_does(geom):
    opts = IntegratorOptions(t_max=1e6, max_steps=3, samples=2)  # trivial needs 4 steps to its horizon
    m0 = _seeded_datum(geom, "xcf-")
    want = integrate(geom, XCF_MINUS, m0, opts).termination
    got = integrator.terminate(geom, XCF_MINUS, m0, opts)
    kept = integrator.accepted_states(geom, XCF_MINUS, m0, opts)[0]
    assert got.trigger == "max_steps" and got.n_accepted + got.n_rejected == 3
    assert _bits(got) == _bits(kept) == _bits(want)


@pytest.mark.parametrize("max_steps", [3, 10_000_000])
def test_terminate_of_a_run_that_stops_before_its_first_accepted_step(max_steps):
    # at rtol 1e-200 every attempt is rejected: the budget or the retry floor ends the run at t = 0
    opts = IntegratorOptions(rtol=1e-200, max_steps=max_steps, samples=2)
    traj = integrate(Geometry.SOL, XCF_MINUS, MetricDiag(2, 4, 1), opts)
    assert traj._table is None and traj.termination.n_accepted == 0
    assert _bits(integrator.terminate(Geometry.SOL, XCF_MINUS, MetricDiag(2, 4, 1), opts)) == _bits(traj.termination)


@pytest.mark.parametrize("max_steps", [3, 10_000_000])
def test_accepted_states_of_a_run_that_stops_before_its_first_accepted_step_are_m0(max_steps):
    opts = IntegratorOptions(rtol=1e-200, max_steps=max_steps, samples=2)
    term, states = integrator.accepted_states(Geometry.SOL, XCF_MINUS, MetricDiag(2, 4, 1), opts)
    assert _bits(term) == _bits(integrator.terminate(Geometry.SOL, XCF_MINUS, MetricDiag(2, 4, 1), opts))
    assert states.tobytes() == np.array([[2.0, 4.0, 1.0]]).tobytes()


def test_terminate_takes_the_default_options_and_rejects_what_integrate_rejects():
    m0 = MetricDiag(2, 4, 1)
    assert integrator.terminate(Geometry.SOL, XCF_MINUS, m0) == integrate(Geometry.SOL, XCF_MINUS, m0).termination
    for bad in (MetricDiag(1e-200, 1.0, 1e-200), MetricDiag(2e-300, 4e-300, 1e-300)):
        with pytest.raises(ValueError):
            integrator.terminate(Geometry.SOL, XCF_MINUS, bad)


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
            geom, FLOWS[flow], MetricDiag(*(ldexp(v, k) for v in m0)), opts._replace(t_max=ldexp(10.0, 2 * k))
        )
        assert np.ldexp(run.times, -2 * k).tobytes() == base.times.tobytes()
        assert np.ldexp(run.states, -k).tobytes() == base.states.tobytes()
        assert run.termination == base.termination._replace(t_stop=ldexp(base.termination.t_stop, 2 * k))


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
@pytest.mark.parametrize("stage", range(1, 13))
def test_a_fault_planted_at_every_attempt_ends_the_run_in_bounded_cost(monkeypatch, stage, kind):
    # the right-hand side fails at this stage of every attempt: each attempt
    # is rejected, h halves, and the retry floor ends the run at t = 0
    real_rhs_function = integrator.rhs_function

    def faulty_rhs_function(geometry, spec):
        fn = real_rhs_function(geometry, spec)
        calls = []

        def rhs(y):
            calls.append(1)
            if len(calls) > 1 and (len(calls) - 2) % 12 == stage - 1:
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


@pytest.mark.parametrize(
    "field, value",
    [
        ("samples", 100.5), ("samples", 64.0), ("samples", "64"), ("samples", True), ("samples", None),
        ("max_steps", 1e6), ("max_steps", np.float64(10.0)), ("max_steps", False),
        ("t_max", True), ("t_max", "10"), ("rtol", None), ("atol", np.True_),
    ],
)
def test_options_reject_a_value_of_the_wrong_type_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        IntegratorOptions(**{field: value})


def test_options_refuse_more_samples_than_the_limit():
    # the limit bounds the memory of a sample grid; the limit itself is accepted
    assert integrator._SAMPLES_LIMIT == 1_000_000
    assert IntegratorOptions(samples=integrator._SAMPLES_LIMIT).samples == integrator._SAMPLES_LIMIT
    for samples in (integrator._SAMPLES_LIMIT + 1, 10**15, np.int64(10**15)):
        with pytest.raises(ValueError, match="^samples must be between 2 and 1000000, got "):
            IntegratorOptions(samples=samples)


def test_options_take_numpy_integers_as_counts():
    counts = IntegratorOptions(t_max=1, samples=np.int64(64), max_steps=np.int32(10_000))
    plain = IntegratorOptions(t_max=1.0, samples=64, max_steps=10_000)
    got, want = (integrate(Geometry.SOL, XCF_MINUS, MetricDiag(2, 4, 1), opts) for opts in (counts, plain))
    assert got.states.shape == (64, 3)
    assert got.times.tobytes() == want.times.tobytes() and got.states.tobytes() == want.states.tobytes()
    assert got.termination == want.termination
