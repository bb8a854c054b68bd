"""Adaptive integration of the coefficient flows through finite-time singularities.

The flows are homogeneous: g -> lam*g with t -> lam^2*t maps solutions to
solutions.  The integrator works in variables in which that scaling is a
translation, so that a self-similar collapse becomes a nearly straight line:

* units: the run is scaled by lam = 2^k, k the binary exponent of the
  largest initial coefficient (`math.frexp`).  The flow is computed from
  the scaled metric y0/lam up to t_max/lam^2 and mapped back at the end.
  Each of these scalings is exact, so `integrate(2^k g, 4^k t_max)` is the
  base run with its times times 4^k and its states times 2^k, bit for bit.
  `atol` applies to the scaled time;
* log coordinates: the step advances xi = log(y / y0) componentwise, as
  y -> y * exp(dxi), so every state is positive by construction and row 0
  is y0 exactly.  The first integrals of the catalogued branches (A^3 B,
  B/C, the volume under the normalized flows) are linear in xi, which a
  Runge-Kutta step conserves to rounding;
* Sundman time: the independent variable is tau with dtau = s dt, where
  s = max(|d log A/dt|, |d log B/dt|, |d log C/dt|, 1/t_max) in scaled
  units.  So |dxi/dtau| <= 1, and t is a fourth component with
  dt/dtau = 1/s <= t_max.  Near a self-similar singularity dxi/dtau is
  nearly constant while T0 - t decays exponentially in tau.  The floor
  1/t_max makes a fixed point cross [0, t_max] in one unit of tau.

The scheme is the embedded Dormand-Prince 5(4) pair (FSAL) on the four
components (xi_A, xi_B, xi_C, t), with a proportional-integral step
controller and the standard quartic dense output for xi.  Each xi component
is held to `rtol` (it is already relative in y), and t to atol + rtol * t.
t is the integral of w = 1/s: the exponential through w at both ends of a
step is integrated exactly and the DP5 weights (and the interpolant) apply
to the rest, so the geometric approach to T0 costs no accuracy in t.  The
first trial step is 0.01 in tau and no step exceeds 0.5, which keeps the
quartic dense output of xi accurate on the approach.

* rejection: a trial step is rejected and retried at half the step on an
  ArithmeticError: a stage velocity that is not finite, an `exp` that
  overflows, or a kernel that divides by an underflowed (ABC)^2.  At the
  initial metric that is a ValueError;
* stop rules: every run ends on exactly one trigger.  `t_max` when an
  accepted step reaches the horizon (the step that crosses it is kept, and
  t_stop is t_max exactly); `step_underflow` when an accepted step advances
  t by at most 1e-13 of t, so that T0 - t_stop is about 1e-13 T0, or when
  the retry step after a rejection falls below 1e-12 in tau; `max_steps`
  when the attempt budget is spent;
* dense sampling: the returned trajectory carries `samples` interpolated
  rows at times chosen in t; runs that end at a singular time are sampled
  geometrically in (t_stop - t) down to the stop rule's resolution, so
  every decade of the approach is resolved at equal density in
  log-distance to the singular time.  A sample time is
  mapped to tau by Newton's method on its step's interpolant of t, and the
  state is y0 * exp(xi) evaluated in long double and rounded once, so
  consecutive samples move by at most one rounding.

The step runs on Python floats, so an attempt makes no numpy call.  Each
stage state is one tableau row written out component by component into
locals, and each stage velocity is one call of `_velocity`, which evaluates
the right-hand side, s and the finiteness guard.  The stage
velocities of every accepted step are kept in a flat array, and the
interpolant coefficients of the whole step table are built once, after the
last step, with the same operations for every step and every component.

Step times are accumulated with compensated summation, which keeps
(t_stop - t) accurate to one ulp of t near blow-up.

Integration is deterministic: identical inputs produce bitwise identical
trajectories.  The right-hand sides evaluate exactly symmetrically on
exactly symmetric states, so invariant reductions (Sol with A=C, SL(2,R)
with B=C, SU(2) with equal pairs, E(2) with A=B) are preserved to the bit
rather than to a tolerance.
"""

from __future__ import annotations

from array import array
from dataclasses import asdict, dataclass
from enum import Enum
from math import exp, expm1, frexp, isfinite, ldexp, log, sqrt

import numpy as np

from .flows import FlowSpec, rhs_function
from .geometry import Geometry, MetricDiag

__all__ = [
    "IntegratorOptions",
    "TerminationKind",
    "Termination",
    "Trajectory",
    "integrate",
    "sample_at",
]

# Dormand-Prince 5(4) tableau, FSAL form: stage coefficients _Aij, 5th order
# weights _Bi (_B2 = 0, and the 7th stage is f at the new state), error
# weights _Ei = 5th minus 4th order weights (_E2 = 0), and the quartic
# interpolant coefficients _RK_P, one row per stage.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
_RK_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])  # stage abscissae, in units of the step
_INF = float("inf")

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_BETA = 0.04  # PI controller integral gain
_EXPO = 0.2 - 0.75 * _BETA
# The controller aims below the acceptance threshold err <= 1.  Collapsing
# solutions amplify earlier local errors like (u_then/u_now), so steering to
# a small fraction of the tolerance is what keeps whole-run deviations from
# the closed forms near the tolerance itself instead of orders above it.
_ERR_TARGET = 0.05
_H_START = 0.01  # first trial step in tau; dimensionless, since |dxi/dtau| <= 1
_H_MAX = 0.5  # largest step in tau: the quartic dense output of xi stays accurate
_T_RESOLUTION = 1e-13  # an accepted step advancing t by at most this fraction of t ends the run
_EPS = 2.0**-52  # float spacing at 1: one ulp of t is at most _EPS * t
_H_FLOOR = 1e-12  # a retry step in tau below this ends the run
_NEWTON_STEPS = 2  # fixed, so a time maps to the same tau in any stack of times
_VM_FLOOR = np.nextafter(-1.0, 0.0)
_VANISH_RATIO = 1e-4  # diagnostic classification of the last accepted state
_EXPLODE_RATIO = 1e4
_LABELS = ("A", "B", "C")


class TerminationKind(Enum):
    REACHED_T_MAX = "reached_t_max"
    SINGULAR_TIME = "singular_time"
    STEP_BUDGET_EXHAUSTED = "step_budget_exhausted"


@dataclass(frozen=True)
class Termination:
    """Why and where the integration stopped."""

    kind: TerminationKind
    t_stop: float
    vanishing: tuple[str, ...] = ()
    exploding: tuple[str, ...] = ()
    trigger: str = ""
    n_accepted: int = 0
    n_rejected: int = 0

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "kind": self.kind.value,
            "vanishing": list(self.vanishing),
            "exploding": list(self.exploding),
        }


@dataclass(frozen=True)
class IntegratorOptions:
    """Tolerances, horizon, step budget and sample count for `integrate`.

    `atol` bounds the error of the time component in the run's scaled units
    (times divided by 4^k, k the binary exponent of the largest initial
    coefficient); `rtol` bounds the relative error of every component.
    """

    t_max: float = 10.0
    rtol: float = 1e-10
    atol: float = 1e-13
    max_steps: int = 10_000_000
    samples: int = 2048

    def __post_init__(self) -> None:
        if not (isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError("t_max must be finite and positive")
        if not (isfinite(self.rtol) and self.rtol > 0.0 and isfinite(self.atol) and self.atol > 0.0):
            raise ValueError("rtol and atol must be finite and positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.samples < 2:
            raise ValueError("samples must be at least 2")


@dataclass(frozen=True)
class _StepTable:
    """Accepted steps in scaled units plus interpolant coefficients for dense output."""

    t0: np.ndarray  # (m,) scaled step start times
    h: np.ndarray  # (m,) step sizes in tau
    x0: np.ndarray  # (m, 3) long double log states xi = log(y / y(0)) at step starts
    q: np.ndarray  # (m, 3, 4) long double interpolant coefficients of xi
    w0: np.ndarray  # (m,) dt/dtau at step starts
    a: np.ndarray  # (m,) log of dt/dtau at the start over dt/dtau at the end
    qt: np.ndarray  # (m, 4) interpolant coefficients of the non-exponential part of dt/dtau
    base: np.ndarray  # (3,) long double scaled initial metric
    k: int  # binary exponent of the scale: y = 2^k * scaled y, t = 4^k * scaled t

    def eval(self, t: np.ndarray) -> np.ndarray:
        """Interpolated states (n, 3), in the caller's units, at the scaled times t (n,) in [0, t_end].

        Within a step, t is t0 + h * (w0 * E(theta) + Pt(theta)) with
        E(theta) = (1 - exp(-a theta))/a: exact where dt/dtau decays or grows
        exponentially, as it does on a self-similar approach, with the quartic
        Pt for the rest.  theta solves it for the sample time by a fixed number
        of Newton steps in v = E(theta)/E(1), in which the time is nearly
        linear even where it is flat in theta, clipped to [0, 1].  Then xi is
        x0 + h * P(theta), P the quartic dense output, and the state is
        y(0) * exp(xi), both in long double and rounded to float once.
        Everything is elementwise, so a time gives the same bits in any stack
        of times (`sample_at` evaluates a stack of one).
        """
        idx = np.searchsorted(self.t0, t, side="right") - 1  # t0[0] = 0, so idx >= 0
        h, w0, a = self.h[idx], self.w0[idx], self.a[idx]
        c0, c1, c2, c3 = self.qt[idx].T
        flat = a == 0.0
        a_div = np.where(flat, 1.0, a)
        m = np.expm1(-a)
        e1 = np.where(flat, 1.0, -m / a_div)  # E(1)
        lin = w0 * e1  # the exponential part of (t - t0)/h is lin * v
        d = (t - self.t0[idx]) / h

        def theta_of(v):
            vm = np.maximum(v * m, _VM_FLOOR)  # 1 + vm = exp(-a theta) > 0
            return vm, np.where(flat, v, np.minimum(-np.log1p(vm) / a_div, 1.0))

        v = np.clip(d / (lin + (c0 + c1 + c2 + c3)), 0.0, 1.0)
        vm, theta = theta_of(v)
        for _ in range(_NEWTON_STEPS):
            p = theta * (c0 + theta * (c1 + theta * (c2 + theta * c3)))
            dp = c0 + theta * (2.0 * c1 + theta * (3.0 * c2 + theta * (4.0 * c3)))
            dtheta = np.where(flat, 1.0, e1 / (1.0 + vm))
            v = np.clip(v - (lin * v + p - d) / (lin + dp * dtheta), 0.0, 1.0)
            vm, theta = theta_of(v)
        # x0 + h * (theta * (q0 + theta * (q1 + theta * (q2 + theta * q3)))), in place
        theta = theta.astype(np.longdouble)[:, None]
        x = self.q[idx, :, 3] * theta
        for j in (2, 1, 0):
            x += self.q[idx, :, j]
            x *= theta
        x *= h.astype(np.longdouble)[:, None]
        x += self.x0[idx]
        np.exp(x, out=x)
        x *= self.base
        return np.ldexp(x.astype(float), self.k)


@dataclass(frozen=True)
class Trajectory:
    """Dense-sampled solution of one flow run.

    `times` starts at 0 and increases strictly to the final valid time;
    `states` holds the positive coefficient triples row by row;
    `termination` says why and where the run stopped.  Arbitrary times
    inside the valid range can be interpolated with `sample_at`.
    """

    geometry: Geometry
    spec: FlowSpec
    m0: MetricDiag
    options: IntegratorOptions
    times: np.ndarray
    states: np.ndarray
    termination: Termination
    _table: _StepTable | None  # None when no step was accepted

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


def _velocity(rhs, z, smin):
    """(dxi_A, dxi_B, dxi_C, dt) per unit tau at the scaled state z; ArithmeticError if not finite.

    g = (dy/dt)/y, s = max(|g_A|, |g_B|, |g_C|, smin) and the velocity is
    (g/s, 1/s).  Each g/s is NaN or lies in [-1, 1]: a NaN g_A makes s and
    every g/s NaN; otherwise s >= |g| for every g that is not NaN, and an
    infinite g makes s infinite and its g/s NaN.  So the velocity is finite
    exactly when no g/s is NaN, which is the guard, and 1/s <= 1/smin.
    """
    z0, z1, z2 = z
    g0, g1, g2 = rhs(z)
    g0, g1, g2 = g0 / z0, g1 / z1, g2 / z2
    s = g0 if g0 >= 0.0 else -g0
    a = g1 if g1 >= 0.0 else -g1
    s = a if a > s else s
    a = g2 if g2 >= 0.0 else -g2
    s = a if a > s else s
    s = smin if smin > s else s
    g0, g1, g2 = g0 / s, g1 / s, g2 / s
    if g0 == g0 and g1 == g1 and g2 == g2:
        return g0, g1, g2, 1.0 / s
    raise ArithmeticError("stage velocity is not finite")


def _attempt_step(rhs, y, f, h, t, smin, rtol, atol):
    """One trial step of size h in tau from the scaled state y at the scaled time t.

    `f` is the velocity (dxi_A, dxi_B, dxi_C, dt) per unit tau at y and
    `smin` the floor of s.  Returns (y_new, dt, f_new, err, stages),
    `stages` being the seven stage velocities flattened into one 28-tuple,
    stage by stage, or None if the attempt is rejected: an ArithmeticError
    from a stage velocity that is not finite, an `exp` that overflows, or a
    division by a coefficient that underflowed to 0.  `kSC` is component C
    of the velocity at stage S.

    A stage state is y * exp(h * sum_j a_j k_j) componentwise, so it is
    positive by construction and carries the rounding of y itself; each
    stage velocity is one call of `_velocity`.
    """
    y0, y1, y2 = y
    k10, k11, k12, k13 = f
    try:
        k20, k21, k22, k23 = _velocity(rhs, (
            y0 * exp(h * (_A21 * k10)),
            y1 * exp(h * (_A21 * k11)),
            y2 * exp(h * (_A21 * k12)),
        ), smin)
        k30, k31, k32, k33 = _velocity(rhs, (
            y0 * exp(h * (_A31 * k10 + _A32 * k20)),
            y1 * exp(h * (_A31 * k11 + _A32 * k21)),
            y2 * exp(h * (_A31 * k12 + _A32 * k22)),
        ), smin)
        k40, k41, k42, k43 = _velocity(rhs, (
            y0 * exp(h * (_A41 * k10 + _A42 * k20 + _A43 * k30)),
            y1 * exp(h * (_A41 * k11 + _A42 * k21 + _A43 * k31)),
            y2 * exp(h * (_A41 * k12 + _A42 * k22 + _A43 * k32)),
        ), smin)
        k50, k51, k52, k53 = _velocity(rhs, (
            y0 * exp(h * (_A51 * k10 + _A52 * k20 + _A53 * k30 + _A54 * k40)),
            y1 * exp(h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41)),
            y2 * exp(h * (_A51 * k12 + _A52 * k22 + _A53 * k32 + _A54 * k42)),
        ), smin)
        k60, k61, k62, k63 = _velocity(rhs, (
            y0 * exp(h * (_A61 * k10 + _A62 * k20 + _A63 * k30 + _A64 * k40 + _A65 * k50)),
            y1 * exp(h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51)),
            y2 * exp(h * (_A61 * k12 + _A62 * k22 + _A63 * k32 + _A64 * k42 + _A65 * k52)),
        ), smin)
        z = (
            y0 * exp(h * (_B1 * k10 + _B3 * k30 + _B4 * k40 + _B5 * k50 + _B6 * k60)),
            y1 * exp(h * (_B1 * k11 + _B3 * k31 + _B4 * k41 + _B5 * k51 + _B6 * k61)),
            y2 * exp(h * (_B1 * k12 + _B3 * k32 + _B4 * k42 + _B5 * k52 + _B6 * k62)),
        )
        k70, k71, k72, k73 = f_new = _velocity(rhs, z, smin)
        # t is the integral of w = dt/dtau.  The exponential through both ends,
        # k13 * exp(-a tau/h), is integrated exactly; the DP5 weights apply to
        # the stage values less it (stages 1 and 7 lie on it)
        a = log(k13 / k73)
        lin = k13 if a == 0.0 else k13 * -expm1(-a) / a
        r3 = k33 - k13 * exp(-0.3 * a)
        r4 = k43 - k13 * exp(-0.8 * a)
        r5 = k53 - k13 * exp(-(8 / 9) * a)
        r6 = k63 - k13 * exp(-a)
    except ArithmeticError:
        return None
    dt = h * (lin + (_B3 * r3 + _B4 * r4 + _B5 * r5 + _B6 * r6))
    # err is the rms of the four scaled error components; xi is relative in y, and t >= 0
    e0 = h * (_E1 * k10 + _E3 * k30 + _E4 * k40 + _E5 * k50 + _E6 * k60 + _E7 * k70) / rtol
    e1 = h * (_E1 * k11 + _E3 * k31 + _E4 * k41 + _E5 * k51 + _E6 * k61 + _E7 * k71) / rtol
    e2 = h * (_E1 * k12 + _E3 * k32 + _E4 * k42 + _E5 * k52 + _E6 * k62 + _E7 * k72) / rtol
    e3 = h * (_E3 * r3 + _E4 * r4 + _E5 * r5 + _E6 * r6) / (atol + rtol * (t + dt))
    err = sqrt((((e0 * e0 + e1 * e1) + e2 * e2) + e3 * e3) / 4.0)
    k = (
        k10, k11, k12, k13, k20, k21, k22, k23, k30, k31, k32, k33, k40, k41, k42, k43,
        k50, k51, k52, k53, k60, k61, k62, k63, k70, k71, k72, k73,
    )
    return z, dt, f_new, err, k


def _step_table(rows_t, rows_h, rows_k, base, k) -> _StepTable:
    """Table of the accepted steps with the interpolant coefficients of each.

    q = K^T P is summed stage by stage with elementwise products, the same
    operations for every step and every component, so exactly equal stage
    velocities give exactly equal coefficients.  For t, P is applied to the
    stage values of dt/dtau less the exponential w0 * exp(-a c) through its
    two ends.
    """
    K = np.frombuffer(rows_k).reshape(-1, 7, 4).copy()
    w0 = K[:, 0, 3].copy()
    a = np.log(w0 / K[:, 6, 3])
    K[:, :, 3] -= w0[:, None] * np.exp(-a[:, None] * _C)
    q = K[:, 0, :, None] * _RK_P[0]
    for s in range(1, 7):
        q = q + K[:, s, :, None] * _RK_P[s]
    t0, h = np.frombuffer(rows_t), np.frombuffer(rows_h)
    qx = q[:, :3].astype(np.longdouble)
    # xi at the step starts, summed in long double from the interpolant at theta = 1
    x1 = np.cumsum(h.astype(np.longdouble)[:, None] * qx.sum(axis=2), axis=0)
    x0 = np.concatenate([np.zeros((1, 3), dtype=np.longdouble), x1[:-1]])
    return _StepTable(t0, h, x0, qx, w0, a, q[:, 3], np.array(base, dtype=np.longdouble), k)


def _diagnose(y_stop, y_init):
    ratios = [a / b for a, b in zip(y_stop, y_init)]
    vanishing = tuple(_LABELS[i] for i in range(3) if ratios[i] <= _VANISH_RATIO)
    exploding = tuple(_LABELS[i] for i in range(3) if ratios[i] >= _EXPLODE_RATIO)
    return vanishing, exploding


def _sample_times(kind: TerminationKind, t_end: float, n: int) -> np.ndarray:
    """Deterministic dense-output grid of n rows: starts at 0, increases strictly and ends at t_end.

    Singular runs get an eighth of the rows uniformly over the first half of
    the run and the m = n - n/8 - 1 others geometrically spaced in
    u = t_stop - t from half the run down to a floor f * t_stop, so that
    every decade of the approach is covered at equal density in log(u): 512
    rows put at least 32 in each decade of u within [1e-12, 1e-1] * t_stop.
    The two shares meet at no row, since the uniform one stops short of
    half the run.  Completed runs are sampled geometrically in t.  Two rows
    are the two ends of the run.

    The floor f is the stepper's resolution `_T_RESOLUTION`, raised to
    (m - 1) * eps / 16 where that is larger, which is above about 8200 rows.
    The last two geometric rows are f * ln(0.5 / f) / (m - 1) * t_stop
    apart, so that keeps them more than ln(0.5 / f) / 16 > 1 ulp of t_stop
    apart, and every row distinct, for any f below 5e-8, that is up to
    about 4e9 rows.  Below 8200 rows the floor, and so the grid, is the
    stepper's resolution.  Both shares are built in increasing order, and
    rows that still round to the same time are dropped once, by an
    adjacent-equality mask, not `np.unique`, which imports `numpy.ma` on its
    first call in a process.
    """
    if t_end <= 0.0:
        return np.array([0.0])
    if n == 2:
        return np.array([0.0, t_end])
    if kind is TerminationKind.SINGULAR_TIME:
        n_pre = max(2, n // 8)
        m = n - n_pre - 1
        floor = max(_T_RESOLUTION, (m - 1) * _EPS / 16.0)
        pre = np.linspace(0.0, 0.5 * t_end, n_pre, endpoint=False)
        post = t_end - np.geomspace(0.5 * t_end, floor * t_end, m)
        grid = np.concatenate([pre, post, [t_end]])
    else:
        grid = np.concatenate([[0.0], np.geomspace(1e-12 * t_end, t_end, n - 1)])
    return grid[np.concatenate([[True], grid[1:] != grid[:-1]])]


def integrate(
    geometry: Geometry,
    spec: FlowSpec,
    m0: MetricDiag,
    options: IntegratorOptions | None = None,
) -> Trajectory:
    """Run the flow from m0 until t_max, a singular time, or the step budget."""
    opts = options if options is not None else IntegratorOptions()
    rtol, atol, max_steps = opts.rtol, opts.atol, opts.max_steps
    rhs = rhs_function(geometry, spec)
    y0 = m0.as_tuple()

    # scaled units: y = 2^k * scaled y and t = 4^k * scaled t, exactly
    k = frexp(max(y0))[1]
    base = tuple(ldexp(v, -k) for v in y0)
    try:
        t_max = ldexp(opts.t_max, -2 * k)
    except OverflowError:
        t_max = _INF
    if not (0.0 < t_max < _INF and 1.0 / t_max < _INF):
        raise ValueError(f"t_max={opts.t_max!r} is out of range at the scale of the initial metric")
    smin = 1.0 / t_max
    try:
        f = _velocity(rhs, base, smin)
    except ArithmeticError:
        raise ValueError("flow right-hand side is not finite at the initial metric") from None

    # accepted steps, flat: start time, size in tau, stage velocities (7 x 4)
    rows_t, rows_h, rows_k = array("d"), array("d"), array("d")
    y = base
    t = 0.0
    comp = 0.0  # compensated-summation carry for t
    h = _H_START
    facold = 1e-4
    growth_locked = False
    n_acc = n_rej = 0

    while True:
        if n_acc + n_rej >= max_steps:
            kind, t_stop, trigger = TerminationKind.STEP_BUDGET_EXHAUSTED, t, "max_steps"
            break

        out = _attempt_step(rhs, y, f, h, t, smin, rtol, atol)
        if out is None or out[3] > 1.0:
            n_rej += 1
            if out is None:
                # a stage velocity is not finite: retry at h/2
                h = 0.5 * h
            else:
                h = h * max(_MIN_FACTOR, _SAFETY * max(out[3] / _ERR_TARGET, 1e-300) ** (-_EXPO))
            growth_locked = True
            if h < _H_FLOOR:  # the solver can no longer make progress
                kind, t_stop, trigger = TerminationKind.SINGULAR_TIME, t, "step_underflow"
                break
            continue

        y_new, dt, f_new, err, stages = out
        n_acc += 1
        carry = dt + comp
        t_new = t + carry
        if dt <= _T_RESOLUTION * t:  # the approach to the singular time is resolved
            y = y_new
            kind, t_stop, trigger = TerminationKind.SINGULAR_TIME, t, "step_underflow"
            break
        comp = carry - (t_new - t)
        # accepted: record the step; its interpolant is built after the loop
        rows_t.append(t)
        rows_h.append(h)
        rows_k.extend(stages)
        t, y, f = t_new, y_new, f_new
        if t >= t_max:
            kind, t_stop, trigger = TerminationKind.REACHED_T_MAX, t_max, "t_max"
            break

        factor = _SAFETY * max(err / _ERR_TARGET, 1e-300) ** (-_EXPO) * facold**_BETA
        factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        if growth_locked:
            factor = min(1.0, factor)
            growth_locked = False
        h = min(h * factor, _H_MAX)
        facold = max(err / _ERR_TARGET, 1e-4)

    table = _step_table(rows_t, rows_h, rows_k, base, k) if rows_t else None
    van, exp_ = _diagnose(y, base) if kind is TerminationKind.SINGULAR_TIME else ((), ())
    termination = Termination(
        kind, ldexp(t_stop, 2 * k), van, exp_, trigger, n_accepted=n_acc, n_rejected=n_rej
    )

    grid = _sample_times(kind, t_stop, opts.samples)
    times = np.ldexp(grid, 2 * k)
    if table is not None:
        states = table.eval(grid)
    else:  # stopped before the first accepted step, so t_stop = 0 and times = [0]
        states = np.array([y0])
    for arr in (times, states):
        arr.setflags(write=False)

    return Trajectory(
        geometry=geometry,
        spec=spec,
        m0=m0,
        options=opts,
        times=times,
        states=states,
        termination=termination,
        _table=table,
    )


def sample_at(trajectory: Trajectory, t: float) -> MetricDiag:
    """Interpolated metric at flow time t, consistent with the dense output."""
    t = float(t)
    if not (0.0 <= t <= trajectory.t_end):
        raise ValueError(
            f"t={t!r} outside the valid range [0, {trajectory.t_end!r}] of this trajectory"
        )
    if t == 0.0:
        return trajectory.m0
    table = trajectory._table
    return MetricDiag.from_array(table.eval(np.ldexp(np.array([t]), -2 * table.k))[0])
