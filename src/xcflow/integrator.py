"""Adaptive integration of the coefficient flows through finite-time singularities.

The scheme is an embedded explicit Runge-Kutta 5(4) pair (Dormand-Prince
coefficients) with a proportional-integral step controller and the standard
quartic dense-output interpolant.  On top of the generic solver sit the
pieces this problem actually needs:

* positivity guard: a trial step that produces a non-positive or non-finite
  coefficient anywhere in its stages is rejected and retried at half the
  step, before any error control or event logic runs;
* singularity events: integration stops when a coefficient crosses the
  floor `floor_factor * min(A0,B0,C0)` or the ceiling
  `ceil_factor * max(A0,B0,C0)` (the crossing time is located by bisection
  on the dense interpolant), or when the accepted step falls below
  1e-14 * (1 + t) and the solver can no longer resolve the approach;
* dense sampling: the returned trajectory carries `samples` interpolated
  rows; runs that end at a singular time are sampled geometrically in
  (t_stop - t) so every decade of the approach is resolved at equal density
  in log-distance to the singular time.  The time at which any coefficient
  first left the band [1e-2, 1e2] relative to its initial value is recorded
  as `t_switch` for diagnostics.

Step times are accumulated with compensated summation, which keeps
(t_stop - t) accurate to one ulp of t near blow-up; without it the late-time
power-law fits would be polluted by accumulated rounding of the time grid.

Integration is deterministic: identical inputs produce bitwise identical
trajectories.  The right-hand sides evaluate exactly symmetrically on
exactly symmetric states, so invariant reductions (Sol with A=C, SL(2,R)
with B=C, SU(2) with equal pairs, E(2) with A=B) are preserved to the bit
rather than to a tolerance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from math import isfinite, sqrt

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

# Dormand-Prince 5(4) tableau, FSAL form, with the quartic interpolant
# coefficients.  E is the difference between the 5th and 4th order weights.
_RK_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_RK_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_RK_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
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
_STEP_FLOOR = 1e-14  # accepted step below _STEP_FLOOR*(1+t) stops the run
_BAND_LO = 1e-2  # leaving [_BAND_LO, _BAND_HI]*initial switches sampling mode
_BAND_HI = 1e2
_VANISH_RATIO = 1e-4  # diagnostic classification at the stop event
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
    """Tolerances, horizon and event thresholds for `integrate`."""

    t_max: float = 10.0
    rtol: float = 1e-10
    atol: float = 1e-13
    max_steps: int = 10_000_000
    floor_factor: float = 1e-10
    ceil_factor: float = 1e10
    samples: int = 2048

    def __post_init__(self) -> None:
        if not (isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError("t_max must be finite and positive")
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ValueError("rtol and atol must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if not (0.0 < self.floor_factor < 1.0 < self.ceil_factor):
            raise ValueError("need 0 < floor_factor < 1 < ceil_factor")
        if self.samples < 2:
            raise ValueError("samples must be at least 2")


@dataclass(frozen=True)
class _StepTable:
    """Accepted steps plus interpolant coefficients for dense output."""

    t0: np.ndarray  # (m,) step start times
    h: np.ndarray  # (m,) step sizes
    y0: np.ndarray  # (m, 3) states at step starts
    q: np.ndarray  # (m, 3, 4) interpolant coefficients

    def eval(self, t: np.ndarray) -> np.ndarray:
        """Interpolated states (n, 3) at the times t (n,) in [0, t_end], each in its own step."""
        idx = np.searchsorted(self.t0, t, side="right") - 1  # t0[0] = 0, so idx >= 0
        theta = np.minimum((t - self.t0[idx]) / self.h[idx], 1.0)
        return _interpolate(self.y0[idx], self.h[idx, None], self.q[idx], theta)


@dataclass(frozen=True)
class Trajectory:
    """Dense-sampled solution of one flow run.

    `times` starts at 0 and increases strictly to the final valid time;
    `states` holds the positive coefficient triples row by row.  `t_switch`
    is the first time any coefficient left the band [1e-2, 1e2] relative to
    its initial value (None if none did).  Arbitrary times inside the valid
    range can be interpolated with `sample_at`.
    """

    geometry: Geometry
    spec: FlowSpec
    m0: MetricDiag
    options: IntegratorOptions
    times: np.ndarray
    states: np.ndarray
    termination: Termination
    t_switch: float | None
    _table: _StepTable | None  # None when no step was accepted

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def metric_at(self, i: int) -> MetricDiag:
        return MetricDiag.from_array(self.states[i])


def _initial_step(rhs, y0, f0, rtol, atol, t_max):
    """Starting step size from the local scale of y and its derivatives."""
    scale = atol + rtol * np.abs(y0)
    d0 = sqrt(float(np.mean((y0 / scale) ** 2)))
    d1 = sqrt(float(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_max)
    y1 = y0 + h0 * f0
    for _ in range(40):
        if np.all(np.isfinite(y1)) and np.all(y1 > 0.0):
            break
        h0 *= 0.1
        y1 = y0 + h0 * f0
    f1 = rhs(y1)
    if not np.all(np.isfinite(f1)):
        return min(1e-6, t_max)
    d2 = sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t_max)


def _attempt_step(rhs, y, f, h, rtol, atol):
    """One trial step.  Returns None if a stage leaves the positive cone."""
    K = np.empty((7, 3))
    K[0] = f
    for s in range(1, 6):
        ys = y + h * (_RK_A[s - 1] @ K[:s])
        if not (np.all(np.isfinite(ys)) and np.all(ys > 0.0)):
            return None
        K[s] = rhs(ys)
        if not np.all(np.isfinite(K[s])):
            return None
    y_new = y + h * (_RK_B @ K[:6])
    if not (np.all(np.isfinite(y_new)) and np.all(y_new > 0.0)):
        return None
    K[6] = rhs(y_new)
    if not np.all(np.isfinite(K[6])):
        return None
    e = h * (_RK_E @ K)
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
    err = sqrt(float(np.mean((e / scale) ** 2)))
    return y_new, K[6], err, K


def _interpolate(y0, h, q, theta):
    """Dense output y0 + h * q @ (theta, theta^2, theta^3, theta^4) of one step or a stack.

    `np.float_power` evaluates libm's pow on each element, so a stack of
    thetas gives the same bits as one theta at a time; numpy's vectorised
    `**` may use a SIMD pow that differs from it in the last bit.
    """
    powers = np.array([theta, theta * theta, np.float_power(theta, 3), np.float_power(theta, 4)]).T
    return y0 + h * (q @ powers[..., None])[..., 0]


def _crossed(y, floor, ceil):
    return bool(np.any(y <= floor) or np.any(y >= ceil))


def _locate_crossing(t0, h, y0, Q, floor, ceil):
    """First interpolated time in (t0, t0+h] where a bound is crossed."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _crossed(_interpolate(y0, h, Q, mid), floor, ceil):
            hi = mid
        else:
            lo = mid
    y_stop = _interpolate(y0, h, Q, hi)
    return t0 + hi * h, y_stop


def _diagnose(y_stop, y_init):
    ratios = y_stop / y_init
    vanishing = tuple(_LABELS[i] for i in range(3) if ratios[i] <= _VANISH_RATIO)
    exploding = tuple(_LABELS[i] for i in range(3) if ratios[i] >= _EXPLODE_RATIO)
    return vanishing, exploding


def _sample_times(kind: TerminationKind, t_end: float, n: int) -> np.ndarray:
    """Deterministic dense-output grid; strictly increasing, starting at 0.

    Singular runs get a quarter of the rows uniformly over the whole run and
    the rest geometrically spaced in u = t_stop - t from half the run down to
    a few ulps of t_stop, so that every decade of the approach is covered at
    roughly equal density in log(u).  Completed runs are sampled
    geometrically in t.
    """
    if t_end <= 0.0:
        return np.array([0.0])
    if kind is TerminationKind.SINGULAR_TIME:
        u_hi = 0.5 * t_end
        u_lo = 4e-16 * t_end
        if u_lo >= u_hi:
            grid = np.linspace(0.0, t_end, n)
        else:
            n_pre = max(2, n // 4)
            pre = np.linspace(0.0, t_end, n_pre, endpoint=False)
            post = t_end - np.geomspace(u_hi, u_lo, n - n_pre - 1)
            grid = np.concatenate([pre, post, [t_end]])
    else:
        grid = np.concatenate([[0.0], np.geomspace(1e-12 * t_end, t_end, n - 1)])
    grid = np.unique(np.clip(grid, 0.0, t_end))
    if grid[0] != 0.0:
        grid = np.concatenate([[0.0], grid])
    return grid


def integrate(
    geometry: Geometry,
    spec: FlowSpec,
    m0: MetricDiag,
    options: IntegratorOptions | None = None,
) -> Trajectory:
    """Run the flow from m0 until t_max, a singular time, or the step budget."""
    opts = options if options is not None else IntegratorOptions()
    rhs = rhs_function(geometry, spec)
    y0 = m0.as_array()
    floor = opts.floor_factor * float(y0.min())
    ceil = opts.ceil_factor * float(y0.max())
    band_lo = _BAND_LO * y0
    band_hi = _BAND_HI * y0

    rows_t, rows_h, rows_y, rows_q = [], [], [], []
    t = 0.0
    comp = 0.0  # compensated-summation carry for t
    y = y0.copy()
    f = rhs(y)
    if not np.all(np.isfinite(f)):
        raise ValueError("flow right-hand side is not finite at the initial metric")
    h = _initial_step(rhs, y, f, opts.rtol, opts.atol, opts.t_max)
    facold = 1e-4
    growth_locked = False
    t_switch: float | None = None
    n_acc = n_rej = 0

    while True:
        if n_acc + n_rej >= opts.max_steps:
            kind, t_stop, trigger = TerminationKind.STEP_BUDGET_EXHAUSTED, t, "max_steps"
            break

        remaining = opts.t_max - t
        landing = h >= remaining
        h_try = remaining if landing else h

        out = _attempt_step(rhs, y, f, h_try, opts.rtol, opts.atol)
        if out is None or out[2] > 1.0:
            n_rej += 1
            if out is None:
                # positivity or finiteness failure inside the step: retry at h/2
                h = 0.5 * h_try
            else:
                h = h_try * max(_MIN_FACTOR, _SAFETY * max(out[2] / _ERR_TARGET, 1e-300) ** (-_EXPO))
            growth_locked = True
            h_resolved = h
        else:
            # accepted: record the step with its interpolant
            y_new, f_new, err, K = out
            Q = K.T @ _RK_P
            rows_t.append(t)
            rows_h.append(h_try)
            rows_y.append(y.copy())
            rows_q.append(Q)
            n_acc += 1

            carry = h_try + comp
            t_prev = t
            t = t_prev + carry
            comp = carry - (t - t_prev)
            if landing:
                t, comp = opts.t_max, 0.0
            y = y_new
            f = f_new

            if t_switch is None and bool(np.any(y < band_lo) | np.any(y > band_hi)):
                t_switch = t

            if _crossed(y, floor, ceil):
                t_stop, y_stop = _locate_crossing(t_prev, h_try, rows_y[-1], Q, floor, ceil)
                parts = []
                if np.any(y_stop <= floor * (1.0 + 1e-9)):
                    parts.append("floor")
                if np.any(y_stop >= ceil * (1.0 - 1e-9)):
                    parts.append("ceiling")
                kind, trigger = TerminationKind.SINGULAR_TIME, "+".join(parts) or "floor"
                break

            if landing or t >= opts.t_max:
                kind, t_stop, trigger = TerminationKind.REACHED_T_MAX, opts.t_max, "t_max"
                break

            factor = _SAFETY * max(err / _ERR_TARGET, 1e-300) ** (-_EXPO) * facold**_BETA
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            if growth_locked:
                factor = min(1.0, factor)
                growth_locked = False
            h = h_try * factor
            facold = max(err / _ERR_TARGET, 1e-4)
            h_resolved = h_try

        # the retry step after a rejection, or the step just accepted, is below
        # the floor: the solver can no longer resolve the approach
        if h_resolved < _STEP_FLOOR * (1.0 + t):
            kind, t_stop, trigger, y_stop = TerminationKind.SINGULAR_TIME, t, "step_underflow", y
            break

    van, exp_ = _diagnose(y_stop, y0) if kind is TerminationKind.SINGULAR_TIME else ((), ())
    termination = Termination(kind, t_stop, van, exp_, trigger, n_accepted=n_acc, n_rejected=n_rej)

    times = _sample_times(kind, t_stop, opts.samples)
    if rows_t:
        table = _StepTable(np.array(rows_t), np.array(rows_h), np.array(rows_y), np.array(rows_q))
        states = table.eval(times)
    else:  # stopped before the first accepted step, so t_stop = 0 and times = [0]
        table = None
        states = y0[None, :].copy()
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
        t_switch=t_switch,
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
    return MetricDiag.from_array(trajectory._table.eval(np.array([t]))[0])
