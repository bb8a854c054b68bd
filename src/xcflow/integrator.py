"""Adaptive integration of the coefficient flows through finite-time singularities.

The scheme is an embedded explicit Runge-Kutta 5(4) pair (Dormand-Prince
coefficients) with a proportional-integral step controller and the standard
quartic dense-output interpolant.  On top of the generic solver sit the
pieces this problem actually needs:

* positivity guard: a trial step is rejected and retried at half the step,
  before any error control runs, when a stage state has a component outside
  0 < v < inf or a stage velocity one outside -inf < k < inf (both tests are
  false for NaN).  A right-hand side whose kernel divides by an underflowed
  (ABC)^2 returns NaN, so it reads as non-finite too; at the initial metric
  that is a ValueError;
* one stop rule for singularities, the step floor: the run stops at a
  singular time when the accepted step, or the retry step after a
  rejection, falls below 1e-14 * (1 + t).  The approach is then resolved to
  the precision of t, and t_stop is the end of the last accepted step.
  Every run ends on exactly one trigger: `t_max`, `step_underflow` or
  `max_steps`;
* dense sampling: the returned trajectory carries `samples` interpolated
  rows; runs that end at a singular time are sampled geometrically in
  (t_stop - t) so every decade of the approach is resolved at equal density
  in log-distance to the singular time.

The step runs on Python floats: state and velocity are float tuples and the
tableau is unrolled component by component into module-level scalars, so
the step path makes no numpy call and no BLAS product.  Each stage state is
built in three locals and guarded by the chained comparisons of `_positive`
and `_finite` written out on them, and the error norm is `_rms` written
inline, so an attempt calls nothing but the right-hand side, once per stage.
The velocities of the seven stages of every accepted step are kept in flat
arrays, and the interpolant coefficients of the whole step table are built
once, after the last step, as a sum over the stages in a fixed order with
elementwise products: every step and every component runs the same
operations.

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

from array import array
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
_STEP_FLOOR = 1e-14  # accepted step below _STEP_FLOOR*(1+t) stops the run
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
    """Tolerances, horizon, step budget and sample count for `integrate`."""

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
    """Accepted steps plus interpolant coefficients for dense output."""

    t0: np.ndarray  # (m,) step start times
    h: np.ndarray  # (m,) step sizes
    y0: np.ndarray  # (m, 3) states at step starts
    q: np.ndarray  # (m, 3, 4) interpolant coefficients

    def eval(self, t: np.ndarray) -> np.ndarray:
        """Interpolated states (n, 3) at the times t (n,) in [0, t_end], each in its own step.

        Dense output is y0 + h * q @ (theta, theta^2, theta^3, theta^4).
        `np.float_power` evaluates libm's pow on each element, so a time gives
        the same bits in any stack of times (`sample_at` evaluates a stack of
        one); numpy's vectorised `**` may use a SIMD pow that differs from it
        in the last bit.
        """
        idx = np.searchsorted(self.t0, t, side="right") - 1  # t0[0] = 0, so idx >= 0
        theta = np.minimum((t - self.t0[idx]) / self.h[idx], 1.0)
        powers = np.array([theta, theta * theta, np.float_power(theta, 3), np.float_power(theta, 4)]).T
        return self.y0[idx] + self.h[idx, None] * (self.q[idx] @ powers[..., None])[..., 0]


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


def _finite(k) -> bool:
    """Every component of the triple k lies in (-inf, inf); false for NaN."""
    k0, k1, k2 = k
    return -_INF < k0 < _INF and -_INF < k1 < _INF and -_INF < k2 < _INF


def _positive(y) -> bool:
    """Every component of the triple y lies in (0, inf); false for NaN."""
    y0, y1, y2 = y
    return 0.0 < y0 < _INF and 0.0 < y1 < _INF and 0.0 < y2 < _INF


def _rms(r0: float, r1: float, r2: float) -> float:
    """Root mean square of three floats, summed in numpy's order for a 3-vector."""
    return sqrt(((r0 * r0 + r1 * r1) + r2 * r2) / 3.0)


def _initial_step(rhs, y0, f0, rtol, atol, t_max):
    """Starting step size from the local scale of y and its derivatives."""
    s0, s1, s2 = (atol + rtol * abs(v) for v in y0)
    d0 = _rms(y0[0] / s0, y0[1] / s1, y0[2] / s2)
    d1 = _rms(f0[0] / s0, f0[1] / s1, f0[2] / s2)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_max)
    y1 = tuple(v + h0 * k for v, k in zip(y0, f0))
    for _ in range(40):
        if _positive(y1):
            break
        h0 *= 0.1
        y1 = tuple(v + h0 * k for v, k in zip(y0, f0))
    f1 = rhs(y1)
    if not _finite(f1):
        return min(1e-6, t_max)
    d2 = _rms((f1[0] - f0[0]) / s0, (f1[1] - f0[1]) / s1, (f1[2] - f0[2]) / s2) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t_max)


def _attempt_step(rhs, y, f, h, rtol, atol):
    """One trial step from the state y with velocity f, both float triples.

    Returns None if a stage state leaves the positive cone or a stage velocity
    is not finite.  Otherwise returns (y_new, f_new, err, stages), `stages`
    being the seven stage velocities flattened into one 21-tuple, stage by
    stage.  `kSC` is component C of the velocity at stage S, and `sC` of the
    stage state; the guards are `_positive` and `_finite` written out.
    """
    y0, y1, y2 = y
    k10, k11, k12 = f
    s0 = y0 + h * (_A21 * k10)
    s1 = y1 + h * (_A21 * k11)
    s2 = y2 + h * (_A21 * k12)
    if not (0.0 < s0 < _INF and 0.0 < s1 < _INF and 0.0 < s2 < _INF):
        return None
    k20, k21, k22 = rhs((s0, s1, s2))
    if not (-_INF < k20 < _INF and -_INF < k21 < _INF and -_INF < k22 < _INF):
        return None
    s0 = y0 + h * (_A31 * k10 + _A32 * k20)
    s1 = y1 + h * (_A31 * k11 + _A32 * k21)
    s2 = y2 + h * (_A31 * k12 + _A32 * k22)
    if not (0.0 < s0 < _INF and 0.0 < s1 < _INF and 0.0 < s2 < _INF):
        return None
    k30, k31, k32 = rhs((s0, s1, s2))
    if not (-_INF < k30 < _INF and -_INF < k31 < _INF and -_INF < k32 < _INF):
        return None
    s0 = y0 + h * (_A41 * k10 + _A42 * k20 + _A43 * k30)
    s1 = y1 + h * (_A41 * k11 + _A42 * k21 + _A43 * k31)
    s2 = y2 + h * (_A41 * k12 + _A42 * k22 + _A43 * k32)
    if not (0.0 < s0 < _INF and 0.0 < s1 < _INF and 0.0 < s2 < _INF):
        return None
    k40, k41, k42 = rhs((s0, s1, s2))
    if not (-_INF < k40 < _INF and -_INF < k41 < _INF and -_INF < k42 < _INF):
        return None
    s0 = y0 + h * (_A51 * k10 + _A52 * k20 + _A53 * k30 + _A54 * k40)
    s1 = y1 + h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41)
    s2 = y2 + h * (_A51 * k12 + _A52 * k22 + _A53 * k32 + _A54 * k42)
    if not (0.0 < s0 < _INF and 0.0 < s1 < _INF and 0.0 < s2 < _INF):
        return None
    k50, k51, k52 = rhs((s0, s1, s2))
    if not (-_INF < k50 < _INF and -_INF < k51 < _INF and -_INF < k52 < _INF):
        return None
    s0 = y0 + h * (_A61 * k10 + _A62 * k20 + _A63 * k30 + _A64 * k40 + _A65 * k50)
    s1 = y1 + h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51)
    s2 = y2 + h * (_A61 * k12 + _A62 * k22 + _A63 * k32 + _A64 * k42 + _A65 * k52)
    if not (0.0 < s0 < _INF and 0.0 < s1 < _INF and 0.0 < s2 < _INF):
        return None
    k60, k61, k62 = rhs((s0, s1, s2))
    if not (-_INF < k60 < _INF and -_INF < k61 < _INF and -_INF < k62 < _INF):
        return None
    z0 = y0 + h * (_B1 * k10 + _B3 * k30 + _B4 * k40 + _B5 * k50 + _B6 * k60)
    z1 = y1 + h * (_B1 * k11 + _B3 * k31 + _B4 * k41 + _B5 * k51 + _B6 * k61)
    z2 = y2 + h * (_B1 * k12 + _B3 * k32 + _B4 * k42 + _B5 * k52 + _B6 * k62)
    if not (0.0 < z0 < _INF and 0.0 < z1 < _INF and 0.0 < z2 < _INF):
        return None
    y_new = (z0, z1, z2)
    k70, k71, k72 = f_new = rhs(y_new)
    if not (-_INF < k70 < _INF and -_INF < k71 < _INF and -_INF < k72 < _INF):
        return None
    # y and y_new are positive and finite here, so each conditional is max(); err is _rms inline
    r0 = h * (_E1 * k10 + _E3 * k30 + _E4 * k40 + _E5 * k50 + _E6 * k60 + _E7 * k70)
    r0 = r0 / (atol + rtol * (y0 if y0 >= z0 else z0))
    r1 = h * (_E1 * k11 + _E3 * k31 + _E4 * k41 + _E5 * k51 + _E6 * k61 + _E7 * k71)
    r1 = r1 / (atol + rtol * (y1 if y1 >= z1 else z1))
    r2 = h * (_E1 * k12 + _E3 * k32 + _E4 * k42 + _E5 * k52 + _E6 * k62 + _E7 * k72)
    r2 = r2 / (atol + rtol * (y2 if y2 >= z2 else z2))
    err = sqrt(((r0 * r0 + r1 * r1) + r2 * r2) / 3.0)
    k = (k10, k11, k12, k20, k21, k22, k30, k31, k32, k40, k41, k42, k50, k51, k52, k60, k61, k62, k70, k71, k72)
    return y_new, f_new, err, k


def _step_table(rows_t, rows_h, rows_y, rows_k) -> _StepTable:
    """Table of the accepted steps with the interpolant coefficients of each.

    q = K^T P is summed stage by stage with elementwise products, the same
    operations for every step and every component, so exactly equal stage
    velocities give exactly equal coefficients.
    """
    K = np.frombuffer(rows_k).reshape(-1, 7, 3, 1)
    q = K[:, 0] * _RK_P[0]
    for s in range(1, 7):
        q = q + K[:, s] * _RK_P[s]
    return _StepTable(
        np.frombuffer(rows_t), np.frombuffer(rows_h), np.frombuffer(rows_y).reshape(-1, 3), q
    )


def _diagnose(y_stop, y_init):
    ratios = [a / b for a, b in zip(y_stop, y_init)]
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
    t_max, rtol, atol, max_steps = opts.t_max, opts.rtol, opts.atol, opts.max_steps
    rhs = rhs_function(geometry, spec)
    y = y0 = m0.as_tuple()

    # accepted steps, flat: start time, size, start state (3), stage velocities (7 x 3)
    rows_t, rows_h, rows_y, rows_k = array("d"), array("d"), array("d"), array("d")
    t = 0.0
    comp = 0.0  # compensated-summation carry for t
    f = rhs(y)
    if not _finite(f):
        raise ValueError("flow right-hand side is not finite at the initial metric")
    h = _initial_step(rhs, y, f, rtol, atol, t_max)
    facold = 1e-4
    growth_locked = False
    n_acc = n_rej = 0

    while True:
        if n_acc + n_rej >= max_steps:
            kind, t_stop, trigger = TerminationKind.STEP_BUDGET_EXHAUSTED, t, "max_steps"
            break

        remaining = t_max - t
        landing = h >= remaining
        h_try = remaining if landing else h

        out = _attempt_step(rhs, y, f, h_try, rtol, atol)
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
            # accepted: record the step; its interpolant is built after the loop
            y_new, f_new, err, stages = out
            rows_t.append(t)
            rows_h.append(h_try)
            rows_y.extend(y)
            rows_k.extend(stages)
            n_acc += 1

            carry = h_try + comp
            t_prev = t
            t = t_prev + carry
            comp = carry - (t - t_prev)
            if landing:
                t, comp = t_max, 0.0
            y = y_new
            f = f_new

            if landing or t >= t_max:
                kind, t_stop, trigger = TerminationKind.REACHED_T_MAX, t_max, "t_max"
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
            kind, t_stop, trigger = TerminationKind.SINGULAR_TIME, t, "step_underflow"
            break

    table = _step_table(rows_t, rows_h, rows_y, rows_k) if rows_t else None
    van, exp_ = _diagnose(y, y0) if kind is TerminationKind.SINGULAR_TIME else ((), ())
    termination = Termination(kind, t_stop, van, exp_, trigger, n_accepted=n_acc, n_rejected=n_rej)

    times = _sample_times(kind, t_stop, opts.samples)
    if table is not None:
        states = table.eval(times)
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
    return MetricDiag.from_array(trajectory._table.eval(np.array([t]))[0])
