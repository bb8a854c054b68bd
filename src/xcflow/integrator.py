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

The scheme is the embedded Runge-Kutta 8(5,3) pair of Prince and Dormand,
DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, section II.10; the
`dop853.f` code), on the four components (xi_A, xi_B, xi_C, t).  An attempt
costs 12 right-hand-side evaluations: eleven new stages and the velocity at
the new state, which is the first stage of the next step.  The error is
Hairer's combined estimate from the embedded 5th- and 3rd-order weights,
err = h * S5 / sqrt(4 (S5 + 0.01 S3)) with S5, S3 the sums of squares of
the scaled component errors, which behaves like an 8th-order estimate, and
the proportional-integral controller uses the exponent 1/8 - 0.75 beta.
Each xi component is held to `rtol` (it is already relative in y), and t to
atol + rtol * t.  t is the integral of w = 1/s: the exponential through w
at both ends of a step is integrated exactly and the DOP853 weights (and
the interpolant) apply to the rest, so the geometric approach to T0 costs
no accuracy in t.  The first trial step is 0.01 in tau and no step exceeds
0.5.

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
  log-distance to the singular time.  The interpolant is DOP853's
  seventh-order continuous extension, which needs three more stages per
  step (at 1/10, 1/5 and 7/9 of it).  They come from one weight table in
  one pass over the steps that hold a requested time, each step's from its
  own stored start state, size and stages, so a row has the same bits
  whatever else is sampled.  A sample time is mapped to tau by Newton's
  method on its step's interpolant of t, and the state is
  y * exp(h * theta * P(theta)) in float, y the step's start state as the
  stepper held it: the form of a stage state, with P in `dop853.f`'s nested
  form (`contd8`), in float64.  P weighs differences of stages, so nothing
  cancels, and at theta = 1 the exponent is the stepper's h * F0 to the bit.

The step runs on Python floats, so an attempt makes no numpy call.  Each
stage state is one tableau row written out component by component into
locals, and each stage velocity is one call of `_velocity`, which evaluates
the right-hand side, s and the finiteness guard.  Every run has one
lifecycle: `_start` applies the default options, scales the run and
evaluates its first velocity; the one step loop, `_steps`, holds the
controller, the stop rules and the budget, hands each accepted step to the
caller's consumer, and after its loop builds the run's one `Termination`.
The consumer of `integrate` keeps the start state, size and stage velocities
of every accepted step in flat arrays, for the step table and the dense
output.  That of `accepted_states` keeps only the accepted states, 24 bytes
a step, and the last step.  `terminate` passes none.  So all three return
the same `Termination` field for field.

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
from enum import Enum
from itertools import accumulate
from math import ceil, exp, expm1, frexp, isfinite, ldexp, log, sqrt
from typing import NamedTuple

import numpy as np

from ._record import Record
from .flows import FlowSpec, rhs_function
from .geometry import Geometry, MetricDiag

__all__ = [
    "IntegratorOptions",
    "TerminationKind",
    "Termination",
    "Trajectory",
    "integrate",
    "terminate",
    "accepted_states",
    "sample_at",
]

# DOP853: the 8(5,3) pair of Prince & Dormand, "High order embedded
# Runge-Kutta formulae", J. Comput. Appl. Math. 7 (1981), with the error
# weights and dense output of Hairer's `dop853.f` (Hairer, Norsett & Wanner,
# Solving ODEs I, section II.10).  Stages are numbered from 1: _Ai_j is the
# weight of stage j in stage i, _Bi the 8th-order weight of stage i (stage
# 13 is f at the new state), _Ei the weights of the 5th-order error and
# _BHHi those of the 3rd-order solution that the 3rd-order error compares
# with the _Bi.  Every weight not listed is zero.
_A2_1 = 5.26001519587677318785587544488e-2
_A3_1, _A3_2 = 1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2
_A4_1, _A4_3 = 2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2
_A5_1 = 2.41365134159266685502369798665e-1
_A5_3 = -8.84549479328286085344864962717e-1
_A5_4 = 9.24834003261792003115737966543e-1
_A6_1 = 3.7037037037037037037037037037e-2
_A6_4 = 1.70828608729473871279604482173e-1
_A6_5 = 1.25467687566822425016691814123e-1
_A7_1 = 3.7109375e-2
_A7_4 = 1.70252211019544039314978060272e-1
_A7_5 = 6.02165389804559606850219397283e-2
_A7_6 = -1.7578125e-2
_A8_1 = 3.70920001185047927108779319836e-2
_A8_4 = 1.70383925712239993810214054705e-1
_A8_5 = 1.07262030446373284651809199168e-1
_A8_6 = -1.53194377486244017527936158236e-2
_A8_7 = 8.27378916381402288758473766002e-3
_A9_1 = 6.24110958716075717114429577812e-1
_A9_4 = -3.36089262944694129406857109825
_A9_5 = -8.68219346841726006818189891453e-1
_A9_6 = 2.75920996994467083049415600797e1
_A9_7 = 2.01540675504778934086186788979e1
_A9_8 = -4.34898841810699588477366255144e1
_A10_1 = 4.77662536438264365890433908527e-1
_A10_4 = -2.48811461997166764192642586468
_A10_5 = -5.90290826836842996371446475743e-1
_A10_6 = 2.12300514481811942347288949897e1
_A10_7 = 1.52792336328824235832596922938e1
_A10_8 = -3.32882109689848629194453265587e1
_A10_9 = -2.03312017085086261358222928593e-2
_A11_1 = -9.3714243008598732571704021658e-1
_A11_4 = 5.18637242884406370830023853209
_A11_5 = 1.09143734899672957818500254654
_A11_6 = -8.14978701074692612513997267357
_A11_7 = -1.85200656599969598641566180701e1
_A11_8 = 2.27394870993505042818970056734e1
_A11_9 = 2.49360555267965238987089396762
_A11_10 = -3.0467644718982195003823669022
_A12_1 = 2.27331014751653820792359768449
_A12_4 = -1.05344954667372501984066689879e1
_A12_5 = -2.00087205822486249909675718444
_A12_6 = -1.79589318631187989172765950534e1
_A12_7 = 2.79488845294199600508499808837e1
_A12_8 = -2.85899827713502369474065508674
_A12_9 = -8.87285693353062954433549289258
_A12_10 = 1.23605671757943030647266201528e1
_A12_11 = 6.43392746015763530355970484046e-1
_B1 = 5.42937341165687622380535766363e-2
_B6 = 4.45031289275240888144113950566
_B7 = 1.89151789931450038304281599044
_B8 = -5.8012039600105847814672114227
_B9 = 3.1116436695781989440891606237e-1
_B10 = -1.52160949662516078556178806805e-1
_B11 = 2.01365400804030348374776537501e-1
_B12 = 4.47106157277725905176885569043e-2
_E1 = 0.1312004499419488073250102996e-1
_E6 = -0.1225156446376204440720569753e1
_E7 = -0.4957589496572501915214079952
_E8 = 0.1664377182454986536961530415e1
_E9 = -0.3503288487499736816886487290
_E10 = 0.3341791187130174790297318841
_E11 = 0.8192320648511571246570742613e-1
_E12 = -0.2235530786388629525884427845e-1
_BHH1 = 0.244094488188976377952755905512
_BHH9 = 0.733846688281611857341361741547
_BHH12 = 0.220588235294117647058823529412e-1
# stage abscissae, in units of the step: stages 1-13, then the three that only the dense output uses
_C = np.array([
    0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510, 0.281649658092772603273242802490, 1 / 3, 1 / 4, 4 / 13,
    127 / 195, 3 / 5, 6 / 7, 1.0, 1.0, 1 / 10, 1 / 5, 7 / 9,
])
_C6, _C7, _C8, _C9, _C10, _C11 = _C[5:11].tolist()
# Stages 14-16, which only the continuous extension uses: per stage, the (j, weight of stage j+1)
# pairs of its sum in the order the sum runs.
_EXTRA = (
    ((0, 5.61675022830479523392909219681e-2), (6, 2.53500210216624811088794765333e-1),
     (7, -2.46239037470802489917441475441e-1), (8, -1.24191423263816360469010140626e-1),
     (9, 1.5329179827876569731206322685e-1), (10, 8.20105229563468988491666602057e-3),
     (11, 7.56789766054569976138603589584e-3), (12, -8.298e-3)),
    ((0, 3.18346481635021405060768473261e-2), (5, 2.83009096723667755288322961402e-2),
     (6, 5.35419883074385676223797384372e-2), (7, -5.49237485713909884646569340306e-2),
     (10, -1.08347328697249322858509316994e-4), (11, 3.82571090835658412954920192323e-4),
     (12, -3.40465008687404560802977114492e-4), (13, 1.41312443674632500278074618366e-1)),
    ((0, -4.28896301583791923408573538692e-1), (5, -4.69762141536116384314449447206),
     (6, 7.68342119606259904184240953878), (7, 4.06898981839711007970213554331),
     (8, 3.56727187455281109270669543021e-1), (12, -1.39902416515901462129418009734e-3),
     (13, 2.9475147891527723389556272149), (14, -9.15095847217987001081870187138)),
)
# each row of _EXTRA as its stage indices and its weight column, for the column sums of `_extra_stages`
_EXTRA_COLUMNS = [([j for j, _ in row], np.array([[a] for _, a in row])) for row in _EXTRA]
# Continuous extension, in the nested form of `dop853.f`'s `contd8`: over a step,
# xi(theta) = x0 + h * theta * P(theta) with P(theta) = F0 + (1 - theta) * (F1 + theta
# * (F2 + (1 - theta) * (F3 + theta * (F4 + (1 - theta) * (F5 + theta * F6))))), where
# F0 is the step's increment sum b_i k_i, F1 = k_1 - F0, F2 = F0 - k_13 - F1 and
# F3-F6 = sum_i d_i (k_i - k_1) over the rows of _D, which weigh stages 6-16.
# `dop853.f` gives stage 1 minus the sum of the others, to rounding, so the
# differences k_i - k_1 apply its rows exactly as rows that sum to 0.
_D = (
    (
        0.56671495351937776962531783590, -0.30689499459498916912797304727e1, 0.23846676565120698287728149680e1,
        0.21170345824450282767155149946e1, -0.87139158377797299206789907490, 0.22404374302607882758541771650e1,
        0.63157877876946881815570249290, -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e2,
        -0.91946323924783554000451984436e1, -0.44360363875948939664310572000e1,
    ),
    (
        0.24228349177525818288430175319e3, 0.16520045171727028198505394887e3, -0.37454675472269020279518312152e3,
        -0.22113666853125306036270938578e2, 0.77334326684722638389603898808e1, -0.30674084731089398182061213626e2,
        -0.93321305264302278729567221706e1, 0.15697238121770843886131091075e2, -0.31139403219565177677282850411e2,
        -0.93529243588444783865713862664e1, 0.35816841486394083752465898540e2,
    ),
    (
        -0.38703730874935176555105901742e3, -0.18917813819516756882830838328e3, 0.52780815920542364900561016686e3,
        -0.11573902539959630126141871134e2, 0.68812326946963000169666922661e1, -0.10006050966910838403183860980e1,
        0.77771377980534432092869265740, -0.27782057523535084065932004339e1, -0.60196695231264120758267380846e2,
        0.84320405506677161018159903784e2, 0.11992291136182789328035130030e2,
    ),
    (
        -0.15418974869023643374053993627e3, -0.23152937917604549567536039109e3, 0.35763911791061412378285349910e3,
        0.93405324183624310003907691704e2, -0.37458323136451633156875139351e2, 0.10409964950896230045147246184e3,
        0.29840293426660503123344363579e2, -0.43533456590011143754432175058e2, 0.96324553959188282948394950600e2,
        -0.39177261675615439165231486172e2, -0.14972683625798562581422125276e3,
    ),
)
# the stage indices and weight column of the increment's sum, and _D as (row, stage, 1), for `_coefficients`
_INCREMENT = ([0, 5, 6, 7, 8, 9, 10, 11], np.array([[_B1], [_B6], [_B7], [_B8], [_B9], [_B10], [_B11], [_B12]]))
_D_WEIGHTS = np.array(_D)[:, :, None]
_INF = float("inf")

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_BETA = 0.04  # PI controller integral gain
_EXPO = 1 / 8 - 0.75 * _BETA  # the error estimate behaves like order 8
# The controller aims below the acceptance threshold err <= 1.  Collapsing
# solutions amplify earlier local errors like (u_then/u_now), so steering to
# a small fraction of the tolerance is what keeps whole-run deviations from
# the closed forms near the tolerance itself instead of orders above it.
_ERR_TARGET = 0.05
_H_START = 0.01  # first trial step in tau; dimensionless, since |dxi/dtau| <= 1
_H_MAX = 0.5  # largest step in tau: longer steps let sampled differences such as A - C step the wrong way
_T_RESOLUTION = 1e-13  # an accepted step advancing t by at most this fraction of t ends the run
_EPS = 2.0**-52  # float spacing at 1: one ulp of t is at most _EPS * t
_H_FLOOR = 1e-12  # a retry step in tau below this ends the run
_SAMPLES_LIMIT = 1_000_000  # rows of a dense output, so that every sample grid fits in memory
_EVAL_CHUNK = 4096  # rows of a dense output evaluated in one pass, so that a pass's temporaries stay bounded
_NEWTON_STEPS = 2  # fixed, so a time maps to the same tau in any stack of times
_VM_FLOOR = np.nextafter(-1.0, 0.0)
_VANISH_RATIO = 1e-4  # diagnostic classification of the last accepted state
_EXPLODE_RATIO = 1e4
_LABELS = ("A", "B", "C")


class TerminationKind(Enum):
    REACHED_T_MAX = "reached_t_max"
    SINGULAR_TIME = "singular_time"
    STEP_BUDGET_EXHAUSTED = "step_budget_exhausted"


class Termination(Record):
    """Why and where the integration stopped."""

    kind: TerminationKind
    t_stop: float
    vanishing: tuple[str, ...] = ()
    exploding: tuple[str, ...] = ()
    trigger: str = ""
    n_accepted: int = 0
    n_rejected: int = 0

    def to_dict(self) -> dict:
        return {**super().to_dict(), "kind": self.kind.value, "vanishing": list(self.vanishing),
                "exploding": list(self.exploding)}


class IntegratorOptions(Record):
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
        for name, value in self.to_dict().items():  # a bool is an int, but no horizon, tolerance or count
            integral = name in ("max_steps", "samples")
            kinds = (int, np.integer) if integral else (int, float, np.integer, np.floating)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"{name} must be {'an integer' if integral else 'a real number'}, got {value!r}")
        if not (isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError("t_max must be finite and positive")
        if not (isfinite(self.rtol) and self.rtol > 0.0 and isfinite(self.atol) and self.atol > 0.0):
            raise ValueError("rtol and atol must be finite and positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if not 2 <= self.samples <= _SAMPLES_LIMIT:
            raise ValueError(f"samples must be between 2 and {_SAMPLES_LIMIT}, got {self.samples!r}")


class _StepTable(Record, eq=False):
    """Accepted steps in scaled units, with the interpolant of each step built when first sampled."""

    t0: np.ndarray  # (m,) scaled step start times
    h: np.ndarray  # (m,) step sizes in tau
    y: np.ndarray  # (m, 3) scaled states at step starts, as the stepper held them
    K: np.ndarray  # (m, 13, 4) stage velocities of each step, stage 13 at its end
    w0: np.ndarray  # (m,) dt/dtau at step starts
    a: np.ndarray  # (m,) log of dt/dtau at the start over dt/dtau at the end
    k: int  # binary exponent of the scale: y = 2^k * scaled y, t = 4^k * scaled t
    rhs: object  # the run's right-hand side, for the stages of the continuous extension
    smin: float  # the run's floor of s

    def __post_init__(self) -> None:
        # not fields: the interpolant coefficients F0-F6, filled step by step as steps are sampled, (m, 7, 4),
        # of xi_A, xi_B, xi_C and of the non-exponential part of dt/dtau; and (m,) whether q holds the step
        object.__setattr__(self, "q", np.zeros((len(self.h), 7, 4)))
        object.__setattr__(self, "ready", np.zeros(len(self.h), dtype=bool))

    def _build(self, idx: np.ndarray) -> None:
        """Interpolant coefficients of every step in idx that has none yet.

        `_extra_stages` gives the new steps, in one pass, the three extra
        stages of the extension, each step's from its own start state, size
        and stages.  `_coefficients` forms F0-F6 in float by the same
        operations for every step and component: a step's coefficients do
        not depend on which other steps are built with it, and exactly equal
        stage velocities give exactly equal coefficients.  For t they are
        formed from the stage values of dt/dtau less the exponential
        w0 * exp(-a c) through its two ends.  A step whose extra stage raises
        ArithmeticError keeps its rows: it gets F3-F6 = 0, the cubic Hermite
        interpolant through its two ends, which needs no extra stage.
        """
        mark = np.zeros(len(self.h), dtype=bool)
        mark[idx] = True
        new = np.flatnonzero(mark & ~self.ready)
        if not len(new):
            return
        K, extended = _extra_stages(self.rhs, self.y[new], self.K[new], self.h[new], self.smin)
        K[:, :, 3] -= self.w0[new, None] * np.exp(-self.a[new, None] * _C)
        self.q[new] = _coefficients(K, extended)
        self.ready[new] = True

    def eval(self, t: np.ndarray) -> np.ndarray:
        """Interpolated states (n, 3), in the caller's units, at the scaled times t (n,) in [0, t_end].

        The rows are evaluated `_EVAL_CHUNK` at a time, by `_eval_chunk`: a
        row depends on its own step alone, so it has the same bits in any
        chunk, and the memory of a pass does not grow with n.
        """
        rows = np.empty((len(t), 3))
        for i in range(0, len(t), _EVAL_CHUNK):
            rows[i:i + _EVAL_CHUNK] = self._eval_chunk(t[i:i + _EVAL_CHUNK])
        return rows

    def _eval_chunk(self, t: np.ndarray) -> np.ndarray:
        """`eval` of one stack of times, all in one pass.

        Within a step, t is t0 + h * (w0 * E(theta) + theta * Pt(theta)) with
        E(theta) = (1 - exp(-a theta))/a: exact where dt/dtau decays or grows
        exponentially, as it does on a self-similar approach, with the
        degree-6 Pt of the continuous extension for the rest.  theta solves it
        for the sample time by a fixed number of Newton steps in
        v = E(theta)/E(1), in which the time is nearly linear even where it is
        flat in theta, clipped to [0, 1].  Then the state is
        y * exp(h * theta * P(theta)) in float, y the step's start state as
        the stepper held it and P the degree-6 polynomial of the
        seventh-order extension in its nested form: the form of a stage state,
        so theta = 0 gives y exactly and a row depends on its own step alone.
        Everything is elementwise, so a time gives the same bits in any stack
        of times (`sample_at` evaluates a stack of one).
        """
        idx = np.searchsorted(self.t0, t, side="right") - 1  # t0[0] = 0, so idx >= 0
        self._build(idx)
        h, w0, a, q = self.h[idx], self.w0[idx], self.a[idx], self.q[idx]
        c = q[:, :, 3].T
        flat = a == 0.0
        a_div = np.where(flat, 1.0, a)
        m = np.expm1(-a)
        e1 = np.where(flat, 1.0, -m / a_div)  # E(1)
        lin = w0 * e1  # the exponential part of (t - t0)/h is lin * v
        d = (t - self.t0[idx]) / h

        def theta_of(v):
            vm = np.maximum(v * m, _VM_FLOOR)  # 1 + vm = exp(-a theta) > 0
            return vm, np.where(flat, v, np.minimum(-np.log1p(vm) / a_div, 1.0))

        def pt(theta):  # theta * Pt(theta) and its derivative, Pt in the nested form
            s1 = 1.0 - theta
            p, dp = c[6], 0.0
            for j in range(5, -1, -1):
                if j % 2:  # F_j + theta * p
                    p, dp = c[j] + theta * p, p + theta * dp
                else:  # F_j + (1 - theta) * p
                    p, dp = c[j] + s1 * p, s1 * dp - p
            return theta * p, p + theta * dp

        v = np.clip(d / (lin + pt(1.0)[0]), 0.0, 1.0)
        vm, theta = theta_of(v)
        for _ in range(_NEWTON_STEPS):
            p, dp = pt(theta)
            dtheta = np.where(flat, 1.0, e1 / (1.0 + vm))
            v = np.clip(v - (lin * v + p - d) / (lin + dp * dtheta), 0.0, 1.0)
            vm, theta = theta_of(v)
        # y * exp(h * theta * P(theta)), in place: after F_j, the factor of the next level out
        theta = theta[:, None]
        s1 = 1.0 - theta
        x = q[:, 6, :3] * theta
        for j in range(5, -1, -1):
            x += q[:, j, :3]
            x *= s1 if j % 2 else theta
        x *= h[:, None]
        np.exp(x, out=x)
        x *= self.y[idx]
        return np.ldexp(x, self.k)


def _rounded_sum_size(weights: np.ndarray) -> float:
    """sum |w_s| + sum over j >= 2 of |w_1 + ... + w_j|, over the nonzero weights in order.

    The products and running sums at which a left-to-right sum of w_s * k_s
    rounds, when every k_s is the same k with |k| <= 1.
    """
    w = [float(v) for v in weights if v]
    return sum(map(abs, w)) + sum(map(abs, list(accumulate(w))[1:]))


# `_ROUNDING_SPACINGS`, n: the rounding of `_StepTable.eval`'s rows alone makes a difference such as
# A - C or A - 3C step the wrong way, where the interpolant's is monotone, by at most n spacings of the
# larger operand at either end of the step; `analysis`'s monotone checks ignore such steps.  A relative
# error of e * u in a value v (u = 2^-53) is less than e spacings of v, and so of the larger operand.
#
# Assumption: the stage velocities k_s of a step are nearly equal, so that F0 is about k_1,
# |k_1| <= 1 (|dxi/dtau| <= 1), and F1-F6, which weigh their differences, are near 0: every level
# of the nested form is at most 1 in size, F1 = k_1 - F0 and F0 - k_13 are exact, and the roundings
# of F1-F6 and of the inner levels are far below u.  That is where a difference is tight: dxi/dtau
# is nearly constant across a step near a self-similar singularity.  (On the 80 near-symmetric Sol
# runs of the monotone sweep test, |F0| + ... + |F6| exceeds 1 by at most 1.2e-11.)  Every other
# rounding is at most u relative, and np.exp and math.exp are within one ulp, at most 2u relative on
# [exp(-1/2), exp(1/2)].  Errors that are the same for every component of equal velocity, such as
# those of the tableau's constants, move both operands alike and are not counted, nor is the error
# of theta, which is common to the row.
#
# Per operand, in u relative, with h <= `_H_MAX` = 1/2:
# - a row value (`_ROW_ROUNDING`): the outer sum F0 + (1 - theta) * (...) and the products by theta
#   and by h, of size at most 1, times h: 1.5; np.exp: 2; the product by y: 1.  That is 4.5, and 9
#   for two rows;
# - a step's increment (`_INCREMENT_ROUNDING`): the float sum F0 = sum_s b_s k_s, of size 28.02 by
#   `_rounded_sum_size`, times h: 14.01.  An error e in F0 (so -e in F1 and 2e in F2) moves the
#   step's exponent by h * e * theta^2 (3 - 2 theta), from 0 at its start to h * e at its end, where
#   the next step starts.  So it moves two rows apart by at most h * e within a step and 2 h * e
#   across a join: 28.02;
# - a join (`_JOIN_ROUNDING`): the second step starts from the stepper's next state
#   y * exp(h * F0), with the same F0.  Against the first step's interpolant at its end it carries
#   the product by h, times h: 0.5; exp: 2; the product by y: 1.  That is 3.5.
# Summed over the two operands: 2 * (9 + 28.02 + 3.5) = 81.04.  The difference itself and the
# product 3 * C each round by at most half a spacing per row: 2 more, 83.04, rounded up to n = 84.
# Measured on the 80 near-symmetric runs, the largest wrong-way step is 10 spacings, with median 1,
# and steps across a join reach 2.
_ROW_ROUNDING = _H_MAX * 3 + 2 + 1
_INCREMENT_ROUNDING = _H_MAX * _rounded_sum_size(_INCREMENT[1].ravel())
_JOIN_ROUNDING = _H_MAX * 1 + 2 + 1
_ROUNDING_SPACINGS = ceil(2 * (2 * _ROW_ROUNDING + 2 * _INCREMENT_ROUNDING + _JOIN_ROUNDING) + 2)


class Trajectory(Record, eq=False):
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
    `stages` being the thirteen stage velocities (the last is f_new)
    flattened into one 52-tuple, stage by stage, or None if the attempt is
    rejected: an ArithmeticError from a stage velocity that is not finite,
    an `exp` that overflows, or a division by a coefficient that underflowed
    to 0.  `kSa`, `kSb`, `kSc` and `kSt` are the components of the velocity
    at stage S.

    A stage state is y * exp(h * sum_j a_j k_j) componentwise, so it is
    positive by construction and carries the rounding of y itself; each
    stage velocity is one call of `_velocity`, twelve per attempt.  err is
    Hairer's combined estimate h * S5 / sqrt(4 (S5 + 0.01 S3)), where S5 is
    the sum of squares of the four scaled 5th-order error components and S3
    that of the differences between the 8th- and 3rd-order solutions.
    """
    y0, y1, y2 = y
    k1a, k1b, k1c, k1t = f
    try:
        k2a, k2b, k2c, k2t = _velocity(rhs, (
            y0 * exp(h * (_A2_1 * k1a)),
            y1 * exp(h * (_A2_1 * k1b)),
            y2 * exp(h * (_A2_1 * k1c)),
        ), smin)
        k3a, k3b, k3c, k3t = _velocity(rhs, (
            y0 * exp(h * (_A3_1 * k1a + _A3_2 * k2a)),
            y1 * exp(h * (_A3_1 * k1b + _A3_2 * k2b)),
            y2 * exp(h * (_A3_1 * k1c + _A3_2 * k2c)),
        ), smin)
        k4a, k4b, k4c, k4t = _velocity(rhs, (
            y0 * exp(h * (_A4_1 * k1a + _A4_3 * k3a)),
            y1 * exp(h * (_A4_1 * k1b + _A4_3 * k3b)),
            y2 * exp(h * (_A4_1 * k1c + _A4_3 * k3c)),
        ), smin)
        k5a, k5b, k5c, k5t = _velocity(rhs, (
            y0 * exp(h * (_A5_1 * k1a + _A5_3 * k3a + _A5_4 * k4a)),
            y1 * exp(h * (_A5_1 * k1b + _A5_3 * k3b + _A5_4 * k4b)),
            y2 * exp(h * (_A5_1 * k1c + _A5_3 * k3c + _A5_4 * k4c)),
        ), smin)
        k6a, k6b, k6c, k6t = _velocity(rhs, (
            y0 * exp(h * (_A6_1 * k1a + _A6_4 * k4a + _A6_5 * k5a)),
            y1 * exp(h * (_A6_1 * k1b + _A6_4 * k4b + _A6_5 * k5b)),
            y2 * exp(h * (_A6_1 * k1c + _A6_4 * k4c + _A6_5 * k5c)),
        ), smin)
        k7a, k7b, k7c, k7t = _velocity(rhs, (
            y0 * exp(h * (_A7_1 * k1a + _A7_4 * k4a + _A7_5 * k5a + _A7_6 * k6a)),
            y1 * exp(h * (_A7_1 * k1b + _A7_4 * k4b + _A7_5 * k5b + _A7_6 * k6b)),
            y2 * exp(h * (_A7_1 * k1c + _A7_4 * k4c + _A7_5 * k5c + _A7_6 * k6c)),
        ), smin)
        k8a, k8b, k8c, k8t = _velocity(rhs, (
            y0 * exp(h * (_A8_1 * k1a + _A8_4 * k4a + _A8_5 * k5a + _A8_6 * k6a + _A8_7 * k7a)),
            y1 * exp(h * (_A8_1 * k1b + _A8_4 * k4b + _A8_5 * k5b + _A8_6 * k6b + _A8_7 * k7b)),
            y2 * exp(h * (_A8_1 * k1c + _A8_4 * k4c + _A8_5 * k5c + _A8_6 * k6c + _A8_7 * k7c)),
        ), smin)
        k9a, k9b, k9c, k9t = _velocity(rhs, (
            y0 * exp(h * (_A9_1 * k1a + _A9_4 * k4a + _A9_5 * k5a + _A9_6 * k6a + _A9_7 * k7a + _A9_8 * k8a)),
            y1 * exp(h * (_A9_1 * k1b + _A9_4 * k4b + _A9_5 * k5b + _A9_6 * k6b + _A9_7 * k7b + _A9_8 * k8b)),
            y2 * exp(h * (_A9_1 * k1c + _A9_4 * k4c + _A9_5 * k5c + _A9_6 * k6c + _A9_7 * k7c + _A9_8 * k8c)),
        ), smin)
        k10a, k10b, k10c, k10t = _velocity(rhs, (
            y0 * exp(h * (_A10_1 * k1a + _A10_4 * k4a + _A10_5 * k5a + _A10_6 * k6a + _A10_7 * k7a
                          + _A10_8 * k8a + _A10_9 * k9a)),
            y1 * exp(h * (_A10_1 * k1b + _A10_4 * k4b + _A10_5 * k5b + _A10_6 * k6b + _A10_7 * k7b
                          + _A10_8 * k8b + _A10_9 * k9b)),
            y2 * exp(h * (_A10_1 * k1c + _A10_4 * k4c + _A10_5 * k5c + _A10_6 * k6c + _A10_7 * k7c
                          + _A10_8 * k8c + _A10_9 * k9c)),
        ), smin)
        k11a, k11b, k11c, k11t = _velocity(rhs, (
            y0 * exp(h * (_A11_1 * k1a + _A11_4 * k4a + _A11_5 * k5a + _A11_6 * k6a + _A11_7 * k7a
                          + _A11_8 * k8a + _A11_9 * k9a + _A11_10 * k10a)),
            y1 * exp(h * (_A11_1 * k1b + _A11_4 * k4b + _A11_5 * k5b + _A11_6 * k6b + _A11_7 * k7b
                          + _A11_8 * k8b + _A11_9 * k9b + _A11_10 * k10b)),
            y2 * exp(h * (_A11_1 * k1c + _A11_4 * k4c + _A11_5 * k5c + _A11_6 * k6c + _A11_7 * k7c
                          + _A11_8 * k8c + _A11_9 * k9c + _A11_10 * k10c)),
        ), smin)
        k12a, k12b, k12c, k12t = _velocity(rhs, (
            y0 * exp(h * (_A12_1 * k1a + _A12_4 * k4a + _A12_5 * k5a + _A12_6 * k6a + _A12_7 * k7a
                          + _A12_8 * k8a + _A12_9 * k9a + _A12_10 * k10a + _A12_11 * k11a)),
            y1 * exp(h * (_A12_1 * k1b + _A12_4 * k4b + _A12_5 * k5b + _A12_6 * k6b + _A12_7 * k7b
                          + _A12_8 * k8b + _A12_9 * k9b + _A12_10 * k10b + _A12_11 * k11b)),
            y2 * exp(h * (_A12_1 * k1c + _A12_4 * k4c + _A12_5 * k5c + _A12_6 * k6c + _A12_7 * k7c
                          + _A12_8 * k8c + _A12_9 * k9c + _A12_10 * k10c + _A12_11 * k11c)),
        ), smin)
        ba = _B1 * k1a + _B6 * k6a + _B7 * k7a + _B8 * k8a + _B9 * k9a + _B10 * k10a + _B11 * k11a + _B12 * k12a
        bb = _B1 * k1b + _B6 * k6b + _B7 * k7b + _B8 * k8b + _B9 * k9b + _B10 * k10b + _B11 * k11b + _B12 * k12b
        bc = _B1 * k1c + _B6 * k6c + _B7 * k7c + _B8 * k8c + _B9 * k9c + _B10 * k10c + _B11 * k11c + _B12 * k12c
        z = (y0 * exp(h * ba), y1 * exp(h * bb), y2 * exp(h * bc))
        k13a, k13b, k13c, k13t = f_new = _velocity(rhs, z, smin)
        # t is the integral of w = dt/dtau.  The exponential through both ends,
        # k1t * exp(-a tau/h), is integrated exactly; the DOP853 weights apply
        # to the stage values less it (stages 1 and 13 lie on it, and stages
        # 2-5 have no weight in the solution or the error estimates)
        a = log(k1t / k13t)
        lin = k1t if a == 0.0 else k1t * -expm1(-a) / a
        r6 = k6t - k1t * exp(-_C6 * a)
        r7 = k7t - k1t * exp(-_C7 * a)
        r8 = k8t - k1t * exp(-_C8 * a)
        r9 = k9t - k1t * exp(-_C9 * a)
        r10 = k10t - k1t * exp(-_C10 * a)
        r11 = k11t - k1t * exp(-_C11 * a)
        r12 = k12t - k1t * exp(-a)
    except ArithmeticError:
        return None
    bt = _B6 * r6 + _B7 * r7 + _B8 * r8 + _B9 * r9 + _B10 * r10 + _B11 * r11 + _B12 * r12
    dt = h * (lin + bt)
    # the scaled error components: xi is relative in y, and t >= 0
    st = atol + rtol * (t + dt)
    e5a = (_E1 * k1a + _E6 * k6a + _E7 * k7a + _E8 * k8a + _E9 * k9a + _E10 * k10a + _E11 * k11a + _E12 * k12a) / rtol
    e5b = (_E1 * k1b + _E6 * k6b + _E7 * k7b + _E8 * k8b + _E9 * k9b + _E10 * k10b + _E11 * k11b + _E12 * k12b) / rtol
    e5c = (_E1 * k1c + _E6 * k6c + _E7 * k7c + _E8 * k8c + _E9 * k9c + _E10 * k10c + _E11 * k11c + _E12 * k12c) / rtol
    e5t = (_E6 * r6 + _E7 * r7 + _E8 * r8 + _E9 * r9 + _E10 * r10 + _E11 * r11 + _E12 * r12) / st
    e3a = (ba - (_BHH1 * k1a + _BHH9 * k9a + _BHH12 * k12a)) / rtol
    e3b = (bb - (_BHH1 * k1b + _BHH9 * k9b + _BHH12 * k12b)) / rtol
    e3c = (bc - (_BHH1 * k1c + _BHH9 * k9c + _BHH12 * k12c)) / rtol
    e3t = (bt - (_BHH9 * r9 + _BHH12 * r12)) / st
    s5 = ((e5a * e5a + e5b * e5b) + e5c * e5c) + e5t * e5t
    s3 = ((e3a * e3a + e3b * e3b) + e3c * e3c) + e3t * e3t
    deno = s5 + 0.01 * s3
    err = h * s5 / sqrt(4.0 * deno) if deno > 0.0 else 0.0
    k = (
        k1a, k1b, k1c, k1t, k2a, k2b, k2c, k2t, k3a, k3b, k3c, k3t, k4a, k4b, k4c, k4t, k5a, k5b,
        k5c, k5t, k6a, k6b, k6c, k6t, k7a, k7b, k7c, k7t, k8a, k8b, k8c, k8t, k9a, k9b, k9c, k9t,
        k10a, k10b, k10c, k10t, k11a, k11b, k11c, k11t, k12a, k12b, k12c, k12t, k13a, k13b, k13c,
        k13t,
    )
    return z, dt, f_new, err, k


def _extra_stages(rhs, y, K, h, smin):
    """Stages 14-16 of the n steps with start states y (n, 3), stages K (n, 13, 4) and sizes h (n,).

    Returns the stages (n, 16, 4) and a mask of the steps whose three extra
    stages are all finite.  Each stage sum h * sum_j a_j k_j is formed on
    whole columns in the order of its row of `_EXTRA`, which gives the bits
    of the same sum on floats; then, step by step, the stage state
    y * exp(sum) and its velocity as in `_attempt_step`.  A step whose stage
    raises ArithmeticError is masked and gets no further stage.
    """
    K = np.concatenate([K, np.zeros((len(h), 3, 4))], axis=1)
    ok = [True] * len(h)
    ys, hs = y.tolist(), h[:, None]
    for i, (j, a) in enumerate(_EXTRA_COLUMNS, 13):
        x = hs * (K[:, j, :3] * a).cumsum(axis=1)[:, -1]  # cumsum adds the terms left to right
        for s, ((y0, y1, y2), (x0, x1, x2)) in enumerate(zip(ys, x.tolist())):
            if ok[s]:
                try:
                    K[s, i] = _velocity(rhs, (y0 * exp(x0), y1 * exp(x1), y2 * exp(x2)), smin)
                except ArithmeticError:
                    ok[s] = False
    return K, np.array(ok)


def _coefficients(K, extended):
    """F0-F6 (n, 7, 4) of the nested form, from the stages K (n, 16, 4); F3-F6 = 0 where not `extended`.

    Each sum runs left to right (`cumsum`), as the same sum on floats does,
    so F0 of a xi component has the bits of the stepper's increment `ba`.
    """
    k1 = K[:, 0]
    f0 = (K[:, _INCREMENT[0]] * _INCREMENT[1]).cumsum(axis=1)[:, -1]
    f1 = k1 - f0
    fd = ((K[:, None, 5:] - k1[:, None, None]) * _D_WEIGHTS).cumsum(axis=2)[:, :, -1]
    fd[~extended] = 0.0
    return np.concatenate([f0[:, None], f1[:, None], (f0 - K[:, 12] - f1)[:, None], fd], axis=1)


def _step_table(t0, h, y, stages, k, rhs, smin) -> _StepTable:
    """Table of accepted steps from their start times, sizes, start states and stages, each flat."""
    K = np.asarray(stages, dtype=float).reshape(-1, 13, 4)
    w0 = K[:, 0, 3]
    t0, h, y = np.asarray(t0, dtype=float), np.asarray(h, dtype=float), np.asarray(y, dtype=float).reshape(-1, 3)
    return _StepTable(t0, h, y, K, w0, np.log(w0 / K[:, 12, 3]), k, rhs, smin)


def _sample_times(kind: TerminationKind, t_end: float, n: int) -> np.ndarray:
    """Deterministic dense-output grid of n rows: starts at 0, increases strictly and ends at t_end.

    Singular runs get an eighth of the rows uniformly over the first half of
    the run and the m = n - n/8 - 1 others geometrically spaced in
    u = t_stop - t from half the run down to a floor f * t_stop, so that
    the output covers every decade of the approach at equal density in
    log(u), though no fit reads it: 512 rows put at least 32 in each decade
    of u within [1e-12, 1e-1] * t_stop.  The two shares meet at no row, since
    the uniform one stops short of half the run.  Completed runs are sampled
    geometrically in t.  Two rows are the two ends of the run.

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


class _Run(NamedTuple):
    """The scaled start of a run, for `_steps` and for the consumers of its steps."""

    rhs: object  # the right-hand side, from `rhs_function` at call time
    k: int  # binary exponent of the scale: y = 2^k * scaled y, t = 4^k * scaled t
    base: tuple  # the scaled initial metric
    t_max: float  # the scaled horizon
    smin: float  # the floor of s, 1 / t_max
    f: tuple  # the velocity at the initial metric
    opts: IntegratorOptions  # the caller's options, or the defaults


def _start(geometry: Geometry, spec: FlowSpec, m0: MetricDiag, options: IntegratorOptions | None) -> _Run:
    """Scale the run and evaluate its first velocity; ValueError if it cannot start."""
    opts = options if options is not None else IntegratorOptions()
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
    return _Run(rhs, k, base, t_max, smin, f, opts)


def _steps(run: _Run, keep=None) -> tuple[Termination, tuple]:
    """Step a run to its end; return its `Termination` and its last accepted state, scaled.

    Each accepted step is handed to `keep(t, h, y, stages)`, if given: the
    step's scaled start time, size in tau and scaled start state, and the
    52-tuple of `_attempt_step`.  An accepted step that ends the run on
    `step_underflow` is not handed on: its state is only the last one
    returned.  The step that reaches t_max is.
    """
    rhs, smin, t_max, f = run.rhs, run.smin, run.t_max, run.f
    rtol, atol, max_steps = run.opts.rtol, run.opts.atol, run.opts.max_steps
    y = run.base
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
        if out is None or not out[3] <= 1.0:  # an err that overflowed to NaN is rejected too
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
            kind, t_stop, trigger, y = TerminationKind.SINGULAR_TIME, t, "step_underflow", y_new
            break
        comp = carry - (t_new - t)
        if keep is not None:
            keep(t, h, y, stages)
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

    vanishing = exploding = ()
    if kind is TerminationKind.SINGULAR_TIME:  # diagnose the last accepted state against the initial one
        ratios = [a / b for a, b in zip(y, run.base)]
        vanishing = tuple(_LABELS[i] for i in range(3) if ratios[i] <= _VANISH_RATIO)
        exploding = tuple(_LABELS[i] for i in range(3) if ratios[i] >= _EXPLODE_RATIO)
    term = Termination(kind, ldexp(t_stop, 2 * run.k), vanishing, exploding, trigger,
                       n_accepted=n_acc, n_rejected=n_rej)
    return term, y


def _sampled(table: _StepTable, termination: Termination, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-row grid of the run that `table` holds and ended on `termination`, and its rows, in the caller's units."""
    grid = _sample_times(termination.kind, ldexp(termination.t_stop, -2 * table.k), n)
    return np.ldexp(grid, 2 * table.k), table.eval(grid)


def integrate(
    geometry: Geometry,
    spec: FlowSpec,
    m0: MetricDiag,
    options: IntegratorOptions | None = None,
) -> Trajectory:
    """Run the flow from m0 until t_max, a singular time, or the step budget."""
    run = _start(geometry, spec, m0, options)
    # accepted steps, flat: start time, size in tau, start state, stage velocities (13 x 4);
    # a step's interpolant is built when it is sampled
    rows_t, rows_h, rows_y, rows_k = array("d"), array("d"), array("d"), array("d")

    def keep(t, h, y, stages):
        rows_t.append(t)
        rows_h.append(h)
        rows_y.extend(y)
        rows_k.extend(stages)

    termination = _steps(run, keep)[0]
    if rows_t:
        table = _step_table(rows_t, rows_h, rows_y, rows_k, run.k, run.rhs, run.smin)
        times, states = _sampled(table, termination, run.opts.samples)
    else:  # stopped before the first accepted step, so t_stop = 0
        table, times, states = None, np.array([0.0]), np.array([m0.as_tuple()])
    for arr in (times, states):
        arr.setflags(write=False)
    return Trajectory(geometry, spec, m0, run.opts, times, states, termination, table)


def terminate(
    geometry: Geometry,
    spec: FlowSpec,
    m0: MetricDiag,
    options: IntegratorOptions | None = None,
) -> Termination:
    """`integrate(geometry, spec, m0, options).termination`, from the same steps, keeping none of them.

    It builds no step table and no dense output, so `options.samples` is
    not used.
    """
    return _steps(_start(geometry, spec, m0, options))[0]


def accepted_states(
    geometry: Geometry,
    spec: FlowSpec,
    m0: MetricDiag,
    options: IntegratorOptions | None = None,
) -> tuple[Termination, np.ndarray]:
    """The `Termination` of `terminate` and the states (n, 3) the stepper accepted, in the caller's units.

    The rows are the start state of every step `_steps` hands on, m0 first
    and bit for bit, then the last accepted state.  Each is the stepper's
    own state times 2^k, which is exact.  A run that reached t_max holds no
    state there, since its last step crosses it: its last row is the dense
    output at t_max of that step alone, bit for bit the last row of
    `integrate`.  It keeps 24 bytes a step and builds no step table but
    that one-step one, so `options.samples` is not used.
    """
    run = _start(geometry, spec, m0, options)
    rows, last = array("d"), []

    def keep(*step):
        rows.extend(step[2])
        last[:] = step

    termination, y = _steps(run, keep)
    if termination.kind is TerminationKind.REACHED_T_MAX:
        t, h, y0, stages = last
        last_row = _step_table([t], [h], y0, stages, run.k, run.rhs, run.smin).eval(np.array([run.t_max]))
    else:
        last_row = np.ldexp(np.array([y]), run.k)
    return termination, np.vstack([np.ldexp(np.frombuffer(rows).reshape(-1, 3), run.k), last_row])


def _rows_at(trajectory: Trajectory, times: np.ndarray) -> np.ndarray:
    """Dense output (n, 3) at flow times (n,) in [0, t_end], with the emitted rows' bits; needs an accepted step."""
    table = trajectory._table
    return table.eval(np.ldexp(times, -2 * table.k))


def _grid_rows(trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """The times and rows `integrate` emits on this run at the default `IntegratorOptions.samples`, bit for bit."""
    table, samples = trajectory._table, IntegratorOptions.samples
    if table is None or trajectory.options.samples == samples:  # its own rows; with no step, m0 at t = 0 alone
        return trajectory.times, trajectory.states
    return _sampled(table, trajectory.termination, samples)


def sample_at(trajectory: Trajectory, t: float) -> MetricDiag:
    """Interpolated metric at flow time t, consistent with the dense output: `_rows_at` of one row."""
    t = float(t)
    if not (0.0 <= t <= trajectory.t_end):
        raise ValueError(f"t={t!r} outside the valid range [0, {trajectory.t_end!r}] of this trajectory")
    if t == 0.0:
        return trajectory.m0
    return MetricDiag.from_array(_rows_at(trajectory, np.array([t]))[0])
