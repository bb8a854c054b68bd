"""Quantitative checks of flow trajectories against the expected structure.

Three estimators and one aggregator:

* `estimate_blowup_time` extrapolates the singular time T0 by fitting the
  square of the vanishing coefficient linearly in t (the square of every
  collapsing direction here closes linearly), refined once by re-windowing
  in T0_est - t;
* `fit_power_law` fits value ~ coeff * x^p by linear regression of logs,
  where x is t for late-time laws and T0 - t for blow-up laws;
* `estimate_limit_plus_power` fits value ~ L + c * t^p for laws with a
  finite limit;
* `verify` runs every conserved, monotone, asymptotic and branch-specific
  check that applies to a trajectory and returns a structured report.

Default fit windows, fixed for reproducibility: late-time fits use
[t_max/10, t_max]; blow-up fits use u = T0 - t in [1e-4, 1e-3] * T0.  That
decade is deep enough that next-order corrections (relative size O(u/T0))
are far below the stated tolerances, yet shallow enough that difference
series such as A - C, which shrink like u relative to their parents, stay
several orders of magnitude above solver noise.  The samples nearest the
stop event are never used: solver error and the float resolution of T0 - t
pollute them.  All windows must contain at least 32 samples.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import sqrt

import numpy as np

from .analytic import (
    DECREASING,
    REGIME_BLOWUP,
    REGIME_INFINITY,
    AsymptoticLaw,
    canonical_permutation,
    classify_branch,
    conserved_quantities,
    exact_solution,
    expected_asymptotics,
    monotone_quantities,
    singular_time,
    sl2r_trapping_entry,
)
from .flows import FlowDirection, FlowSpec
from .geometry import Geometry
from .integrator import TerminationKind, Trajectory

__all__ = [
    "PowerLawFit",
    "LimitPowerFit",
    "CheckResult",
    "LawResult",
    "VerificationReport",
    "series_values",
    "estimate_blowup_time",
    "estimate_blowup_time_from_series",
    "fit_power_law",
    "estimate_limit_plus_power",
    "verify",
    "CONSERVED_DRIFT_TOL",
    "MONOTONE_SLACK",
    "CLOSED_FORM_TOL",
    "SYMMETRY_LOCK_TOL",
    "BLOWUP_TIME_TOL",
    "RATIO_LIMIT_TOL",
    "QUADRATURE_TOL",
    "PRODUCT_TAIL_TOL",
    "E2_COEFF_RELATION_TOL",
    "SL2R_COEFF_RELATION_TOL",
    "SL2R_TAIL_RATE_TOL",
]

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

_MIN_WINDOW_SAMPLES = 32
_TAIL_EXCLUSION = 0.01  # fraction of the run next to the stop event left out of T0 fits
_BLOWUP_WINDOW_DEPTH = 1e-4  # default blow-up fit window: u in [depth, 10*depth]*T0

# Gate thresholds used by `verify`; the acceptance suite reuses them.
CONSERVED_DRIFT_TOL = 1e-9
MONOTONE_SLACK = 1e-9
CLOSED_FORM_TOL = 1e-8
SYMMETRY_LOCK_TOL = 1e-9
BLOWUP_TIME_TOL = 1e-5
RATIO_LIMIT_TOL = 0.01
QUADRATURE_TOL = 1e-4
PRODUCT_TAIL_TOL = 1e-3
E2_COEFF_RELATION_TOL = 0.05
SL2R_COEFF_RELATION_TOL = 0.02
SL2R_TAIL_RATE_TOL = 0.10
_EXPONENT_TOL_DEFAULT = 0.02


def _build_series_map():
    # Only the names the catalogs in `analytic` and the ratio checks in
    # `verify` ask for: the coefficients, their pairwise differences and
    # ratios, and the few combinations the catalogs state.
    m = {}
    idx = {"A": 0, "B": 1, "C": 2}
    for x, i in idx.items():
        m[x] = lambda S, i=i: S[:, i]
        for y, j in idx.items():
            if i != j:
                m[f"{x}-{y}"] = lambda S, i=i, j=j: S[:, i] - S[:, j]
                m[f"{x}/{y}"] = lambda S, i=i, j=j: S[:, i] / S[:, j]
    m["A+B"] = lambda S: S[:, 0] + S[:, 1]
    m["A-3C"] = lambda S: S[:, 0] - 3.0 * S[:, 2]
    m["C-3A"] = lambda S: S[:, 2] - 3.0 * S[:, 0]
    m["(A-B)^2*C"] = lambda S: (S[:, 0] - S[:, 1]) ** 2 * S[:, 2]
    m["(B-A)^2*C"] = lambda S: (S[:, 1] - S[:, 0]) ** 2 * S[:, 2]
    m["4/A+1/B"] = lambda S: 4.0 / S[:, 0] + 1.0 / S[:, 1]
    m["A^3*B"] = lambda S: S[:, 0] ** 3 * S[:, 1]
    m["A^3*C"] = lambda S: S[:, 0] ** 3 * S[:, 2]
    m["A*B*C"] = lambda S: S[:, 0] * S[:, 1] * S[:, 2]
    return m


_SERIES = _build_series_map()


def series_values(states, name: str) -> np.ndarray:
    """Evaluate a named scalar series (e.g. "A", "A-C", "A^3*B") on states."""
    if isinstance(states, Trajectory):
        states = states.states
    try:
        fn = _SERIES[name]
    except KeyError:
        raise ValueError(f"unknown series name {name!r}") from None
    return fn(np.asarray(states))


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a log-log regression value ~ coefficient * x^exponent."""

    exponent: float
    coefficient: float
    r2: float
    window: tuple[float, float]
    n_samples: int


@dataclass(frozen=True)
class LimitPowerFit:
    """Result of a linear fit value ~ limit + coefficient * t^exponent."""

    limit: float
    coefficient: float
    exponent: float
    window: tuple[float, float]
    n_samples: int


def _linefit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope, intercept and r^2.

    Computed from the centered closed form rather than a generic lstsq:
    singular-time fits regress over abscissa spans of a few ulps, where an
    SVD-based solver would drop the slope column as numerically
    rank-deficient.
    """
    x_mean = float(np.mean(x))
    y_mean = float(np.mean(y))
    dx = x - x_mean
    dy = y - y_mean
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        raise ValueError("degenerate abscissa in linear fit")
    slope = float(np.dot(dx, dy)) / sxx
    intercept = y_mean - slope * x_mean
    ss_res = float(np.sum((dy - slope * dx) ** 2))
    ss_tot = float(np.dot(dy, dy))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def _fit_window(
    times: np.ndarray,
    regime: str,
    t0: float | None = None,
    window: tuple[float, float] | None = None,
    min_samples: int = _MIN_WINDOW_SAMPLES,
) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """Abscissa, sample mask and bounds of a fit window.

    The abscissa is T0 - t for blow-up laws and t for late-time laws; the
    default windows are T0 - t in [1e-4, 1e-3] * T0 and [t_max/10, t_max].
    A window holding fewer than `min_samples` samples is rejected.
    """
    if regime == REGIME_BLOWUP:
        if t0 is None:
            raise ValueError("blow-up regime requires the singular time t0")
        x = t0 - times
        lo, hi = window if window is not None else (_BLOWUP_WINDOW_DEPTH * t0, 10.0 * _BLOWUP_WINDOW_DEPTH * t0)
        mask = (x >= lo) & (x <= hi) & (x > 0.0)
    elif regime == REGIME_INFINITY:
        x = times
        t_max = float(times[-1])
        lo, hi = window if window is not None else (t_max / 10.0, t_max)
        mask = (x >= lo) & (x <= hi)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    n = int(mask.sum())
    if n < min_samples:
        raise ValueError(f"insufficient samples in fit window [{lo:g}, {hi:g}]: {n} < {min_samples}")
    return x, mask, (float(lo), float(hi))


def _power_fit_core(
    times: np.ndarray,
    values: np.ndarray,
    regime: str,
    t0: float | None,
    window: tuple[float, float] | None,
    reached: bool,
) -> PowerLawFit:
    if regime == REGIME_INFINITY and not reached:
        raise ValueError("late-time regime requires a run that reached its horizon")
    x, mask, window = _fit_window(times, regime, t0, window)
    v = values[mask]
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise ValueError("fit window contains non-positive or non-finite values")
    slope, intercept, r2 = _linefit(np.log(x[mask]), np.log(v))
    return PowerLawFit(slope, float(np.exp(intercept)), r2, window, int(mask.sum()))


def fit_power_law(
    trajectory: Trajectory,
    variable: str,
    regime: str,
    t0: float | None = None,
    window: tuple[float, float] | None = None,
) -> PowerLawFit:
    """Fit variable ~ coefficient * x^exponent on the default or given window.

    x is t for regime "infinity" (the run must have reached its horizon) and
    T0 - t for regime "blowup" (t0 required).  Windows with fewer than 32
    samples or non-positive values are rejected.
    """
    values = series_values(trajectory.states, variable)
    reached = trajectory.termination.kind is TerminationKind.REACHED_T_MAX
    return _power_fit_core(trajectory.times, values, regime, t0, window, reached)


def _limit_fit_core(
    times: np.ndarray,
    values: np.ndarray,
    exponent: float,
    window: tuple[float, float] | None,
) -> LimitPowerFit:
    _, mask, window = _fit_window(times, REGIME_INFINITY, window=window)
    t = times[mask]
    v = values[mask]
    d = np.diff(v)
    slack = 1e-12 * float(np.max(np.abs(v)))
    if not (np.all(d >= -slack) or np.all(d <= slack)):
        raise ValueError("series is not monotone on the fit window")
    X = np.column_stack([np.ones_like(t), t**exponent])
    (limit, coeff), *_ = np.linalg.lstsq(X, v, rcond=None)
    return LimitPowerFit(float(limit), float(coeff), float(exponent), window, int(mask.sum()))


def estimate_limit_plus_power(
    trajectory: Trajectory,
    variable: str,
    exponent: float,
    window: tuple[float, float] | None = None,
) -> LimitPowerFit:
    """Fit variable ~ limit + coefficient * t^exponent on the late-time window.

    The run must have reached its horizon and the series must be monotone on
    the window; otherwise the fit is refused rather than silently degraded.
    """
    if trajectory.termination.kind is not TerminationKind.REACHED_T_MAX:
        raise ValueError("limit fits require a run that reached its horizon")
    values = series_values(trajectory.states, variable)
    return _limit_fit_core(trajectory.times, values, float(exponent), window)


def _linear_root(t: np.ndarray, w: np.ndarray) -> float | None:
    """Root of the least-squares line through (t, w); None if not decreasing.

    The regression is centered on the last abscissa: near a singular time the
    samples span a few ulps of t, and an uncentered design matrix would be
    numerically rank-deficient.
    """
    t_ref = float(t[-1])
    slope, intercept, _ = _linefit(t - t_ref, w)
    if slope >= 0.0:
        return None
    return t_ref - intercept / slope


def estimate_blowup_time_from_series(times, values) -> float:
    """Singular-time estimate from a collapsing series: fit values^2 linearly.

    Two passes: a first fit over the late window (excluding the final 1
    percent of the run), then one refit over samples re-windowed in
    T0_est - t, deep enough that the square is linear to rounding.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape or len(t) < 48:
        raise ValueError("need matched 1-d series with at least 48 samples")
    w = v * v
    t_end = float(t[-1])
    keep = t <= (1.0 - _TAIL_EXCLUSION) * t_end
    if int(keep.sum()) < 16:
        keep = np.ones_like(t, dtype=bool)
        keep[-2:] = False
    tk, wk = t[keep], w[keep]
    n1 = min(128, max(8, len(tk) // 4))
    first = _linear_root(tk[-n1:], wk[-n1:])
    if first is None or first <= t_end:
        first = t_end * (1.0 + 1e-9)

    u = first - t
    mask = (u >= 1e-8 * first) & (u <= 1e-6 * first)
    if int(mask.sum()) < _MIN_WINDOW_SAMPLES:
        pos = np.nonzero(u > 4e-16 * first)[0]
        mask = np.zeros_like(u, dtype=bool)
        mask[pos[-min(128, len(pos)) :]] = True
    second = _linear_root(t[mask], w[mask])
    if second is None or second <= float(t[mask][-1]):
        return first
    return second


def estimate_blowup_time(trajectory: Trajectory) -> float:
    """Singular-time estimate for a trajectory that stopped at a singularity.

    Uses the most collapsed coefficient, or the reciprocal of the most
    exploded one if nothing collapsed.
    """
    if trajectory.termination.kind is not TerminationKind.SINGULAR_TIME:
        raise ValueError("trajectory did not stop at a singular time")
    S = trajectory.states
    ratios = S[-1] / S[0]
    i_min = int(np.argmin(ratios))
    if ratios[i_min] < 0.5:
        series = S[:, i_min]
    else:
        series = 1.0 / S[:, int(np.argmax(ratios))]
    return estimate_blowup_time_from_series(trajectory.times, series)


# ---------------------------------------------------------------------------
# Verification report.


@dataclass(frozen=True)
class CheckResult:
    name: str
    kind: str  # "conserved" | "monotone" | "check"
    passed: bool
    observed: float | None = None
    threshold: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LawResult:
    variable: str
    regime: str
    expected_exponent: float
    exponent_tolerance: float
    fitted_exponent: float | None = None
    expected_coefficient: float | None = None
    coefficient_tolerance: float | None = None
    fitted_coefficient: float | None = None
    fitted_limit: float | None = None
    r2: float | None = None
    passed: bool = False
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    """Everything `verify` measured on one trajectory, with verdicts."""

    geometry: str
    flow: str
    branch: str
    relabeled: bool
    termination: dict
    blowup_time: float | None
    conserved: tuple[CheckResult, ...]
    monotone: tuple[CheckResult, ...]
    laws: tuple[LawResult, ...]
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return (
            all(c.passed for c in self.conserved)
            and all(c.passed for c in self.monotone)
            and all(l.passed for l in self.laws)
            and all(c.passed for c in self.checks)
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        return {
            **d,
            "passed": self.passed,
            **{key: list(d[key]) for key in ("conserved", "monotone", "laws", "checks")},
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"{self.geometry}/{self.flow} branch={self.branch} "
            f"termination={self.termination['kind']} passed={self.passed}"
        ]
        for c in self.conserved:
            lines.append(f"  conserved {c.name}: drift={c.observed:.3e} (tol {c.threshold:.0e}) {'ok' if c.passed else 'FAIL'}")
        for c in self.monotone:
            lines.append(f"  monotone {c.name}: violation={c.observed:.3e} (tol {c.threshold:.0e}) {'ok' if c.passed else 'FAIL'}")
        for l in self.laws:
            got = "unfitted" if l.fitted_exponent is None else f"p={l.fitted_exponent:+.4f}"
            lines.append(
                f"  law {l.variable} ~ x^({l.expected_exponent:+.4f}) [{l.regime}]: "
                f"{got} {'ok' if l.passed else 'FAIL'} {l.detail}".rstrip()
            )
        for c in self.checks:
            lines.append(f"  check {c.name}: {'ok' if c.passed else 'FAIL'} {c.detail}".rstrip())
        return lines


def _law_tolerances(geometry: Geometry, branch: str, law: AsymptoticLaw) -> tuple[float, float | None]:
    exp_tol = _EXPONENT_TOL_DEFAULT
    coeff_rtol: float | None = None
    if geometry is Geometry.HEISENBERG:
        exp_tol = 0.005
        coeff_rtol = 0.01
    elif geometry is Geometry.SOL:
        if law.variable == "A-C":
            exp_tol = 0.05
        if law.coefficient is not None:
            coeff_rtol = 0.02
    elif geometry is Geometry.SU2:
        coeff_rtol = 0.02
    elif geometry is Geometry.SL2R:
        if branch == "symmetric" and law.variable == "B":
            exp_tol = 0.01
        if law.coefficient is not None:
            coeff_rtol = 0.03
    return exp_tol, coeff_rtol


def _max_rel_drift(values: np.ndarray, reference: float) -> float:
    return float(np.max(np.abs(values - reference)) / abs(reference))


def _monotone_violation(values: np.ndarray, direction: str) -> float:
    d = np.diff(values)
    wrong = np.maximum(0.0, d) if direction == DECREASING else np.maximum(0.0, -d)
    scale = float(np.max(np.abs(values)))
    return float(np.max(wrong, initial=0.0) / (scale if scale > 0.0 else 1.0))


def verify(trajectory: Trajectory) -> VerificationReport:
    """Measure every applicable structural property of a trajectory.

    Pure function of the trajectory: conserved-quantity drift, monotone
    catalogs, asymptotic law fits at their stated tolerances, and
    branch-specific checks (closed-form agreement, symmetry locking,
    singular-time values, ratio limits, invariant curvature-sign regions,
    quadrature identities).  The asymptotic and monotone catalogs apply to
    the unnormalized negative flow; other specs are checked for conserved
    quantities and termination only.
    """
    geom, spec, m0 = trajectory.geometry, trajectory.spec, trajectory.m0
    S = trajectory.states
    t = trajectory.times
    term = trajectory.termination
    branch = classify_branch(geom, m0)
    perm = canonical_permutation(geom, m0)
    relabeled = perm != (0, 1, 2)
    Sc = S[:, perm]
    negative_flow = spec == FlowSpec(FlowDirection.NEGATIVE, False)
    singular = term.kind is TerminationKind.SINGULAR_TIME
    reached = term.kind is TerminationKind.REACHED_T_MAX

    conserved = []
    for name, v0 in conserved_quantities(geom, spec, m0):
        drift = _max_rel_drift(series_values(S, name), v0)
        conserved.append(
            CheckResult(name, "conserved", drift <= CONSERVED_DRIFT_TOL, drift, CONSERVED_DRIFT_TOL)
        )

    monotone = []
    if negative_flow:
        for name, direction in monotone_quantities(geom, m0):
            viol = _monotone_violation(series_values(S, name), direction)
            monotone.append(
                CheckResult(f"{name} {direction}", "monotone", viol <= MONOTONE_SLACK, viol, MONOTONE_SLACK)
            )

    blowup_time: float | None = None
    if singular:
        try:
            blowup_time = estimate_blowup_time(trajectory)
        except ValueError:
            blowup_time = None

    laws: list[LawResult] = []
    checks: list[CheckResult] = []
    law_fits: dict[str, PowerLawFit] = {}
    limit_fits: dict[str, LimitPowerFit] = {}

    if negative_flow:
        catalog = expected_asymptotics(geom, spec, m0)
        expect_singular = any(law.regime == REGIME_BLOWUP for law in catalog)
        checks.append(
            CheckResult(
                "termination matches branch",
                "check",
                (singular == expect_singular) and term.kind is not TerminationKind.STEP_BUDGET_EXHAUSTED,
                detail=f"expected {'singular' if expect_singular else 'complete'}, got {term.kind.value}",
            )
        )

        for law in catalog:
            exp_tol, coeff_rtol = _law_tolerances(geom, branch, law)
            expected_exp = float(law.exponent)
            values = series_values(Sc, law.variable)
            try:
                if law.limit_form:
                    if not reached:
                        raise ValueError("run did not reach its horizon")
                    fit = _limit_fit_core(t, values, expected_exp, None)
                    limit_fits[law.variable] = fit
                    laws.append(
                        LawResult(
                            law.variable, law.regime, expected_exp, exp_tol,
                            fitted_exponent=expected_exp,
                            fitted_coefficient=fit.coefficient,
                            fitted_limit=fit.limit,
                            passed=fit.limit > 0.0,
                            detail=f"limit={fit.limit:.6g}",
                        )
                    )
                    continue
                if law.regime == REGIME_BLOWUP:
                    if not singular or blowup_time is None:
                        raise ValueError("no usable singular event")
                    fit = _power_fit_core(t, values, REGIME_BLOWUP, blowup_time, None, reached)
                else:
                    fit = _power_fit_core(t, values, REGIME_INFINITY, None, None, reached)
                law_fits[law.variable] = fit
                exp_err = abs(fit.exponent - expected_exp)
                ok = exp_err <= exp_tol
                coeff_err = None
                if law.coefficient is not None and coeff_rtol is not None:
                    coeff_err = abs(fit.coefficient - law.coefficient) / abs(law.coefficient)
                    ok = ok and coeff_err <= coeff_rtol
                detail = f"coeff={fit.coefficient:.6g}"
                if coeff_err is not None:
                    detail += f" (rel err {coeff_err:.2e})"
                laws.append(
                    LawResult(
                        law.variable, law.regime, expected_exp, exp_tol,
                        fitted_exponent=fit.exponent,
                        expected_coefficient=law.coefficient,
                        coefficient_tolerance=coeff_rtol,
                        fitted_coefficient=fit.coefficient,
                        r2=fit.r2,
                        passed=ok,
                        detail=detail,
                    )
                )
            except ValueError as e:
                laws.append(
                    LawResult(
                        law.variable, law.regime, expected_exp, exp_tol,
                        expected_coefficient=law.coefficient,
                        coefficient_tolerance=coeff_rtol,
                        passed=False,
                        detail=str(e),
                    )
                )

        checks.extend(
            _branch_checks(
                geom, branch, m0, t, S, Sc, blowup_time, singular, reached, law_fits, limit_fits
            )
        )

    return VerificationReport(
        geometry=geom.value,
        flow=spec.name,
        branch=branch,
        relabeled=relabeled,
        termination=term.to_dict(),
        blowup_time=blowup_time,
        conserved=tuple(conserved),
        monotone=tuple(monotone),
        laws=tuple(laws),
        checks=tuple(checks),
    )


def _branch_checks(
    geom: Geometry,
    branch: str,
    m0,
    t: np.ndarray,
    S: np.ndarray,
    Sc: np.ndarray,
    blowup_time: float | None,
    singular: bool,
    reached: bool,
    law_fits: dict,
    limit_fits: dict,
) -> list[CheckResult]:
    out: list[CheckResult] = []

    def gate(name: str, value: float, tol: float, detail: str = "") -> None:
        out.append(CheckResult(name, "check", value <= tol, value, tol, detail))

    def singular_time_check(name: str, t0e: float) -> None:
        if blowup_time is None:
            out.append(CheckResult(name, "check", False, detail="no estimate"))
        else:
            gate(name, abs(blowup_time - t0e) / t0e, BLOWUP_TIME_TOL)

    def ratio_check(name: str) -> None:
        if blowup_time is None:
            out.append(CheckResult(name, "check", False, detail="no singular-time estimate"))
            return
        try:
            _, mask, _ = _fit_window(t, REGIME_BLOWUP, blowup_time)
        except ValueError:
            out.append(CheckResult(name, "check", False, detail="window too thin"))
            return
        dev = float(np.mean(np.abs(series_values(Sc, name[:3])[mask] - 1.0)))
        gate(name, dev, RATIO_LIMIT_TOL, f"mean |{name[:3]}-1| on the final window")

    t0e = singular_time(geom, m0)
    keep = slice(None) if t0e is None else t <= 0.99 * t0e
    exact = exact_solution(geom, m0, t[keep])
    if exact is not None:
        name = "closed form" if t0e is None else "closed form (t <= 0.99 T0)"
        gate(name, float(np.max(np.abs(S[keep] - exact) / exact)), CLOSED_FORM_TOL)

    if geom is Geometry.SOL:
        if branch == "symmetric":
            gate("A=C locked", float(np.max(np.abs(S[:, 0] - S[:, 2]) / S[:, 0])), SYMMETRY_LOCK_TOL)
            singular_time_check("singular time = B0^2/64", t0e)
        elif Sc[0, 0] >= 3.0 * Sc[0, 2]:
            gap = series_values(Sc, "A-3C")
            crossed = bool(np.any(gap < 0.0))
            out.append(
                CheckResult(
                    "A-3C changes sign before the singular time", "check", crossed and singular,
                    detail=f"min(A-3C)={float(gap.min()):.3g}",
                )
            )

    elif geom is Geometry.SU2:
        if branch == "round":
            gaps = np.max(S, axis=1) - np.min(S, axis=1)
            gate("A=B=C locked", float(np.max(gaps / np.max(S, axis=1))), SYMMETRY_LOCK_TOL)
            singular_time_check("singular time = s0^2/4", t0e)
        else:
            ratio_check("A/C -> 1")

    elif geom is Geometry.SL2R:
        if branch == "symmetric":
            gate("B=C locked", float(np.max(np.abs(S[:, 1] - S[:, 2]) / S[:, 1])), SYMMETRY_LOCK_TOL)
            lhs = S[:, 0] ** 9 * S[:, 1] ** 3
            rhs = lhs[0] + np.concatenate(
                [[0.0], np.cumsum(0.5 * np.diff(t) * (24.0 * S[:-1, 0] ** 10 + 24.0 * S[1:, 0] ** 10))]
            )
            qerr = abs(float(lhs[-1] - rhs[-1])) / abs(float(lhs[-1]))
            gate("d/dt(A^9 B^3) = 24 A^10 (trapezoid)", qerr, QUADRATURE_TOL)
            bfit = law_fits.get("B")
            afit = limit_fits.get("A")
            if bfit is not None and afit is not None and afit.limit > 0.0:
                a_inf = afit.limit
                target = (24.0 * a_inf) ** (1.0 / 3.0)
                gate(
                    "B coefficient = (24 Ainf)^(1/3)", abs(bfit.coefficient - target) / target,
                    SL2R_COEFF_RELATION_TOL, f"fit {bfit.coefficient:.6g} vs {target:.6g} (Ainf={a_inf:.6g})",
                )
                rate = 1.0 / (8.0 * 3.0 ** (1.0 / 3.0))
                got = afit.coefficient / a_inf ** (5.0 / 3.0)
                gate(
                    "A tail rate = Ainf^(5/3)/(8*3^(1/3))", abs(got - rate) / rate,
                    SL2R_TAIL_RATE_TOL, f"fit rate {got:.6g} vs {rate:.6g}",
                )
            else:
                out.append(CheckResult("B coefficient = (24 Ainf)^(1/3)", "check", False, detail="missing fits"))
        else:
            i0, retained = sl2r_trapping_entry(Sc)
            out.append(
                CheckResult(
                    "F1<0 and F2<0 entered and retained", "check", retained,
                    detail="never entered" if i0 is None else f"entered at t={float(t[i0]):.6g}",
                )
            )
            ratio_check("A/B -> 1")

    elif geom is Geometry.E2:
        if branch == "flat":
            gate("exactly stationary", float(np.max(np.abs(S - S[0]))), 0.0)
        else:
            prod = series_values(Sc, "(A-B)^2*C")
            if reached:
                _, mask, _ = _fit_window(t, REGIME_INFINITY, min_samples=0)
                v = prod[mask]
                change = abs(float(v[-1] - v[0])) / abs(float(v[-1]))
                gate("(A-B)^2*C settles over the last decade", change, PRODUCT_TAIL_TOL)
                afit = law_fits.get("A-B")
                cfit = law_fits.get("C")
                sfit = limit_fits.get("A+B")
                if afit is not None and cfit is not None and sfit is not None:
                    e1 = sfit.limit / 2.0
                    e2 = afit.coefficient / 2.0
                    target = (8.0 * e2 / e1) * sqrt(6.0)
                    gate(
                        "C coefficient = (8 E2/E1) sqrt(6)", abs(cfit.coefficient - target) / target,
                        E2_COEFF_RELATION_TOL, f"fit {cfit.coefficient:.6g} vs {target:.6g} (E1={e1:.6g}, E2={e2:.6g})",
                    )
                else:
                    out.append(CheckResult("C coefficient = (8 E2/E1) sqrt(6)", "check", False, detail="missing fits"))
            else:
                out.append(CheckResult("(A-B)^2*C settles over the last decade", "check", False, detail="run did not reach its horizon"))

    return out
