"""Quantitative checks of flow trajectories against the expected structure.

* `estimate_blowup_time` is the singular time T0 of a run that stopped at a
  singularity: the stop time of the Sundman-time stepper, which resolves T0
  to about 1e-13 of itself;
* `fit_power_law` fits value ~ coeff * x^p by linear regression of logs,
  where x is t for late-time laws and T0 - t for blow-up laws;
* `estimate_limit_plus_power` fits value ~ L + c * t^p for laws with a
  finite limit, by linear regression of the value on t^p;
* `verify` checks a trajectory against what its branch record
  (`analytic.branch_record`) states, in the record's canonical labels,
  fitting through the two fitters above (an unfittable entry fails with the
  refusing function's message), one entry per law and per branch check; each
  entry of its report formats the one `text` it prints.

Every fit window comes from `_fit_window` and is a function of the run
alone, fixed for reproducibility.  Late-time fits use [t_stop/10, t_stop] of
a run that reached its horizon; blow-up fits use u = T0 - t in
[1e-4, 1e-3] * T0, with T0 from `estimate_blowup_time`, of a run that
stopped at a singular time.  Those are a window's two preconditions, and
each refuses with one message.  The blow-up decade is deep enough that
next-order corrections (relative size O(u/T0)) are far below the stated
tolerances, yet shallow enough that difference series such as A - C, which
shrink like u relative to their parents, stay several orders of magnitude
above solver noise.  A window's 64 rows are drawn from the run's dense
output at log-spaced abscissae, and every other row `verify` reads is one of
the run's default 2,048-row grid, drawn the same way: no entry of a report
depends on the emitted samples.
"""

from __future__ import annotations

from functools import cache
from math import sqrt

import numpy as np

from ._record import Record
from .analytic import (
    DECREASING,
    REGIME_BLOWUP,
    REGIME_INFINITY,
    BranchCheck,
    BranchRecord,
    branch_record,
    canonical_permutation,
    classify_branch,
    sl2r_trapping_entry,
)
from .integrator import _ROUNDING_SPACINGS as ROUNDING_SPACINGS
from .integrator import Termination, TerminationKind, Trajectory, _grid_rows, _rows_at

__all__ = [
    "PowerLawFit",
    "LimitPowerFit",
    "CheckResult",
    "LawResult",
    "VerificationReport",
    "series_values",
    "estimate_blowup_time",
    "fit_power_law",
    "estimate_limit_plus_power",
    "verify",
    "CONSERVED_DRIFT_TOL",
    "MONOTONE_SLACK",
    "ROUNDING_SPACINGS",
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

_WINDOW_ROWS = 64  # rows drawn from the dense output per fit window
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


class _Difference(Record):
    """The series S[:, first] - factor * S[:, second]: its operands, which `_rounding_floor` reads."""

    first: int
    factor: float
    second: int

    def __call__(self, S: np.ndarray) -> np.ndarray:
        return S[:, self.first] - self.factor * S[:, self.second]


# The series the branch records and the first integrals name, and no other.
_SERIES = {
    "A": lambda S: S[:, 0],
    "B": lambda S: S[:, 1],
    "C": lambda S: S[:, 2],
    "A-B": _Difference(0, 1.0, 1),
    "A-C": _Difference(0, 1.0, 2),
    "A/B": lambda S: S[:, 0] / S[:, 1],
    "A/C": lambda S: S[:, 0] / S[:, 2],
    "B/C": lambda S: S[:, 1] / S[:, 2],
    "A+B": lambda S: S[:, 0] + S[:, 1],
    "A-3C": _Difference(0, 3.0, 2),
    "(A-B)^2*C": lambda S: (S[:, 0] - S[:, 1]) ** 2 * S[:, 2],
    "4/A+1/B": lambda S: 4.0 / S[:, 0] + 1.0 / S[:, 1],
    "A^3*B": lambda S: S[:, 0] ** 3 * S[:, 1],
    "A^3*C": lambda S: S[:, 0] ** 3 * S[:, 2],
    "A*B*C": lambda S: S[:, 0] * S[:, 1] * S[:, 2],
}


def series_values(states, name: str) -> np.ndarray:
    """Evaluate a named scalar series on states: a coefficient ("A") or a combination a branch record names ("A-C", "A/B", "A^3*B")."""
    if isinstance(states, Trajectory):
        states = states.states
    try:
        fn = _SERIES[name]
    except KeyError:
        raise ValueError(f"unknown series name {name!r}") from None
    return fn(np.asarray(states))


class PowerLawFit(Record):
    """Result of a log-log regression value ~ coefficient * x^exponent."""

    exponent: float
    coefficient: float
    r2: float
    window: tuple[float, float]


class LimitPowerFit(Record):
    """Result of a linear fit value ~ limit + coefficient * t^exponent."""

    limit: float
    coefficient: float
    exponent: float
    window: tuple[float, float]


def _linefit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope, intercept and r^2.

    Computed from the centered closed form rather than a generic lstsq: a
    few reductions, no SVD and no LAPACK workspace, and the abscissa mean is
    removed before any product, so a window that is narrow next to its offset
    (log t over the last decade of a long run) keeps its slope.  Every fit in
    a report is these bits, of both forms: a power law fits log v against
    log x, and a limit-form law fits v against x = t^p.  So sxx > 0: log x
    spans a window's decade, and t^p a factor of 10^|p| on a late-time window.
    """
    x_mean = float(np.mean(x))
    y_mean = float(np.mean(y))
    dx = x - x_mean
    dy = y - y_mean
    sxx = float(np.dot(dx, dx))
    slope = float(np.dot(dx, dy)) / sxx
    intercept = y_mean - slope * x_mean
    ss_res = float(np.sum((dy - slope * dx) ** 2))
    ss_tot = float(np.dot(dy, dy))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def _fit_window(run: Trajectory, regime: str) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """Abscissae (64,), the rows (64, 3) drawn there in the run's labels, and the bounds of its fit window.

    The abscissa is T0 - t on [1e-4, 1e-3] * T0 for blow-up laws, with T0
    from `estimate_blowup_time` (0 if no step was accepted), and t on
    [t_stop/10, t_stop] for late-time laws of a run that reached its
    horizon; it is log-spaced, with the rows in increasing t.
    """
    if regime == REGIME_BLOWUP:
        t0 = estimate_blowup_time(run)
        if t0 == 0.0:
            raise ValueError("trajectory stopped at t = 0: its fit window is empty")
        lo, hi = _BLOWUP_WINDOW_DEPTH * t0, 10.0 * _BLOWUP_WINDOW_DEPTH * t0
        times = t0 - np.geomspace(hi, lo, _WINDOW_ROWS)
        x = t0 - times
    elif regime == REGIME_INFINITY:
        if run.termination.kind is not TerminationKind.REACHED_T_MAX:
            raise ValueError("trajectory did not reach its horizon")
        lo, hi = run.termination.t_stop / 10.0, run.termination.t_stop
        times = x = np.geomspace(lo, hi, _WINDOW_ROWS)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return x, _rows_at(run, times), (float(lo), float(hi))


def _power_fit(window: tuple, variable: str) -> PowerLawFit:
    """`fit_power_law` on a window as `_fit_window` returns it."""
    x, rows, bounds = window
    v = series_values(rows, variable)
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise ValueError("fit window contains non-positive or non-finite values")
    slope, intercept, r2 = _linefit(np.log(x), np.log(v))
    return PowerLawFit(slope, float(np.exp(intercept)), r2, bounds)


def fit_power_law(trajectory: Trajectory, variable: str, regime: str) -> PowerLawFit:
    """Fit variable ~ coefficient * x^exponent, x = t or T0 - t by regime; refuse non-positive or non-finite values."""
    return _power_fit(_fit_window(trajectory, regime), variable)


def _limit_fit(window: tuple, variable: str, exponent: float) -> LimitPowerFit:
    """`estimate_limit_plus_power` on a late-time window as `_fit_window` returns it."""
    t, rows, bounds = window
    v = series_values(rows, variable)
    d = np.diff(v)
    slack = 1e-12 * float(np.max(np.abs(v)))
    if not (np.all(d >= -slack) or np.all(d <= slack)):
        raise ValueError("series is not monotone on the fit window")
    coeff, limit, _ = _linefit(t ** float(exponent), v)
    return LimitPowerFit(limit, coeff, float(exponent), bounds)


def estimate_limit_plus_power(trajectory: Trajectory, variable: str, exponent: float) -> LimitPowerFit:
    """Fit variable ~ limit + coefficient * t^exponent on the late-time window; refuse a series not monotone there."""
    return _limit_fit(_fit_window(trajectory, REGIME_INFINITY), variable, exponent)


def estimate_blowup_time(run: Trajectory | Termination) -> float:
    """Singular time of a run that stopped at a singularity: its stop time.

    `run` is the trajectory or its `Termination` (which `terminate` returns
    alone).  The Sundman-time stepper stops when a step advances t by at
    most 1e-13 of t, so t_stop resolves T0 to about that fraction; no fit of
    the samples comes closer at the sample counts in use.
    """
    termination = run if isinstance(run, Termination) else run.termination
    if termination.kind is not TerminationKind.SINGULAR_TIME:
        raise ValueError("trajectory did not stop at a singular time")
    return termination.t_stop


# ---------------------------------------------------------------------------
# Verification report.


class CheckResult(Record):
    name: str
    kind: str  # "conserved" | "monotone" | "check"
    passed: bool
    observed: float | None = None
    threshold: float | None = None
    detail: str = ""

    @property
    def text(self) -> str:
        """The observed value against its tolerance, else the detail."""
        if self.observed is None:
            return self.detail
        return f"{self.observed:.3e} (tol {self.threshold:.0e})"


class LawResult(Record):
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
    kind = "law"  # a class attribute, not a field

    @property
    def name(self) -> str:
        return self.variable

    @property
    def text(self) -> str:
        """The fitted exponent and coefficient against the expected ones, else the detail."""
        if self.fitted_exponent is None:
            return self.detail
        s = f"exponent {self.fitted_exponent:+.5f} vs {self.expected_exponent:+.5f} (tol {self.exponent_tolerance})"
        if self.expected_coefficient is not None and self.fitted_coefficient is not None:
            s += f", coeff {self.fitted_coefficient:.5g} vs {self.expected_coefficient:.5g}"
        return s


class VerificationReport(Record):
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
    def entries(self) -> tuple[CheckResult | LawResult, ...]:
        return (*self.conserved, *self.monotone, *self.laws, *self.checks)

    @property
    def passed(self) -> bool | None:
        """Whether every entry passed; None when the report has no entry, so nothing was checked."""
        return all(e.passed for e in self.entries) if self.entries else None

    def to_dict(self) -> dict:
        """The fields in order, each entry as its own dict, then `passed`."""
        # the termination dict holds scalars and lists of coefficient names
        termination = {k: list(v) if isinstance(v, list) else v for k, v in self.termination.items()}
        groups = {name: [e.to_dict() for e in getattr(self, name)] for name in ("conserved", "monotone", "laws", "checks")}
        return {**super().to_dict(), "termination": termination, **groups, "passed": self.passed}

    def summary_lines(self) -> list[str]:
        """A header line, then `  <kind> <name>: <text> ok|FAIL` per entry in report order."""
        header = (
            f"{self.geometry}/{self.flow} branch={self.branch} "
            f"termination={self.termination['kind']} passed={'unchecked' if self.passed is None else self.passed}"
        )
        return [header, *(f"  {e.kind} {e.name}: {e.text} {'ok' if e.passed else 'FAIL'}" for e in self.entries)]


def _gate(name: str, kind: str, value: float, tol: float, detail: str = "") -> CheckResult:
    """A result that passes when the measured value is at most the tolerance."""
    return CheckResult(name, kind, value <= tol, value, tol, detail)


def _max_rel_drift(values: np.ndarray, reference: float) -> float:
    return float(np.max(np.abs(values - reference)) / abs(reference))


def _rounding_floor(states: np.ndarray, name: str) -> np.ndarray | None:
    """Per-step rounding floor of a difference series such as "A-C" or "A-3C", else None.

    It is `ROUNDING_SPACINGS` spacings of the larger operand at either end
    of the step: the most by which the rows' rounding alone can make the
    difference step the wrong way while the interpolant's is monotone,
    derived beside the row formula it bounds (`integrator._StepTable.eval`).
    """
    series = _SERIES[name]
    if not isinstance(series, _Difference):
        return None
    mag = np.maximum(np.abs(states[:, series.first]), series.factor * np.abs(states[:, series.second]))
    return ROUNDING_SPACINGS * np.spacing(np.maximum(mag[:-1], mag[1:]))


def _monotone_violation(values: np.ndarray, direction: str, floor: np.ndarray | None = None) -> float:
    """Largest wrong-way step relative to max|values|, ignoring steps of at most `floor` (per step)."""
    d = np.diff(values)
    wrong = np.maximum(0.0, d) if direction == DECREASING else np.maximum(0.0, -d)
    if floor is not None:
        wrong = np.where(wrong <= floor, 0.0, wrong)
    scale = float(np.max(np.abs(values)))
    return float(np.max(wrong, initial=0.0) / (scale if scale > 0.0 else 1.0))


def verify(trajectory: Trajectory) -> VerificationReport:
    """Measure every structural property a trajectory's branch record promises.

    Pure function of the run, in the order of `branch_record` for its flow
    and initial datum: the first integrals' drift, the monotone list, the
    asymptotic laws fitted at their own tolerances, and one entry per branch
    check.  The record and every row an entry reads are in the canonical
    labels of `canonical_permutation`, so reordered twins get the same entry
    names.  Every row is a fit window's or one of the run's default grid
    (`_grid_rows`), so the report is the same at any `samples`.  A flow
    without a catalog is checked for its first integrals only.
    """
    geom, spec, m0 = trajectory.geometry, trajectory.spec, trajectory.m0
    term = trajectory.termination
    record = branch_record(geom, spec, m0)
    perm = canonical_permutation(geom, m0)
    t, rows = _grid_rows(trajectory)
    S = rows[:, perm]
    law_of = {law.variable: law for law in record.laws}  # a variable is unique within a record

    @cache  # each window drawn once, in the record's canonical labels; a refusal raises before any row
    def window(regime: str) -> tuple:
        x, rows, bounds = _fit_window(trajectory, regime)
        return x, rows[:, perm], bounds

    @cache  # the fit of the law on `variable`; a refusal raises
    def fit(variable: str) -> PowerLawFit | LimitPowerFit:
        law = law_of[variable]
        if law.limit_form:
            return _limit_fit(window(REGIME_INFINITY), variable, float(law.exponent))
        return _power_fit(window(law.regime), variable)

    conserved = [
        _gate(name, "conserved", _max_rel_drift(series_values(S, name), v0), CONSERVED_DRIFT_TOL)
        for name, v0 in record.first_integrals
    ]
    monotone = [
        _gate(
            f"{name} {direction}", "monotone",
            _monotone_violation(series_values(S, name), direction, _rounding_floor(S, name)), MONOTONE_SLACK,
        )
        for name, direction in record.monotone
    ]

    laws: list[LawResult] = []
    for law in record.laws:
        expected_exp = float(law.exponent)
        unfitted = LawResult(
            law.variable, law.regime, expected_exp, law.exponent_tol,
            expected_coefficient=law.coefficient, coefficient_tolerance=law.coefficient_tol,
        )
        try:
            f = fit(law.variable)
        except ValueError as e:
            laws.append(unfitted._replace(detail=str(e)))
            continue
        if law.limit_form:  # the exponent is imposed, not fitted
            laws.append(unfitted._replace(
                fitted_coefficient=f.coefficient, fitted_limit=f.limit, passed=f.limit > 0.0, detail=f"limit={f.limit:.6g}",
            ))
            continue
        ok = abs(f.exponent - expected_exp) <= law.exponent_tol
        detail = f"coeff={f.coefficient:.6g}"
        if law.coefficient_tol is not None:
            coeff_err = abs(f.coefficient - law.coefficient) / abs(law.coefficient)
            ok = ok and coeff_err <= law.coefficient_tol
            detail += f" (rel err {coeff_err:.2e})"
        laws.append(unfitted._replace(
            fitted_exponent=f.exponent, fitted_coefficient=f.coefficient, r2=f.r2, passed=ok, detail=detail,
        ))

    return VerificationReport(
        geometry=geom.value,
        flow=spec.name,
        branch=classify_branch(geom, m0),
        relabeled=perm != (0, 1, 2),
        termination=term.to_dict(),
        blowup_time=estimate_blowup_time(trajectory) if term.kind is TerminationKind.SINGULAR_TIME else None,
        conserved=tuple(conserved),
        monotone=tuple(monotone),
        laws=tuple(laws),
        checks=tuple(_branch_checks(record, t, S, term, window, fit)),
    )


def _branch_checks(
    record: BranchRecord, t: np.ndarray, S: np.ndarray, termination: Termination, window, fit,
) -> list[CheckResult]:
    """One result per branch check of the record, in its order; a check of unknown kind raises.

    `t` and `S` are the run's default grid rows, `window(regime)` a fit
    window and `fit(variable)` the fit of a record's law, all in canonical
    labels.  "termination", "sign_change" and "trapping" pass or fail with a
    detail; every other kind measures a value against its tolerance, and
    fails with the message of the window, the fit or the singular time that
    refused it.
    """
    stop = termination.kind
    singular = stop is TerminationKind.SINGULAR_TIME

    def a_inf() -> LimitPowerFit:  # the limit fit of A; an A-infinity that is not positive refuses with A's detail
        a = fit("A")
        if a.limit <= 0.0:
            raise ValueError(f"limit={a.limit:.6g}")
        return a

    def measure(check: BranchCheck) -> tuple[float, float, str] | None:
        """The value, tolerance and detail of a gated check; None for an unknown kind."""
        kind = check.kind
        if kind == "closed_form":
            keep = slice(None) if record.t0 is None else t <= 0.99 * record.t0
            exact = record.closed_form(t[keep])
            return float(np.max(np.abs(S[keep] - exact) / exact)), CLOSED_FORM_TOL, ""
        if kind == "lock":
            locked = S[:, check.columns]
            top = np.max(locked, axis=1)
            return float(np.max((top - np.min(locked, axis=1)) / top)), SYMMETRY_LOCK_TOL, ""
        if kind == "singular_time":
            return abs(estimate_blowup_time(termination) - record.t0) / record.t0, BLOWUP_TIME_TOL, ""
        if kind == "ratio_limit":
            dev = float(np.mean(np.abs(series_values(window(REGIME_BLOWUP)[1], check.series) - 1.0)))
            return dev, RATIO_LIMIT_TOL, f"mean |{check.series}-1| on the final window"
        if kind == "stationary":
            return float(np.max(np.abs(S - S[0]))), 0.0, ""
        if kind == "quadrature":
            lhs = S[:, 0] ** 9 * S[:, 1] ** 3
            area = np.cumsum(np.concatenate([[0.0], 0.5 * np.diff(t) * (24.0 * S[:-1, 0] ** 10 + 24.0 * S[1:, 0] ** 10)]))
            return abs(float(lhs[-1] - (lhs[0] + area[-1]))) / abs(float(lhs[-1])), QUADRATURE_TOL, ""
        if kind == "pancake_coefficient":
            a_limit, b = a_inf().limit, fit("B").coefficient
            target = (24.0 * a_limit) ** (1.0 / 3.0)
            return abs(b - target) / target, SL2R_COEFF_RELATION_TOL, f"fit {b:.6g} vs {target:.6g} (Ainf={a_limit:.6g})"
        if kind == "pancake_tail_rate":
            a = a_inf()
            rate = 1.0 / (8.0 * 3.0 ** (1.0 / 3.0))
            got = a.coefficient / a.limit ** (5.0 / 3.0)
            return abs(got - rate) / rate, SL2R_TAIL_RATE_TOL, f"fit rate {got:.6g} vs {rate:.6g}"
        if kind == "settle":
            v = series_values(window(REGIME_INFINITY)[1], check.series)
            return abs(float(v[-1] - v[0])) / abs(float(v[-1])), PRODUCT_TAIL_TOL, ""
        if kind == "cigar_coefficient":
            e1, e2, c = fit("A+B").limit / 2.0, fit("A-B").coefficient / 2.0, fit("C").coefficient
            target = (8.0 * e2 / e1) * sqrt(6.0)
            return abs(c - target) / target, E2_COEFF_RELATION_TOL, f"fit {c:.6g} vs {target:.6g} (E1={e1:.6g}, E2={e2:.6g})"
        return None

    out: list[CheckResult] = []
    for check in record.checks:
        kind, name = check.kind, check.name
        if kind == "termination":
            passed = (singular == record.singular) and stop is not TerminationKind.STEP_BUDGET_EXHAUSTED
            expected = "singular" if record.singular else "complete"
            out.append(CheckResult(name, "check", passed, detail=f"expected {expected}, got {stop.value}"))
        elif kind == "sign_change":
            values = series_values(S, check.series)
            crossed = bool(np.any(values < 0.0))
            out.append(CheckResult(name, "check", crossed and singular, detail=f"min({check.series})={float(values.min()):.3g}"))
        elif kind == "trapping":
            i0, retained = sl2r_trapping_entry(S)
            detail = "never entered" if i0 is None else f"entered at t={float(t[i0]):.6g}"
            out.append(CheckResult(name, "check", retained, detail=detail))
        else:
            try:
                measured = measure(check)
            except ValueError as e:  # a refused window, fit or singular time
                out.append(CheckResult(name, "check", False, detail=str(e)))
                continue
            if measured is None:
                raise ValueError(f"unknown branch check kind {kind!r}")
            out.append(_gate(name, "check", *measured))
    return out
