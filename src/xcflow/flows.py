"""Cross curvature flow right-hand sides for diagonal homogeneous metrics.

The flows evolve the metric coefficients (A, B, C) of `geometry.MetricDiag`:

    negative flow      dg/dt = -2 h
    positive flow      dg/dt = +2 h
    normalized flows   dg/dt = -+2 h +- (2/3) hbar g

where h is the diagonal cross curvature tensor and hbar its metric trace,
which for a diagonal homogeneous metric is the scalar

    hbar = h11/A + h22/B + h33/C.

The normalized variants are exactly volume preserving: the logarithmic trace
of the right-hand side, dA/A + dB/B + dC/C, vanishes identically.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple, Sequence

from ._record import Record
from .geometry import _CROSS, Geometry, MetricDiag

__all__ = [
    "FlowDirection",
    "FlowSpec",
    "FLOWS",
    "RhsTriple",
    "XCF_MINUS",
    "XCF_PLUS",
    "NXCF",
    "NXCF_PLUS",
    "flow_rhs",
    "rhs_function",
]


class FlowDirection(Enum):
    NEGATIVE = "negative"
    POSITIVE = "positive"


class FlowSpec(Record):
    """Which flow to run: time direction and whether to normalize volume."""

    direction: FlowDirection = FlowDirection.NEGATIVE
    normalized: bool = False

    @property
    def name(self) -> str:
        return next(name for name, spec in FLOWS.items() if spec == self)

    @classmethod
    def from_name(cls, name: str) -> "FlowSpec":
        key = name.strip().lower()
        if key not in FLOWS:
            valid = ", ".join(sorted(FLOWS))
            raise ValueError(f"unknown flow {name!r}; expected one of: {valid}")
        return FLOWS[key]


XCF_MINUS = FlowSpec(FlowDirection.NEGATIVE, False)
XCF_PLUS = FlowSpec(FlowDirection.POSITIVE, False)
NXCF = FlowSpec(FlowDirection.NEGATIVE, True)
NXCF_PLUS = FlowSpec(FlowDirection.POSITIVE, True)

# Every flow by its command-line name, in the order the CLI lists them.
FLOWS: dict[str, FlowSpec] = {"xcf-": XCF_MINUS, "xcf+": XCF_PLUS, "nxcf": NXCF, "nxcf+": NXCF_PLUS}


class RhsTriple(NamedTuple):
    """Coefficient velocities (dA/dt, dB/dt, dC/dt)."""

    dA: float
    dB: float
    dC: float


_NAN3 = (float("nan"),) * 3


def rhs_function(
    geometry: Geometry, spec: FlowSpec
) -> Callable[[Sequence[float]], tuple[float, float, float]]:
    """Compiled right-hand side y -> dy/dt on a coefficient triple.

    This is the hot path used by the integrator.  `y` is any sequence of three
    coefficients (a float tuple or an ndarray row); the velocity comes back as
    a float tuple.  The arithmetic mirrors the symmetric grouping of the
    geometry kernels, so exactly symmetric states produce exactly symmetric
    velocities.  The unnormalized flows return c * h, c = -2 * sign, which has
    the bits of sign * (-2 * h) (powers of two; inf, NaN and -0.0 included).
    A kernel that divides by an underflowed (ABC)^2 raises ZeroDivisionError
    on Python floats where numpy gives inf; the closure returns a NaN triple
    then, so a non-finite velocity reads as non-finite on both.

    `y` may also be three equal-length float array columns.  The closure uses
    only elementwise + - * /, so each entry of the velocity columns has the
    same bits as that row alone (TRIVIAL's unnormalized velocity stays scalar
    zeros).  Columns never raise: numpy gives inf or nan, with a warning
    unless `np.errstate` silences it.
    """
    kernel = _CROSS[geometry]
    sign = 1.0 if spec.direction is FlowDirection.NEGATIVE else -1.0
    if spec.normalized:

        def rhs(y: Sequence[float]) -> tuple[float, float, float]:
            A, B, C = y
            try:
                h1, h2, h3 = kernel(A, B, C)
            except ZeroDivisionError:
                return _NAN3
            q = (2.0 / 3.0) * (h1 / A + h2 / B + h3 / C)
            return (
                sign * (-2.0 * h1 + q * A),
                sign * (-2.0 * h2 + q * B),
                sign * (-2.0 * h3 + q * C),
            )

    else:
        c = -2.0 * sign

        def rhs(y: Sequence[float]) -> tuple[float, float, float]:
            A, B, C = y
            try:
                h1, h2, h3 = kernel(A, B, C)
            except ZeroDivisionError:
                return _NAN3
            return (c * h1, c * h2, c * h3)

    return rhs


def flow_rhs(geometry: Geometry, m: MetricDiag, spec: FlowSpec) -> RhsTriple:
    """Velocity of the chosen flow at the metric m.

    `m` may also hold float array columns in A, B, C (any object with those
    attributes, as for the curvature kernels); the velocity then comes back as
    columns, entry by entry the same bits as one metric at a time.
    """
    return RhsTriple(*rhs_function(geometry, spec)((m.A, m.B, m.C)))
