"""Curvature of left-invariant diagonal metrics on unimodular 3-dimensional Lie groups.

All computations happen in a Milnor frame: an oriented orthogonal frame
(f1, f2, f3) of the Lie algebra with brackets

    [f_i, f_j] = 2 eps_k f_k    (i, j, k circular),

which simultaneously diagonalizes the metric, the Ricci tensor and the cross
curvature tensor.  A left-invariant metric is then a positive triple (A, B, C):

    g = A f1* (x) f1*  +  B f2* (x) f2*  +  C f3* (x) f3*.

The bracket sign pattern eps = (eps1, eps2, eps3) identifies the geometry:

    SU2         (+1, +1, +1)
    SL2R        (-1, +1, +1)    the minus sign is carried by f1
    E2          (+1, +1,  0)
    SOL         (+1,  0, -1)
    HEISENBERG  (+1,  0,  0)
    TRIVIAL     ( 0,  0,  0)    flat and product cases, cross tensor vanishes

The cross curvature tensor is diagonal in this frame.  Writing k23, k31, k12
for the principal sectional curvatures K(f2^f3), K(f3^f1), K(f1^f2), the
diagonal entries rescaled to the Milnor frame are products of the two
complementary sectional curvatures:

    h11 = A k31 k12,    h22 = B k12 k23,    h33 = C k23 k31.

Each geometry also has an explicit factored polynomial form of the cross
tensor.  Both routes are exposed (`cross_curvature_diag` uses the factored
kernels, `cross_from_sectional` the product identity) so that each can serve
as an independent check on the other.

A floating point detail that matters downstream: the factored kernels are
arranged so that metrics with exactly equal components take bit-identical
code paths for every symmetric pair (Sol under A=C, SL(2,R) under B=C, SU(2)
under any coincidence, E(2) under A=B).  The flow integrator relies on this
to keep symmetric reductions exactly symmetric rather than approximately so.

The kernels use only elementwise + - * /, so `sectional_curvatures`,
`cross_curvature_diag` and `cross_from_sectional` also accept any object
whose A, B, C are equal-length float arrays (columns of states), and give,
entry by entry, the same bits as one metric at a time.
TRIVIAL returns scalar zeros in that case.
"""

from __future__ import annotations

from enum import Enum
from math import isfinite
from typing import NamedTuple

import numpy as np

from ._record import Record

__all__ = [
    "Geometry",
    "MetricDiag",
    "CurvTriple",
    "CrossDiag",
    "sectional_curvatures",
    "cross_curvature_diag",
    "cross_from_sectional",
]


class Geometry(Enum):
    """The six classes of simply connected homogeneous 3-geometries handled here.

    TRIVIAL aggregates the cases with vanishing cross curvature tensor (flat
    R^3 and the metric products); their flow is stationary, and all curvature
    accessors report zeros.
    """

    HEISENBERG = "heisenberg"
    SOL = "sol"
    SU2 = "su2"
    SL2R = "sl2r"
    E2 = "e2"
    TRIVIAL = "trivial"

    @classmethod
    def from_name(cls, name: str) -> "Geometry":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(g.value for g in cls)
            raise ValueError(f"unknown geometry {name!r}; expected one of: {valid}") from None


class MetricDiag(Record):
    """Diagonal left-invariant metric, the positive coefficients (A, B, C)."""

    A: float
    B: float
    C: float

    def __post_init__(self) -> None:
        for name in ("A", "B", "C"):
            v = float(getattr(self, name))
            if not isfinite(v) or v <= 0.0:
                raise ValueError(f"metric coefficient {name}={v!r} must be finite and positive")
            object.__setattr__(self, name, v)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.A, self.B, self.C)

    def as_array(self) -> np.ndarray:
        return np.array([self.A, self.B, self.C], dtype=float)

    @classmethod
    def from_array(cls, y) -> "MetricDiag":
        a, b, c = y
        return cls(float(a), float(b), float(c))

    def scaled(self, factor: float) -> "MetricDiag":
        """The metric lam*g; curvatures scale as 1/lam."""
        return MetricDiag(factor * self.A, factor * self.B, factor * self.C)


class CurvTriple(NamedTuple):
    """Principal sectional curvatures (K(f2^f3), K(f3^f1), K(f1^f2))."""

    k23: float
    k31: float
    k12: float


class CrossDiag(NamedTuple):
    """Diagonal cross curvature entries (h11, h22, h33) in the Milnor frame."""

    h11: float
    h22: float
    h33: float


# ---------------------------------------------------------------------------
# Quadratic kernels shared by the sectional and cross formulas.
#
# SL(2,R):  F1 = -3A^2+B^2+C^2-2BC-2AC-2AB
#           F2 = -3B^2+A^2+C^2+2BC+2AC-2AB
#           F3 = -3C^2+A^2+B^2+2BC-2AC+2AB
# SU(2):    X = 3A^2-(B-C)^2-2AB-2AC   and circular permutations
# E(2):     X = (A-B)(3A+B),  Y = (B-A)(3B+A),  Z = -(A-B)^2
#
# The groupings below are chosen so that, e.g., B == C makes F2 and F3 run
# through identical partial sums (C*C == B*B bitwise, and the odd terms carry
# an exact factor (C-B) = 0.0).


def _sl2r_f(A: float, B: float, C: float) -> tuple[float, float, float]:
    aa, bb, cc = A * A, B * B, C * C
    a2, bc2 = 2.0 * A, 2.0 * (B * C)
    f1 = bb + cc - 3.0 * aa - bc2 - a2 * (B + C)
    f2 = aa + cc - 3.0 * bb + bc2 + a2 * (C - B)
    f3 = aa + bb - 3.0 * cc + bc2 + a2 * (B - C)
    return f1, f2, f3


def _su2_xyz(A: float, B: float, C: float) -> tuple[float, float, float]:
    # squares are spelled d*d throughout this module: plain multiplication is
    # correctly rounded (libm pow is not, and drifts across exponent ranges)
    dx, dy, dz = B - C, C - A, A - B
    x = 3.0 * (A * A) - dx * dx - 2.0 * A * (B + C)
    y = 3.0 * (B * B) - dy * dy - 2.0 * B * (C + A)
    z = 3.0 * (C * C) - dz * dz - 2.0 * C * (A + B)
    return x, y, z


def _e2_xyz(A: float, B: float, C: float) -> tuple[float, float, float]:
    d = A - B
    x = d * (3.0 * A + B)
    y = -d * (3.0 * B + A)
    z = -(d * d)
    return x, y, z


# ---------------------------------------------------------------------------
# Sectional curvatures.


def _sect_heisenberg(A, B, C):
    bc = B * C
    k = A / bc
    return (-3.0 * k, k, k)


def _sect_sol(A, B, C):
    den = A * B * C
    d = A - C
    p = A + C
    dd = d * d
    return ((dd - 4.0 * (A * A)) / den, (p * p) / den, (dd - 4.0 * (C * C)) / den)


def _su2_k(a, b, c):
    # grouped so that permuting (a, b, c) permutes the outputs bitwise:
    # every subexpression is symmetric in (b, c) under commutativity alone
    bc = b * c
    d = b - c
    return (d * d) / (a * bc) - 3.0 * a / bc + (2.0 / b + 2.0 / c)


def _sect_su2(A, B, C):
    return (_su2_k(A, B, C), _su2_k(B, C, A), _su2_k(C, A, B))


def _sect_sl2r(A, B, C):
    den = A * B * C
    f1, f2, f3 = _sl2r_f(A, B, C)
    return (f1 / den, f2 / den, f3 / den)


def _sect_e2(A, B, C):
    den = A * B * C
    d = A - B
    return ((B - A) * (B + 3.0 * A) / den, d * (A + 3.0 * B) / den, (d * d) / den)


def _sect_trivial(A, B, C):
    return (0.0, 0.0, 0.0)


_SECTIONAL = {
    Geometry.HEISENBERG: _sect_heisenberg,
    Geometry.SOL: _sect_sol,
    Geometry.SU2: _sect_su2,
    Geometry.SL2R: _sect_sl2r,
    Geometry.E2: _sect_e2,
    Geometry.TRIVIAL: _sect_trivial,
}


# ---------------------------------------------------------------------------
# Cross curvature, factored kernels.


def _cross_heisenberg(A, B, C):
    bc = B * C
    a2 = A * A
    m = -3.0 * a2
    return (A * a2 / (bc * bc), m / (B * (C * C)), m / ((B * B) * C))


def _cross_sol(A, B, C):
    v = A * B * C
    den = v * v
    p = A + C
    pp, u, w = p * p, 3.0 * C - A, 3.0 * A - C
    p3 = p * pp
    h11 = -(A * p3) * u / den
    h22 = B * (w * u) * pp / den
    h33 = -(C * p3) * w / den
    return (h11, h22, h33)


def _cross_su2(A, B, C):
    v = A * B * C
    den = v * v
    x, y, z = _su2_xyz(A, B, C)
    return (A * (y * z) / den, B * (z * x) / den, C * (x * y) / den)


def _cross_sl2r(A, B, C):
    v = A * B * C
    den = v * v
    f1, f2, f3 = _sl2r_f(A, B, C)
    return (A * (f2 * f3) / den, B * (f3 * f1) / den, C * (f1 * f2) / den)


def _cross_e2(A, B, C):
    v = A * B * C
    den = v * v
    x, y, z = _e2_xyz(A, B, C)
    return (A * (y * z) / den, B * (z * x) / den, C * (x * y) / den)


def _cross_trivial(A, B, C):
    return (0.0, 0.0, 0.0)


_CROSS = {
    Geometry.HEISENBERG: _cross_heisenberg,
    Geometry.SOL: _cross_sol,
    Geometry.SU2: _cross_su2,
    Geometry.SL2R: _cross_sl2r,
    Geometry.E2: _cross_e2,
    Geometry.TRIVIAL: _cross_trivial,
}


def sectional_curvatures(geometry: Geometry, m: MetricDiag) -> CurvTriple:
    """Principal sectional curvatures of (geometry, m) in the Milnor frame.

    Evaluates the factored closed forms for each geometry, for example
    Heisenberg gives (-3A, A, A)/(BC) and SU(2) gives
    (B-C)^2/(ABC) - 3A/(BC) + 2/B + 2/C and its circular permutations.
    `m` may also hold float array columns (see the module docstring).
    """
    return CurvTriple(*_SECTIONAL[geometry](m.A, m.B, m.C))


def cross_curvature_diag(geometry: Geometry, m: MetricDiag) -> CrossDiag:
    """Diagonal cross curvature entries via the factored polynomial kernels.

    `m` may also hold float array columns (see the module docstring).
    """
    return CrossDiag(*_CROSS[geometry](m.A, m.B, m.C))


def cross_from_sectional(m: MetricDiag, k: CurvTriple) -> CrossDiag:
    """Cross tensor from sectional curvatures: h_ii = g_ii * k_j * k_l.

    Independent of the factored kernels; agreement of the two routes is a
    correctness check on both.
    """
    return CrossDiag(m.A * k.k31 * k.k12, m.B * k.k12 * k.k23, m.C * k.k23 * k.k31)
