"""Curvature layer: frozen point values, oracle identity, scaling, symmetry."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xcflow import (
    CrossDiag,
    CurvTriple,
    Geometry,
    MetricDiag,
    cross_curvature_diag,
    cross_from_sectional,
    sectional_curvatures,
)
from xcflow.geometry import _cross_heisenberg, _cross_sol, _sl2r_f, _su2_xyz

ALL_GEOMETRIES = tuple(Geometry)

# log-uniform coefficients spanning six decades, as in the equivalence sweeps
coefficient = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)
metric_triples = st.tuples(coefficient, coefficient, coefficient)
# narrower range for comparisons whose conditioning degrades like the squared
# aspect ratio at exact-tie corners (hypothesis shrinks toward equal values,
# which random draws never produce); two decades keeps those comparisons
# meaningful while still catching any structural error
narrow = st.floats(min_value=-1.0, max_value=1.0).map(lambda e: 10.0**e)
narrow_triples = st.tuples(narrow, narrow, narrow)
geometries = st.sampled_from(ALL_GEOMETRIES)


# ---------------------------------------------------------------------------
# Enumerations and the metric type


def test_geometry_from_name():
    assert Geometry.from_name("sl2r") is Geometry.SL2R
    assert Geometry.from_name("  Heisenberg ") is Geometry.HEISENBERG
    with pytest.raises(ValueError, match="unknown geometry"):
        Geometry.from_name("nil^4")


@pytest.mark.parametrize("bad", [(0.0, 1, 1), (1, -2, 1), (1, 1, math.inf), (1, math.nan, 1)])
def test_metric_rejects_nonpositive_components(bad):
    with pytest.raises(ValueError):
        MetricDiag(*bad)


def test_metric_round_trip_and_scaling():
    m = MetricDiag(2, 4, 1)
    assert m.as_tuple() == (2.0, 4.0, 1.0)
    assert MetricDiag.from_array(m.as_array()) == m
    assert m.scaled(0.5) == MetricDiag(1, 2, 0.5)


# ---------------------------------------------------------------------------
# Frozen point values


def test_sectional_point_values():
    assert sectional_curvatures(Geometry.HEISENBERG, MetricDiag(1, 1, 1)) == CurvTriple(-3, 1, 1)
    assert sectional_curvatures(Geometry.E2, MetricDiag(1, 1, 5)) == CurvTriple(0, 0, 0)
    assert sectional_curvatures(Geometry.SU2, MetricDiag(1, 1, 1)) == CurvTriple(1, 1, 1)


def test_cross_point_values():
    assert cross_curvature_diag(Geometry.HEISENBERG, MetricDiag(1, 1, 1)) == CrossDiag(1, -3, -3)
    assert cross_curvature_diag(Geometry.TRIVIAL, MetricDiag(0.3, 11, 2)) == CrossDiag(0, 0, 0)
    h = cross_curvature_diag(Geometry.E2, MetricDiag(2, 1, 1))
    assert h == pytest.approx((2.5, -1.75, -8.75), rel=1e-15)


def test_cross_from_sectional_point_values():
    assert cross_from_sectional(MetricDiag(1, 1, 1), CurvTriple(-3, 1, 1)) == CrossDiag(1, -3, -3)
    assert cross_from_sectional(MetricDiag(5, 0.2, 9), CurvTriple(0, 0, 0)) == CrossDiag(0, 0, 0)
    # the E(2) sectional values at (2,1,1); cross-checks the previous test
    k = sectional_curvatures(Geometry.E2, MetricDiag(2, 1, 1))
    assert k == pytest.approx((-3.5, 2.5, 0.5), rel=1e-15)
    h = cross_from_sectional(MetricDiag(2, 1, 1), k)
    assert h == pytest.approx((2.5, -1.75, -8.75), rel=1e-15)


# ---------------------------------------------------------------------------
# Oracle identity: h11 = A k31 k12, h22 = B k12 k23, h33 = C k23 k31
#
# Random log-uniform draws over six decades satisfy 1e-12 (enforced in the
# acceptance suite); hypothesis deliberately hits exact-tie corners such as
# (1, 1, 0.1) where the sectional path cancels like eps*(A/C)^2, so this
# adversarial variant runs on the narrow range with a matching bound.


@settings(max_examples=300, deadline=None)
@given(geometries, narrow_triples)
def test_cross_matches_sectional_oracle(geom, triple):
    m = MetricDiag(*triple)
    direct = np.array(cross_curvature_diag(geom, m))
    oracle = np.array(cross_from_sectional(m, sectional_curvatures(geom, m)))
    scale = max(np.max(np.abs(direct)), np.max(np.abs(oracle)), 1e-300)
    assert np.max(np.abs(direct - oracle)) / scale <= 1e-10


# ---------------------------------------------------------------------------
# Scaling law: curvatures of lam*m are curvatures of m divided by lam
#
# For lam an exact power of two no rounding enters the rescaled inputs, and
# the kernels are ratios of homogeneous polynomials built from correctly
# rounded operations (squares are spelled d*d: libm pow is not correctly
# rounded and breaks exponent-shift invariance), so the law holds bitwise --
# even at exact ties like (1, 1, 1).


@settings(max_examples=300, deadline=None)
@given(geometries, narrow_triples, st.integers(min_value=-20, max_value=20))
def test_curvature_scaling_is_bitwise_for_binary_scales(geom, triple, j):
    lam = 2.0**j
    m = MetricDiag(*triple)
    for fn in (sectional_curvatures, cross_curvature_diag):
        assert np.array_equal(np.array(fn(geom, m.scaled(lam))), np.array(fn(geom, m)) / lam)


# For generic lam the rescaled inputs round (fl(lam*A) != lam*A), and near a
# tie such as (1, 1+1e-12, 1) the curvature response to that input rounding
# dwarfs the cancellation-shrunk output, so no output-relative bound can
# hold there.  Ties are kept out of this variant; the tie-adjacent regime is
# covered exactly by the binary-scale test above, and the six-decade random
# statistical bound (1e-12) lives in the acceptance suite.


@settings(max_examples=200, deadline=None)
@given(geometries, narrow_triples, st.floats(min_value=-3.0, max_value=3.0))
def test_curvature_scaling_law_generic_scale(geom, triple, lam_exp):
    gaps = [abs(x - y) / max(x, y) for x, y in zip(triple, triple[1:] + triple[:1])]
    assume(min(gaps) > 1e-3)
    lam = 10.0**lam_exp
    m = MetricDiag(*triple)
    for fn in (sectional_curvatures, cross_curvature_diag):
        base = np.array(fn(geom, m))
        scaled = np.array(fn(geom, m.scaled(lam)))
        scale = max(float(np.max(np.abs(base))), 1e-300)
        assert np.max(np.abs(scaled - base / lam)) <= 1e-10 * scale / lam


# ---------------------------------------------------------------------------
# SU(2) permutation equivariance (all bracket signs equal)


@settings(max_examples=100, deadline=None)
@given(metric_triples, st.permutations([0, 1, 2]))
def test_su2_permutation_equivariance(triple, perm):
    m = MetricDiag(*triple)
    mp = MetricDiag(*(triple[i] for i in perm))
    # sectional kernels are arranged to permute bitwise
    base_k = np.array(sectional_curvatures(Geometry.SU2, m))
    assert np.array_equal(
        np.array(sectional_curvatures(Geometry.SU2, mp)), base_k[list(perm)]
    )
    base_h = np.array(cross_curvature_diag(Geometry.SU2, m))
    permuted_h = np.array(cross_curvature_diag(Geometry.SU2, mp))
    scale = max(float(np.max(np.abs(base_h))), 1e-300)
    assert np.max(np.abs(permuted_h - base_h[list(perm)])) / scale <= 1e-14


def test_su2_permutation_equivariance_exhaustive_point():
    triple = (3.0, 2.0, 1.0)
    base = np.array(sectional_curvatures(Geometry.SU2, MetricDiag(*triple)))
    for perm in itertools.permutations(range(3)):
        mp = MetricDiag(*(triple[i] for i in perm))
        got = np.array(sectional_curvatures(Geometry.SU2, mp))
        assert got == pytest.approx(base[list(perm)], rel=1e-14)


# ---------------------------------------------------------------------------
# Sign facts behind the blow-up arguments


@settings(max_examples=200, deadline=None)
@given(coefficient, coefficient, coefficient)
def test_sl2r_f3_dominates_a_squared_when_b_exceeds_c(a, hi, lo):
    b, c = max(hi, lo), min(hi, lo)
    if b == c:
        return
    _, _, f3 = _sl2r_f(a, b, c)
    # true margin is (b-c)(b+3c+2a) > 0, but it can sit below an ulp of the
    # partial sums, so the float comparison carries rounding slack
    terms = a * a + b * b + 3.0 * (c * c) + 2.0 * (b * c) + 2.0 * a * (b + c)
    assert f3 > 0.0
    assert f3 >= a * a - 16.0 * np.finfo(float).eps * terms
    margin = (b - c) * (b + 3.0 * c + 2.0 * a)
    if margin > 64.0 * np.finfo(float).eps * terms:
        assert f3 > a * a


@settings(max_examples=200, deadline=None)
@given(coefficient, coefficient, coefficient)
def test_su2_y_and_z_below_minus_c_squared_when_ordered(x, y, z):
    a, b, c = sorted((x, y, z), reverse=True)
    _, yy, zz = _su2_xyz(a, b, c)
    assert yy <= -(c * c) + 1e-12 * max(a * a, 1.0)
    assert zz <= -(c * c) + 1e-12 * max(a * a, 1.0)


# ---------------------------------------------------------------------------
# Kernels with shared subexpressions computed once, against their earlier
# spelling: the same expression trees, so the same bits, on floats and columns


def _sl2r_f_reference(A, B, C):
    aa = A * A
    f1 = B * B + C * C - 3.0 * aa - 2.0 * (B * C) - 2.0 * A * (B + C)
    f2 = aa + C * C - 3.0 * (B * B) + 2.0 * (B * C) + 2.0 * A * (C - B)
    f3 = aa + B * B - 3.0 * (C * C) + 2.0 * (B * C) + 2.0 * A * (B - C)
    return f1, f2, f3


def _cross_heisenberg_reference(A, B, C):
    bc = B * C
    a2 = A * A
    return (A * a2 / (bc * bc), -3.0 * a2 / (B * (C * C)), -3.0 * a2 / ((B * B) * C))


def _cross_sol_reference(A, B, C):
    v = A * B * C
    den = v * v
    p = A + C
    p3 = p * (p * p)
    h11 = -(A * p3) * (3.0 * C - A) / den
    h22 = B * ((3.0 * A - C) * (3.0 * C - A)) * (p * p) / den
    h33 = -(C * p3) * (3.0 * A - C) / den
    return (h11, h22, h33)


_KERNEL_REFERENCES = {
    "sl2r_f": (_sl2r_f, _sl2r_f_reference),
    "cross_heisenberg": (_cross_heisenberg, _cross_heisenberg_reference),
    "cross_sol": (_cross_sol, _cross_sol_reference),
}


def _int_bits(values):
    """Each output as int64 bit patterns: NaN payloads and -0.0 count."""
    return [np.asarray(v, dtype=float).view(np.int64).tolist() for v in values]


def _binary_spread(rng, shape, lo, hi):
    return rng.uniform(1.0, 2.0, shape) * np.exp2(rng.integers(lo, hi + 1, shape).astype(float))


@pytest.mark.parametrize("name", sorted(_KERNEL_REFERENCES))
def test_kernel_is_bitwise_its_reference_on_floats(name):
    kernel, reference = _KERNEL_REFERENCES[name]
    rng = np.random.default_rng(8)
    for A, B, C in _binary_spread(rng, (3000, 3), -150, 150).tolist():
        # the triple itself and its exactly symmetric variants
        for args in ((A, B, C), (A, B, B), (A, B, A), (A, A, C), (A, A, A)):
            got = kernel(*args)
            assert all(type(v) is float for v in got)
            assert _int_bits(got) == _int_bits(reference(*args))
        if name == "sl2r_f":  # B == C runs F2 and F3 through equal partial sums
            _, f2, f3 = kernel(A, B, B)
            assert _int_bits([f2]) == _int_bits([f3])


@pytest.mark.parametrize("name", sorted(_KERNEL_REFERENCES))
def test_kernel_is_bitwise_its_reference_on_columns(name):
    # exponents out to +-600, so that squares and (ABC)^2 overflow and underflow
    kernel, reference = _KERNEL_REFERENCES[name]
    rng = np.random.default_rng(9)
    A, B, C = _binary_spread(rng, (3, 4000), -600, 600)
    C[:1000] = B[:1000]
    A[1000:2000] = C[1000:2000]
    with np.errstate(all="ignore"):
        got, want = kernel(A, B, C), reference(A, B, C)
    assert _int_bits(got) == _int_bits(want)
    assert not np.all(np.isfinite(got))  # the overflow and underflow cases are there


@pytest.mark.parametrize("name", ["cross_heisenberg", "cross_sol"])
@pytest.mark.parametrize("triple", [(2e-100, 4e-100, 1e-100), (1e-120, 1e-150, 2e-100), (1.0, 1e-170, 1e-170)])
def test_kernel_and_reference_both_raise_where_the_denominator_underflows(name, triple):
    kernel, reference = _KERNEL_REFERENCES[name]
    for fn in (kernel, reference):
        with pytest.raises(ZeroDivisionError):
            fn(*triple)
