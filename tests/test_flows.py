"""Flow right-hand sides: frozen values, trace-free drift, scaling, symmetry."""

from __future__ import annotations

import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xcflow import (
    FlowDirection,
    FlowSpec,
    Geometry,
    MetricDiag,
    NXCF,
    NXCF_PLUS,
    XCF_MINUS,
    XCF_PLUS,
    cross_curvature_diag,
    flow_rhs,
    rhs_function,
)
from xcflow import flows
from xcflow.geometry import _CROSS

ALL_GEOMETRIES = tuple(Geometry)

coefficient = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)
metric_triples = st.tuples(coefficient, coefficient, coefficient)
narrow = st.floats(min_value=-1.0, max_value=1.0).map(lambda e: 10.0**e)
narrow_triples = st.tuples(narrow, narrow, narrow)
geometries = st.sampled_from(ALL_GEOMETRIES)


# ---------------------------------------------------------------------------
# Flow naming


def test_flow_spec_names_round_trip():
    assert XCF_MINUS.name == "xcf-"
    assert XCF_PLUS.name == "xcf+"
    assert NXCF.name == "nxcf"
    assert NXCF_PLUS.name == "nxcf+"
    for spec in (XCF_MINUS, XCF_PLUS, NXCF, NXCF_PLUS):
        assert FlowSpec.from_name(spec.name) == spec
    assert FlowSpec.from_name(" NXCF ") == NXCF
    with pytest.raises(ValueError, match="unknown flow"):
        FlowSpec.from_name("ricci")


def test_flow_spec_defaults_to_unnormalized_negative():
    assert FlowSpec() == XCF_MINUS
    assert XCF_MINUS.direction is FlowDirection.NEGATIVE
    assert not XCF_MINUS.normalized


# ---------------------------------------------------------------------------
# Frozen right-hand-side values


def test_rhs_point_values():
    assert flow_rhs(Geometry.HEISENBERG, MetricDiag(1, 1, 1), XCF_MINUS) == (-2, 6, 6)
    assert flow_rhs(Geometry.E2, MetricDiag(3, 3, 7), XCF_MINUS) == (0, 0, 0)
    got = flow_rhs(Geometry.HEISENBERG, MetricDiag(1, 1, 1), NXCF)
    assert got == pytest.approx((-16.0 / 3.0, 8.0 / 3.0, 8.0 / 3.0), rel=1e-15)
    assert flow_rhs(Geometry.SU2, MetricDiag(2, 2, 2), XCF_MINUS) == (-1, -1, -1)


def test_trivial_geometry_is_stationary_under_every_flow():
    m = MetricDiag(0.7, 3.0, 42.0)
    for spec in (XCF_MINUS, XCF_PLUS, NXCF, NXCF_PLUS):
        assert flow_rhs(Geometry.TRIVIAL, m, spec) == (0, 0, 0)


# ---------------------------------------------------------------------------
# Structural properties


@settings(max_examples=200, deadline=None)
@given(geometries, metric_triples)
def test_normalized_flow_is_trace_free(geom, triple):
    m = MetricDiag(*triple)
    h = cross_curvature_diag(geom, m)
    # rounding slack is relative to the terms that cancel (2 h_i / g_i), not
    # the result: at stationary points the trace is a difference of equals
    term_scale = 2.0 * (abs(h.h11) / m.A + abs(h.h22) / m.B + abs(h.h33) / m.C)
    for spec in (NXCF, NXCF_PLUS):
        d = flow_rhs(geom, m, spec)
        trace = d.dA / m.A + d.dB / m.B + d.dC / m.C
        assert abs(trace) <= 1e-13 * max(term_scale, 1e-300)


@settings(max_examples=200, deadline=None)
@given(geometries, metric_triples)
def test_positive_flow_is_exact_sign_flip(geom, triple):
    m = MetricDiag(*triple)
    neg = np.array(flow_rhs(geom, m, XCF_MINUS))
    pos = np.array(flow_rhs(geom, m, XCF_PLUS))
    assert np.array_equal(pos, -neg)
    nneg = np.array(flow_rhs(geom, m, NXCF))
    npos = np.array(flow_rhs(geom, m, NXCF_PLUS))
    assert np.array_equal(npos, -nneg)


# Scaling g -> lam*g divides the velocity by lam.  Binary scales rescale the
# inputs without rounding and the right-hand sides are built from correctly
# rounded homogeneous operations, so that case is bitwise; for generic lam the
# rescaled inputs round, which near a tie like (1, 1+1e-7, 1) overwhelms the
# cancellation-shrunk output, so ties stay with the binary-scale variant (the
# random six-decade 1e-12 bound lives in the acceptance suite).


@settings(max_examples=300, deadline=None)
@given(geometries, narrow_triples, st.integers(min_value=-20, max_value=20))
def test_parabolic_scaling_is_bitwise_for_binary_scales(geom, triple, j):
    lam = 2.0**j
    m = MetricDiag(*triple)
    for spec in (XCF_MINUS, NXCF):
        base = np.array(flow_rhs(geom, m, spec))
        scaled = np.array(flow_rhs(geom, m.scaled(lam), spec))
        assert np.array_equal(scaled, base / lam)


@settings(max_examples=200, deadline=None)
@given(geometries, narrow_triples, st.floats(min_value=-3.0, max_value=3.0))
def test_parabolic_scaling_generic_scale(geom, triple, lam_exp):
    gaps = [abs(x - y) / max(x, y) for x, y in zip(triple, triple[1:] + triple[:1])]
    assume(min(gaps) > 1e-3)
    lam = 10.0**lam_exp
    m = MetricDiag(*triple)
    base = np.array(flow_rhs(geom, m, XCF_MINUS))
    scaled = np.array(flow_rhs(geom, m.scaled(lam), XCF_MINUS))
    scale = max(float(np.max(np.abs(base))), 1e-300)
    assert np.max(np.abs(scaled - base / lam)) <= 1e-10 * scale / lam


def test_rhs_function_matches_flow_rhs():
    m = MetricDiag(1.5, 0.25, 3.0)
    for geom in ALL_GEOMETRIES:
        for spec in (XCF_MINUS, NXCF):
            fn = rhs_function(geom, spec)
            assert np.array_equal(fn(m.as_array()), np.array(flow_rhs(geom, m, spec)))


def test_rhs_function_gives_same_bits_for_ndarray_row_and_tuple():
    rows = 10.0 ** np.random.default_rng(7).uniform(-3.0, 3.0, size=(50, 3))
    for geom in ALL_GEOMETRIES:
        for spec in (XCF_MINUS, XCF_PLUS, NXCF, NXCF_PLUS):
            fn = rhs_function(geom, spec)
            for row in rows:
                from_row = np.array(fn(row))
                from_tuple = fn(tuple(row.tolist()))
                assert type(from_tuple) is tuple and all(type(v) is float for v in from_tuple)
                assert from_row.tobytes() == np.array(from_tuple).tobytes()


# The unnormalized closures return c * h with c = -2 * sign, folded from
# sign * (-2 * h).  Both factors are powers of two, so each product is exact
# and the two spellings agree bitwise, including overflow, subnormals, signed
# zeros, infinities and NaN.

_EDGE_H = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan)


def _same_double(a: float, b: float) -> bool:
    return struct.pack("d", a) == struct.pack("d", b) or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_folded_flow_factor_has_the_bits_of_the_unfolded_product(sign):
    c = -2.0 * sign
    for h in _EDGE_H:
        assert _same_double(c * h, sign * (-2.0 * h))


@pytest.mark.parametrize("spec", [XCF_MINUS, XCF_PLUS], ids=lambda s: s.name)
def test_unnormalized_closure_is_the_unfolded_product_bitwise(monkeypatch, spec):
    sign = 1.0 if spec is XCF_MINUS else -1.0
    # planted kernel outputs at the edges, through the closure itself
    for h in _EDGE_H:
        monkeypatch.setitem(flows._CROSS, Geometry.SOL, lambda A, B, C, h=h: (h, -h, 2.0 * h))
        got = rhs_function(Geometry.SOL, spec)((1.0, 2.0, 3.0))
        assert all(_same_double(g, sign * (-2.0 * v)) for g, v in zip(got, (h, -h, 2.0 * h)))
    monkeypatch.undo()
    # and the real kernels on random rows
    rows = 10.0 ** np.random.default_rng(12).uniform(-3.0, 3.0, size=(300, 3))
    for geom in ALL_GEOMETRIES:
        fn = rhs_function(geom, spec)
        for row in rows.tolist():
            want = [sign * (-2.0 * v) for v in _CROSS[geom](*row)]
            assert all(_same_double(g, w) for g, w in zip(fn(row), want))


# Rows on which a symmetric reduction is locked: A=C on Sol, B=C on SL(2,R),
# A=B on E(2) and round SU(2); every geometry sees all of them.
_SYMMETRIC_ROWS = [(0.3, 5.0, 0.3), (2.0, 0.7, 0.7), (4.0, 4.0, 0.1), (1.5, 1.5, 1.5)]


@pytest.mark.parametrize("geom", ALL_GEOMETRIES, ids=[g.value for g in ALL_GEOMETRIES])
@pytest.mark.parametrize("spec", [XCF_MINUS, XCF_PLUS, NXCF, NXCF_PLUS], ids=lambda s: s.name)
def test_flow_rhs_on_columns_matches_per_row_bitwise(geom, spec):
    rows = np.vstack([10.0 ** np.random.default_rng(11).uniform(-3.0, 3.0, size=(200, 3)), _SYMMETRIC_ROWS])
    got = flow_rhs(geom, SimpleNamespace(A=rows[:, 0], B=rows[:, 1], C=rows[:, 2]), spec)
    got = np.array(np.broadcast_arrays(*got, rows[:, 0])[:3])  # TRIVIAL gives scalar zeros
    want = np.array([flow_rhs(geom, MetricDiag(*row), spec) for row in rows]).T
    assert got.shape == want.shape == (3, len(rows))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("geom", [g for g in ALL_GEOMETRIES if g is not Geometry.TRIVIAL])
@pytest.mark.parametrize("spec", [XCF_MINUS, NXCF])
def test_underflowed_kernel_denominator_reads_as_non_finite(geom, spec):
    # (ABC)^2 underflows to 0.0: Python floats raise ZeroDivisionError there,
    # and the right-hand side must report a non-finite velocity instead
    d = flow_rhs(geom, MetricDiag(1e-100, 1e-100, 1e-100), spec)
    assert not np.all(np.isfinite(d))


# ---------------------------------------------------------------------------
# First integrals of the unnormalized negative flow on the Heisenberg group:
# the velocity annihilates d(A^3 B), d(A^3 C) and d(B/C) identically.


def test_heisenberg_first_integral_derivatives_vanish():
    rng = np.random.default_rng(42)
    draws = 10.0 ** rng.uniform(-3.0, 3.0, size=(2000, 3))
    worst = 0.0
    for a, b, c in draws:
        m = MetricDiag(a, b, c)
        dA, dB, dC = flow_rhs(Geometry.HEISENBERG, m, XCF_MINUS)
        # d(A^3 B)/dt = 3 A^2 B dA + A^3 dB
        t1, t2 = 3.0 * a * a * b * dA, a**3 * dB
        worst = max(worst, abs(t1 + t2) / max(abs(t1), abs(t2), 1e-300))
        # d(A^3 C)/dt
        t1, t2 = 3.0 * a * a * c * dA, a**3 * dC
        worst = max(worst, abs(t1 + t2) / max(abs(t1), abs(t2), 1e-300))
        # d(B/C)/dt = (dB C - B dC)/C^2
        t1, t2 = dB * c, b * dC
        worst = max(worst, abs(t1 - t2) / max(abs(t1), abs(t2), 1e-300))
    assert worst <= 1e-12
