"""Closed forms, conserved/monotone catalogs, asymptotic-law catalog."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from xcflow import (
    Geometry,
    MetricDiag,
    NXCF,
    XCF_MINUS,
    XCF_PLUS,
    canonical_permutation,
    classify_branch,
    conserved_quantities,
    expected_asymptotics,
    exact_solution,
    flow_rhs,
    monotone_quantities,
    singular_time,
)
from xcflow.analytic import DECREASING, INCREASING, REGIME_BLOWUP, REGIME_INFINITY, sl2r_trapping_entry
from xcflow.geometry import _sl2r_f


# ---------------------------------------------------------------------------
# Closed forms: point values and domains


H, SOL, SU2 = Geometry.HEISENBERG, Geometry.SOL, Geometry.SU2


def test_heisenberg_exact_point_values():
    m0 = MetricDiag(1.25, 0.5, 2.0)
    assert exact_solution(H, m0, 0.0).tolist() == [1.25, 0.5, 2.0]
    got = exact_solution(H, MetricDiag(1, 1, 1), 10.0)
    want = (281.0 ** (-1.0 / 14.0), 281.0 ** (3.0 / 14.0), 281.0 ** (3.0 / 14.0))
    assert got.shape == (3,)
    assert tuple(got) == pytest.approx(want, rel=1e-15)
    assert singular_time(H, m0) is None
    with pytest.raises(ValueError):
        exact_solution(H, m0, -1e-9)
    with pytest.raises(ValueError):
        exact_solution(H, m0, np.array([0.0, 1.0, -1e-9]))


def test_sol_symmetric_exact_point_values():
    m0 = MetricDiag(1.0, 8.0, 1.0)
    assert singular_time(SOL, m0) == 1.0
    assert exact_solution(SOL, m0, 0.0).tolist() == [1.0, 8.0, 1.0]
    assert tuple(exact_solution(SOL, m0, 0.75)) == pytest.approx((2, 4, 2), rel=1e-15)
    with pytest.raises(ValueError, match="singular"):
        exact_solution(SOL, m0, 1.0)
    with pytest.raises(ValueError, match="singular"):
        exact_solution(SOL, m0, 2.0)
    with pytest.raises(ValueError, match="singular"):
        exact_solution(SOL, m0, np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        exact_solution(SOL, m0, -0.1)
    with pytest.raises(ValueError):
        exact_solution(SOL, MetricDiag(0.0, 8.0, 0.0), 0.5)
    # the generic branch has no closed form and no exact singular time
    assert exact_solution(SOL, MetricDiag(2.0, 4.0, 1.0), 0.5) is None
    assert singular_time(SOL, MetricDiag(2.0, 4.0, 1.0)) is None


def test_su2_round_exact_point_values():
    m0 = MetricDiag(2.0, 2.0, 2.0)
    assert singular_time(SU2, m0) == 1.0
    assert exact_solution(SU2, m0, 0.0).tolist() == [2.0, 2.0, 2.0]
    assert tuple(exact_solution(SU2, m0, 0.75)) == pytest.approx((1, 1, 1), rel=1e-15)
    # collapse rate: s(t) = 2 sqrt(1 - t) for s0 = 2
    u = 1e-6
    got = exact_solution(SU2, m0, 1.0 - u)
    assert tuple(got) == pytest.approx((2 * u**0.5,) * 3, rel=1e-12)
    with pytest.raises(ValueError, match="singular"):
        exact_solution(SU2, m0, 1.0)
    assert exact_solution(SU2, MetricDiag(3.0, 2.0, 1.0), 0.1) is None
    assert singular_time(SU2, MetricDiag(3.0, 2.0, 1.0)) is None


def test_exact_solution_exists_only_on_the_three_branches():
    for geom in Geometry:
        for m0 in (MetricDiag(1.0, 1.0, 1.0), MetricDiag(2.0, 4.0, 1.0)):
            has_closed_form = (geom, classify_branch(geom, m0)) in (
                (H, "global"), (SOL, "symmetric"), (SU2, "round"),
            )
            got = exact_solution(geom, m0, np.array([0.0, 0.01]))  # before T0 = 1/64 of Sol (1, 1, 1)
            assert (got is not None) == has_closed_form
            if has_closed_form:
                assert got.shape == (2, 3) and got[0].tolist() == list(m0.as_tuple())


# ---------------------------------------------------------------------------
# Closed forms satisfy the flow ODEs (central finite differences)


def _ode_consistency(exact_fn, geom, times, delta_scale=1e-6, tol=1e-6):
    worst = 0.0
    for t in times:
        d = delta_scale * (1.0 + t)
        lo = exact_fn(t - d)
        hi = exact_fn(t + d)
        fd = (hi - lo) / (2.0 * d)
        rhs = np.array(flow_rhs(geom, MetricDiag(*exact_fn(t)), XCF_MINUS))
        scale = max(float(np.max(np.abs(rhs))), 1e-300)
        worst = max(worst, float(np.max(np.abs(fd - rhs))) / scale)
    assert worst <= tol, worst


def test_heisenberg_exact_satisfies_ode():
    m0 = MetricDiag(1.5, 0.75, 2.0)
    times = np.linspace(0.01, 20.0, 100)
    _ode_consistency(lambda t: exact_solution(H, m0, t), Geometry.HEISENBERG, times)


def test_sol_symmetric_exact_satisfies_ode():
    t0 = 64.0 / 64.0  # a0=1, b0=8
    times = np.linspace(0.01, 0.9 * t0, 100)
    m0 = MetricDiag(1.0, 8.0, 1.0)
    _ode_consistency(lambda t: exact_solution(SOL, m0, t), Geometry.SOL, times)


def test_su2_round_exact_satisfies_ode():
    t0 = 4.0 / 4.0  # s0=2
    times = np.linspace(0.01, 0.9 * t0, 100)
    m0 = MetricDiag(2.0, 2.0, 2.0)
    _ode_consistency(lambda t: exact_solution(SU2, m0, t), Geometry.SU2, times)


# ---------------------------------------------------------------------------
# Conserved quantities


def test_conserved_catalog_heisenberg():
    got = conserved_quantities(Geometry.HEISENBERG, XCF_MINUS, MetricDiag(1, 2, 4))
    assert got == [("A^3*B", 2.0), ("A^3*C", 4.0), ("B/C", 0.5)]


def test_conserved_catalog_normalized_volume():
    got = conserved_quantities(Geometry.SU2, NXCF, MetricDiag(1, 2, 3))
    assert got == [("A*B*C", 6.0)]


def test_conserved_catalog_empty_cases():
    assert conserved_quantities(Geometry.SL2R, XCF_MINUS, MetricDiag(1, 2, 3)) == []
    assert conserved_quantities(Geometry.HEISENBERG, XCF_PLUS, MetricDiag(1, 2, 3)) == []


# ---------------------------------------------------------------------------
# Monotone quantities


def test_monotone_catalog_sol():
    got = monotone_quantities(Geometry.SOL, MetricDiag(2, 4, 1))
    assert got == [
        ("A-C", DECREASING),
        ("A/C", DECREASING),
        ("A-3C", DECREASING),
        ("C", INCREASING),
    ]
    mirrored = monotone_quantities(Geometry.SOL, MetricDiag(1, 4, 2))
    assert mirrored == [
        ("C-A", DECREASING),
        ("C/A", DECREASING),
        ("C-3A", DECREASING),
        ("A", INCREASING),
    ]
    assert monotone_quantities(Geometry.SOL, MetricDiag(3, 4, 3)) == []


def test_monotone_catalog_su2():
    got = monotone_quantities(Geometry.SU2, MetricDiag(3, 2, 1))
    assert got == [
        ("A-B", DECREASING),
        ("A-C", DECREASING),
        ("A/B", DECREASING),
        ("A/C", DECREASING),
    ]
    # ordering follows the sorted initial coefficients
    got = monotone_quantities(Geometry.SU2, MetricDiag(1, 3, 2))
    assert got[0] == ("B-C", DECREASING)


def test_monotone_catalog_sl2r():
    sym = monotone_quantities(Geometry.SL2R, MetricDiag(1, 1, 1))
    assert ("4/A+1/B", DECREASING) in sym
    generic = monotone_quantities(Geometry.SL2R, MetricDiag(1, 2, 1))
    assert generic == [("A", INCREASING), ("B", INCREASING), ("C", DECREASING)]


def _inline_sl2r_monotone(m0):
    """The SL(2,R) branch of `monotone_quantities` as it was before it called `sl2r_trapping_entry`."""
    a0, b0, c0 = m0.A, m0.B, m0.C
    if b0 == c0:
        return [("4/A+1/B", DECREASING), ("A", DECREASING), ("B", INCREASING), ("C", INCREASING)]
    hi, lo = ("B", "C") if b0 > c0 else ("C", "B")
    f1, f2, _ = _sl2r_f(a0, max(b0, c0), min(b0, c0))
    if f1 < 0.0 and f2 < 0.0:
        return [("A", INCREASING), (hi, INCREASING), (lo, DECREASING)]
    return []


def _f1_boundary_rows():
    """Rows with F1 = (B-C)^2 - 3A^2 - 2A(B+C) exactly 0, mirrored, and one ulp of A either side.

    At A = 1 and B = C + d, F1 vanishes for C = (d^2 - 2d - 3)/4, an integer
    for odd d; power-of-two scales keep every operation exact.
    """
    rows = []
    for d in range(5, 41, 2):
        c = (d * d - 2 * d - 3) / 4
        for scale in (2.0**-20, 1.0, 2.0**20):
            a, b, c_s = scale, scale * (c + d), scale * c
            assert _sl2r_f(a, b, c_s)[0] == 0.0
            for a_row in (a, float(np.nextafter(a, 0.0)), float(np.nextafter(a, 2.0 * a))):
                rows += [(a_row, b, c_s), (a_row, c_s, b)]
    return rows


def test_sl2r_monotone_catalog_is_the_inline_trapping_test():
    rng = np.random.default_rng(20261018)
    random_rows = [tuple(np.exp(rng.uniform(-4.0, 4.0, 3)).tolist()) for _ in range(3000)]
    random_rows += [(a, b, b) for a, b, _ in random_rows[:300]]
    boundary = _f1_boundary_rows()
    outcomes = set()
    for row in random_rows + boundary:
        m0 = MetricDiag(*row)
        got = monotone_quantities(Geometry.SL2R, m0)
        assert got == _inline_sl2r_monotone(m0), row
        outcomes.add((row in boundary, len(got)))
    # trapped and untrapped data both occur, on the boundary and off it
    assert outcomes >= {(False, 0), (False, 3), (False, 4), (True, 0), (True, 3)}
    # F1 = 0 itself is outside the open region
    a, b, c = boundary[0]
    assert sl2r_trapping_entry(np.array([[a, b, c]])) == (None, False)


def test_monotone_catalog_e2():
    assert monotone_quantities(Geometry.E2, MetricDiag(3, 3, 1)) == []
    got = monotone_quantities(Geometry.E2, MetricDiag(2, 1, 1))
    assert ("(A-B)^2*C", INCREASING) in got
    assert ("A-B", DECREASING) in got


# ---------------------------------------------------------------------------
# Branch classification and canonical relabeling


def test_classify_branch():
    assert classify_branch(Geometry.HEISENBERG, MetricDiag(1, 2, 3)) == "global"
    assert classify_branch(Geometry.SOL, MetricDiag(1, 8, 1)) == "symmetric"
    assert classify_branch(Geometry.SOL, MetricDiag(2, 4, 1)) == "generic"
    assert classify_branch(Geometry.SU2, MetricDiag(2, 2, 2)) == "round"
    assert classify_branch(Geometry.SU2, MetricDiag(3, 2, 1)) == "generic"
    assert classify_branch(Geometry.SL2R, MetricDiag(1, 1, 1)) == "symmetric"
    assert classify_branch(Geometry.SL2R, MetricDiag(1, 2, 1)) == "generic"
    assert classify_branch(Geometry.E2, MetricDiag(3, 3, 1)) == "flat"
    assert classify_branch(Geometry.E2, MetricDiag(2, 1, 1)) == "generic"
    assert classify_branch(Geometry.TRIVIAL, MetricDiag(1, 2, 3)) == "stationary"


def test_canonical_permutation():
    assert canonical_permutation(Geometry.SOL, MetricDiag(2, 4, 1)) == (0, 1, 2)
    assert canonical_permutation(Geometry.SOL, MetricDiag(1, 4, 2)) == (2, 1, 0)
    assert canonical_permutation(Geometry.SL2R, MetricDiag(1, 1, 2)) == (0, 2, 1)
    assert canonical_permutation(Geometry.E2, MetricDiag(1, 2, 1)) == (1, 0, 2)
    assert canonical_permutation(Geometry.HEISENBERG, MetricDiag(3, 2, 1)) == (0, 1, 2)


# ---------------------------------------------------------------------------
# Asymptotic-law catalog


def _law(laws, variable):
    matches = [l for l in laws if l.variable == variable]
    assert len(matches) == 1, f"expected exactly one law for {variable}"
    return matches[0]


def test_asymptotics_requires_the_unnormalized_negative_flow():
    with pytest.raises(ValueError):
        expected_asymptotics(Geometry.SOL, NXCF, MetricDiag(2, 4, 1))
    with pytest.raises(ValueError):
        expected_asymptotics(Geometry.SOL, XCF_PLUS, MetricDiag(2, 4, 1))


def test_asymptotics_heisenberg():
    laws = expected_asymptotics(Geometry.HEISENBERG, XCF_MINUS, MetricDiag(1, 1, 1))
    a = _law(laws, "A")
    assert a.regime == REGIME_INFINITY
    assert a.exponent == Fraction(-1, 14)
    assert a.coefficient == pytest.approx(28.0 ** (-1.0 / 14.0), rel=1e-15)
    b = _law(laws, "B")
    assert b.exponent == Fraction(3, 14)
    assert b.coefficient == pytest.approx(28.0 ** (3.0 / 14.0), rel=1e-15)


def test_asymptotics_sol_generic():
    laws = expected_asymptotics(Geometry.SOL, XCF_MINUS, MetricDiag(2, 4, 1))
    b = _law(laws, "B")
    assert (b.regime, b.exponent, b.coefficient) == (REGIME_BLOWUP, Fraction(1, 2), 8.0)
    assert _law(laws, "A").coefficient is None
    gap = _law(laws, "A-C")
    assert (gap.regime, gap.exponent, gap.coefficient) == (REGIME_BLOWUP, Fraction(1, 2), None)


def test_asymptotics_sol_symmetric_pins_the_shared_constant():
    laws = expected_asymptotics(Geometry.SOL, XCF_MINUS, MetricDiag(1, 8, 1))
    a = _law(laws, "A")
    assert a.coefficient == pytest.approx(1.0)  # A0 B0 / 8
    assert all(l.variable != "A-C" for l in laws)


def test_asymptotics_su2():
    laws = expected_asymptotics(Geometry.SU2, XCF_MINUS, MetricDiag(3, 2, 1))
    a = _law(laws, "A")
    assert (a.regime, a.exponent, a.coefficient) == (REGIME_BLOWUP, Fraction(1, 2), 2.0)
    assert {l.variable for l in laws} == {"A", "B", "C"}


def test_asymptotics_sl2r_symmetric():
    laws = expected_asymptotics(Geometry.SL2R, XCF_MINUS, MetricDiag(1, 1, 1))
    b = _law(laws, "B")
    assert (b.regime, b.exponent, b.coefficient) == (REGIME_INFINITY, Fraction(1, 3), None)
    a = _law(laws, "A")
    assert a.limit_form and a.exponent == Fraction(-1, 3)


def test_asymptotics_sl2r_generic():
    laws = expected_asymptotics(Geometry.SL2R, XCF_MINUS, MetricDiag(1, 2, 1))
    c = _law(laws, "C")
    assert (c.regime, c.exponent, c.coefficient) == (REGIME_BLOWUP, Fraction(1, 2), 8.0)


def test_asymptotics_e2():
    assert expected_asymptotics(Geometry.E2, XCF_MINUS, MetricDiag(3, 3, 1)) == []
    laws = expected_asymptotics(Geometry.E2, XCF_MINUS, MetricDiag(2, 1, 1))
    gap = _law(laws, "A-B")
    assert (gap.regime, gap.exponent) == (REGIME_INFINITY, Fraction(-1, 6))
    c = _law(laws, "C")
    assert (c.regime, c.exponent) == (REGIME_INFINITY, Fraction(1, 3))
    s = _law(laws, "A+B")
    assert s.limit_form and s.exponent == Fraction(-1, 3)


def test_asymptotics_mirrored_data_share_the_canonical_catalog():
    canon = expected_asymptotics(Geometry.SOL, XCF_MINUS, MetricDiag(2, 4, 1))
    mirrored = expected_asymptotics(Geometry.SOL, XCF_MINUS, MetricDiag(1, 4, 2))
    assert mirrored == canon
