"""Closed forms, conserved quantities, and the branch records: monotone lists and asymptotic laws."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcflow import (
    BranchRecord,
    Geometry,
    MetricDiag,
    NXCF,
    XCF_MINUS,
    XCF_PLUS,
    AsymptoticLaw,
    branch_record,
    canonical_permutation,
    classify_branch,
    conserved_quantities,
    exact_solution,
    flow_rhs,
    singular_time,
)
from xcflow.analytic import DECREASING, INCREASING, REGIME_BLOWUP, REGIME_INFINITY, SYMMETRIC_BRANCHES
from xcflow.analytic import sl2r_trapping_entry
from xcflow.flows import FLOWS
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


def _monotone(geometry, m0):
    """The monotone list of the negative flow from m0, as its branch record states it."""
    return list(branch_record(geometry, XCF_MINUS, m0).monotone)


def test_monotone_catalog_sol():
    got = _monotone(Geometry.SOL, MetricDiag(2, 4, 1))
    assert got == [
        ("A-C", DECREASING),
        ("A/C", DECREASING),
        ("A-3C", DECREASING),
        ("C", INCREASING),
    ]
    assert _monotone(Geometry.SOL, MetricDiag(1, 4, 2)) == got  # mirrored: the same canonical names
    assert _monotone(Geometry.SOL, MetricDiag(3, 4, 3)) == []


def test_monotone_catalog_su2():
    got = _monotone(Geometry.SU2, MetricDiag(3, 2, 1))
    assert got == [
        ("A-B", DECREASING),
        ("A-C", DECREASING),
        ("A/B", DECREASING),
        ("A/C", DECREASING),
    ]
    # every ordering of the datum: the same canonical names, largest against the others
    for m0 in set(permutations((3.0, 2.0, 1.0))):
        assert _monotone(Geometry.SU2, MetricDiag(*m0)) == got, m0


def test_monotone_catalog_sl2r():
    sym = _monotone(Geometry.SL2R, MetricDiag(1, 1, 1))
    assert ("4/A+1/B", DECREASING) in sym
    generic = _monotone(Geometry.SL2R, MetricDiag(1, 2, 1))
    assert generic == [("A", INCREASING), ("B", INCREASING), ("C", DECREASING)]


def _inline_sl2r_monotone(m0):
    """The SL(2,R) monotone list as it was stated before it called `sl2r_trapping_entry`, in canonical labels."""
    a0, b0, c0 = m0.A, m0.B, m0.C
    if b0 == c0:
        return [("4/A+1/B", DECREASING), ("A", DECREASING), ("B", INCREASING), ("C", INCREASING)]
    f1, f2, _ = _sl2r_f(a0, max(b0, c0), min(b0, c0))
    if f1 < 0.0 and f2 < 0.0:
        return [("A", INCREASING), ("B", INCREASING), ("C", DECREASING)]
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
        got = _monotone(Geometry.SL2R, m0)
        assert got == _inline_sl2r_monotone(m0), row
        outcomes.add((row in boundary, len(got)))
    # trapped and untrapped data both occur, on the boundary and off it
    assert outcomes >= {(False, 0), (False, 3), (False, 4), (True, 0), (True, 3)}
    # F1 = 0 itself is outside the open region
    a, b, c = boundary[0]
    assert sl2r_trapping_entry(np.array([[a, b, c]])) == (None, False)


def test_monotone_catalog_e2():
    assert _monotone(Geometry.E2, MetricDiag(3, 3, 1)) == []
    got = _monotone(Geometry.E2, MetricDiag(2, 1, 1))
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
    assert canonical_permutation(Geometry.HEISENBERG, MetricDiag(1, 2, 3)) == (0, 1, 2)
    assert canonical_permutation(Geometry.SU2, MetricDiag(3, 2, 1)) == (0, 1, 2)
    assert canonical_permutation(Geometry.SU2, MetricDiag(1, 3, 2)) == (1, 2, 0)
    assert canonical_permutation(Geometry.SU2, MetricDiag(2, 1, 3)) == (2, 0, 1)
    assert canonical_permutation(Geometry.SU2, MetricDiag(1, 2, 2)) == (1, 2, 0)  # ties keep their order
    assert canonical_permutation(Geometry.SU2, MetricDiag(2, 2, 2)) == (0, 1, 2)


def test_symmetric_branches_are_the_invariant_reductions():
    assert SYMMETRIC_BRANCHES == {
        Geometry.SOL: ((0, 2), "symmetric", "generic"),  # A = C
        Geometry.SL2R: ((1, 2), "symmetric", "generic"),  # B = C
        Geometry.E2: ((0, 1), "flat", "generic"),  # A = B
        Geometry.SU2: ((0, 1, 2), "round", "generic"),  # A = B = C
        Geometry.HEISENBERG: ((), "global", "global"),
        Geometry.TRIVIAL: ((), "stationary", "stationary"),
    }


def _reorderings(geometry, datum):
    """Every ordering of the datum's coefficients on the geometry's symmetric axes, the other axes kept."""
    axes = SYMMETRIC_BRANCHES[geometry][0]
    points = set()
    for values in permutations([datum[i] for i in axes]):
        point = list(datum)
        for i, value in zip(axes, values):
            point[i] = value
        points.add(tuple(point))
    return points


def _record_names(geometry, spec, m0):
    """Every name the record of the flow `spec` from m0 states: laws, monotone list, first integrals, checks."""
    record = branch_record(geometry, spec, MetricDiag(*m0))
    return (
        tuple(law.variable for law in record.laws), record.monotone,
        tuple(name for name, _ in record.first_integrals), tuple(check.name for check in record.checks),
    )


# few values, so ties are frequent, and any value
_COEFF = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.1, 10.0))


@settings(max_examples=300, deadline=None)
@given(geometry=st.sampled_from(list(Geometry)), datum=st.tuples(_COEFF, _COEFF, _COEFF))
def test_every_reordering_on_the_symmetric_axes_relabels_to_one_datum_and_one_record(geometry, datum):
    axes = SYMMETRIC_BRANCHES[geometry][0]
    data, records = set(), set()
    for point in _reorderings(geometry, datum):
        perm = canonical_permutation(geometry, MetricDiag(*point))
        canon = tuple(point[i] for i in perm)
        assert sorted(perm) == [0, 1, 2] and all(perm[i] == i for i in range(3) if i not in axes), (point, perm)
        assert [canon[i] for i in axes] == sorted([point[i] for i in axes], reverse=True), point
        assert all(perm[i] < perm[j] for i, j in combinations(axes, 2) if canon[i] == canon[j]), point  # ties keep order
        assert canonical_permutation(geometry, MetricDiag(*canon)) == (0, 1, 2), canon
        data.add(canon)
        records.add((classify_branch(geometry, MetricDiag(*point)), *(_record_names(geometry, spec, point) for spec in FLOWS.values())))
    assert len(data) == 1
    assert len(records) == 1


def test_an_ordering_off_the_symmetric_axes_is_another_datum():
    # Sol is symmetric under A <-> C only: (4, 2, 1) has A >= 3C and so the sign-change check, (2, 4, 1) has not
    sign_change = "A-3C changes sign before the singular time"
    assert sign_change in _record_names(SOL, XCF_MINUS, (4.0, 2.0, 1.0))[3]
    assert sign_change in _record_names(SOL, XCF_MINUS, (1.0, 2.0, 4.0))[3]
    assert sign_change not in _record_names(SOL, XCF_MINUS, (2.0, 4.0, 1.0))[3]


# ---------------------------------------------------------------------------
# Asymptotic-law catalog


def _laws(geometry, spec, m0):
    """The asymptotic laws of the flow `spec` from m0, as its branch record states them."""
    return list(branch_record(geometry, spec, m0).laws)


def _law(laws, variable):
    matches = [l for l in laws if l.variable == variable]
    assert len(matches) == 1, f"expected exactly one law for {variable}"
    return matches[0]


def test_asymptotics_requires_the_unnormalized_negative_flow():
    # a normalized flow's record holds the volume alone; the positive flow's is empty
    assert branch_record(Geometry.SOL, NXCF, MetricDiag(2, 4, 1)) == BranchRecord(first_integrals=(("A*B*C", 8.0),))
    assert branch_record(Geometry.SOL, XCF_PLUS, MetricDiag(2, 4, 1)) == BranchRecord()
    assert _laws(Geometry.SOL, NXCF, MetricDiag(2, 4, 1)) == []


def test_asymptotics_heisenberg():
    laws = _laws(Geometry.HEISENBERG, XCF_MINUS, MetricDiag(1, 1, 1))
    a = _law(laws, "A")
    assert a.regime == REGIME_INFINITY
    assert a.exponent == Fraction(-1, 14)
    assert a.coefficient == pytest.approx(28.0 ** (-1.0 / 14.0), rel=1e-15)
    b = _law(laws, "B")
    assert b.exponent == Fraction(3, 14)
    assert b.coefficient == pytest.approx(28.0 ** (3.0 / 14.0), rel=1e-15)


def test_asymptotics_sol_generic():
    laws = _laws(Geometry.SOL, XCF_MINUS, MetricDiag(2, 4, 1))
    b = _law(laws, "B")
    assert (b.regime, b.exponent, b.coefficient) == (REGIME_BLOWUP, Fraction(1, 2), 8.0)
    assert _law(laws, "A").coefficient is None
    gap = _law(laws, "A-C")
    assert (gap.regime, gap.exponent, gap.coefficient) == (REGIME_BLOWUP, Fraction(1, 2), None)


def test_asymptotics_sol_symmetric_pins_the_shared_constant():
    laws = _laws(Geometry.SOL, XCF_MINUS, MetricDiag(1, 8, 1))
    a = _law(laws, "A")
    assert a.coefficient == pytest.approx(1.0)  # A0 B0 / 8
    assert all(l.variable != "A-C" for l in laws)


def test_asymptotics_su2():
    laws = _laws(Geometry.SU2, XCF_MINUS, MetricDiag(3, 2, 1))
    a = _law(laws, "A")
    assert (a.regime, a.exponent, a.coefficient) == (REGIME_BLOWUP, Fraction(1, 2), 2.0)
    assert {l.variable for l in laws} == {"A", "B", "C"}


def test_asymptotics_sl2r_symmetric():
    laws = _laws(Geometry.SL2R, XCF_MINUS, MetricDiag(1, 1, 1))
    b = _law(laws, "B")
    assert (b.regime, b.exponent, b.coefficient) == (REGIME_INFINITY, Fraction(1, 3), None)
    a = _law(laws, "A")
    assert a.limit_form and a.exponent == Fraction(-1, 3)


def test_asymptotics_sl2r_generic():
    laws = _laws(Geometry.SL2R, XCF_MINUS, MetricDiag(1, 2, 1))
    c = _law(laws, "C")
    assert (c.regime, c.exponent, c.coefficient) == (REGIME_BLOWUP, Fraction(1, 2), 8.0)


def test_asymptotics_e2():
    assert _laws(Geometry.E2, XCF_MINUS, MetricDiag(3, 3, 1)) == []
    laws = _laws(Geometry.E2, XCF_MINUS, MetricDiag(2, 1, 1))
    gap = _law(laws, "A-B")
    assert (gap.regime, gap.exponent) == (REGIME_INFINITY, Fraction(-1, 6))
    c = _law(laws, "C")
    assert (c.regime, c.exponent) == (REGIME_INFINITY, Fraction(1, 3))
    s = _law(laws, "A+B")
    assert s.limit_form and s.exponent == Fraction(-1, 3)


def test_asymptotics_mirrored_data_share_the_canonical_catalog():
    canon = _laws(Geometry.SOL, XCF_MINUS, MetricDiag(2, 4, 1))
    mirrored = _laws(Geometry.SOL, XCF_MINUS, MetricDiag(1, 4, 2))
    assert mirrored == canon


# a datum in the canonical labels of `canonical_permutation` and its mirrored twin
MIRRORED_TWINS = [
    (Geometry.SOL, (2.0, 4.0, 1.0), (1.0, 4.0, 2.0)),
    (Geometry.SL2R, (1.0, 2.0, 1.0), (1.0, 1.0, 2.0)),
    (Geometry.E2, (2.0, 1.0, 1.0), (1.0, 2.0, 1.0)),
    (Geometry.SU2, (3.0, 2.0, 1.0), (1.0, 3.0, 2.0)),
    (Geometry.SU2, (2.0, 2.0, 1.0), (1.0, 2.0, 2.0)),
]


@pytest.mark.parametrize("geometry, datum, twin", MIRRORED_TWINS, ids=lambda v: getattr(v, "value", None))
def test_mirrored_twins_get_a_record_with_the_same_names(geometry, datum, twin):
    def names(m0):
        record = branch_record(geometry, XCF_MINUS, MetricDiag(*m0))
        return (
            [law.variable for law in record.laws], list(record.monotone),
            [name for name, _ in record.first_integrals], [check.name for check in record.checks],
        )

    assert names(datum)[1]  # the generic branch, with a monotone list
    assert names(twin) == names(datum)


@pytest.mark.parametrize("geometry", list(Geometry), ids=lambda g: g.value)
def test_conserved_quantities_are_the_records_first_integrals(geometry):
    # every flow and every ordering of distinct coefficients, none of whose products is exact
    for spec, m0 in product(FLOWS.values(), permutations((0.7, 1.3, 2.9))):
        record = branch_record(geometry, spec, MetricDiag(*m0))
        assert conserved_quantities(geometry, spec, MetricDiag(*m0)) == list(record.first_integrals), (spec, m0)


# ---------------------------------------------------------------------------
# The branch record is bitwise the catalog it replaced.  The four functions
# below are the catalog as it was stated before the record, kept as the
# reference: the laws, their tolerances (then set by `verify`), the monotone
# lists (renamed to the canonical labels the record states them in) and the
# conserved quantities.


def _ref_expected_asymptotics(geometry, spec, m0):
    if spec != XCF_MINUS:
        raise ValueError("asymptotic catalog applies to the unnormalized negative flow only")

    perm = canonical_permutation(geometry, m0)
    coeffs = m0.as_tuple()
    a0, b0, c0 = (coeffs[perm[0]], coeffs[perm[1]], coeffs[perm[2]])

    if geometry is Geometry.HEISENBERG:
        r0 = -2.0 * a0 / (b0 * c0)
        s = 7.0 * r0 * r0
        return [
            AsymptoticLaw("A", REGIME_INFINITY, Fraction(-1, 14), a0 * s ** (-1.0 / 14.0),
                          description="slow decay of the fiber direction"),
            AsymptoticLaw("B", REGIME_INFINITY, Fraction(3, 14), b0 * s ** (3.0 / 14.0),
                          description="slow growth of a base direction"),
            AsymptoticLaw("C", REGIME_INFINITY, Fraction(3, 14), c0 * s ** (3.0 / 14.0),
                          description="slow growth of a base direction"),
        ]

    if geometry is Geometry.SOL:
        laws = [
            AsymptoticLaw("B", REGIME_BLOWUP, Fraction(1, 2), 8.0,
                          description="collapsing middle direction, B ~ sqrt(64 (T0-t))"),
        ]
        if a0 == c0:
            k = a0 * b0 / 8.0
            laws += [
                AsymptoticLaw("A", REGIME_BLOWUP, Fraction(-1, 2), k,
                              description="exploding direction of the symmetric reduction"),
                AsymptoticLaw("C", REGIME_BLOWUP, Fraction(-1, 2), k,
                              description="exploding direction of the symmetric reduction"),
            ]
        else:
            laws += [
                AsymptoticLaw("A", REGIME_BLOWUP, Fraction(-1, 2), None,
                              description="exploding direction, shared constant with C"),
                AsymptoticLaw("C", REGIME_BLOWUP, Fraction(-1, 2), None,
                              description="exploding direction, shared constant with A"),
                AsymptoticLaw("A-C", REGIME_BLOWUP, Fraction(1, 2), None,
                              description="anisotropy gap closes like sqrt(T0-t)"),
            ]
        return laws

    if geometry is Geometry.SU2:
        return [
            AsymptoticLaw(v, REGIME_BLOWUP, Fraction(1, 2), 2.0,
                          description="round collapse, every direction ~ 2 sqrt(T0-t)")
            for v in ("A", "B", "C")
        ]

    if geometry is Geometry.SL2R:
        if b0 == c0:
            return [
                AsymptoticLaw("B", REGIME_INFINITY, Fraction(1, 3), None,
                              description="pancake growth, B = C ~ (24 Ainf t)^(1/3)"),
                AsymptoticLaw("A", REGIME_INFINITY, Fraction(-1, 3), None, limit_form=True,
                              description="A tends to a positive limit with a t^(-1/3) tail"),
            ]
        return [
            AsymptoticLaw("A", REGIME_BLOWUP, Fraction(-1, 2), None,
                          description="exploding direction, same constant as B"),
            AsymptoticLaw("B", REGIME_BLOWUP, Fraction(-1, 2), None,
                          description="exploding direction, same constant as A"),
            AsymptoticLaw("C", REGIME_BLOWUP, Fraction(1, 2), 8.0,
                          description="collapsing direction, C ~ 8 sqrt(T0-t)"),
        ]

    if geometry is Geometry.E2:
        if a0 == b0:
            return []
        return [
            AsymptoticLaw("A-B", REGIME_INFINITY, Fraction(-1, 6), None,
                          description="anisotropy decays like 2 E2 t^(-1/6)"),
            AsymptoticLaw("C", REGIME_INFINITY, Fraction(1, 3), None,
                          description="cigar growth, coefficient (8 E2/E1) sqrt(6)"),
            AsymptoticLaw("A+B", REGIME_INFINITY, Fraction(-1, 3), None, limit_form=True,
                          description="A+B tends to 2 E1 with a t^(-1/3) tail"),
        ]

    return []


def _ref_law_tolerances(geometry, branch, law):
    exp_tol = 0.02
    coeff_rtol = None
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


def _ref_monotone_quantities(geometry, m0):
    a0, b0, c0 = m0.A, m0.B, m0.C
    if geometry is Geometry.SOL:
        if a0 != c0:
            return [("A-C", DECREASING), ("A/C", DECREASING), ("A-3C", DECREASING), ("C", INCREASING)]
        return []
    if geometry is Geometry.SU2:
        return [("A-B", DECREASING), ("A-C", DECREASING), ("A/B", DECREASING), ("A/C", DECREASING)]
    if geometry is Geometry.SL2R:
        return _inline_sl2r_monotone(m0)
    if geometry is Geometry.E2:
        if a0 == b0:
            return []
        return [("(A-B)^2*C", INCREASING), ("A", DECREASING), ("B", INCREASING), ("C", INCREASING), ("A-B", DECREASING)]
    return []


def _ref_conserved_quantities(geometry, spec, m):
    out = []
    if geometry is Geometry.HEISENBERG and spec == XCF_MINUS:
        out.extend([("A^3*B", m.A**3 * m.B), ("A^3*C", m.A**3 * m.C), ("B/C", m.B / m.C)])
    if spec.normalized:
        out.append(("A*B*C", m.A * m.B * m.C))
    return out


def _bits(law):
    """The fields of a law, each float as its exact hex text."""
    return tuple(v.hex() if isinstance(v, float) else v for v in (getattr(law, name) for name in law._fields))


def test_branch_record_is_bitwise_the_old_catalog():
    # coefficients from {1, 2, 3}: all six orderings of distinct values and every tie pattern
    inits = [MetricDiag(*c) for c in product((1.0, 2.0, 3.0), repeat=3)]
    for geometry, spec, m0 in product(Geometry, FLOWS.values(), inits):
        record = branch_record(geometry, spec, m0)
        got = [(name, v.hex()) for name, v in conserved_quantities(geometry, spec, m0)]
        want = [(name, v.hex()) for name, v in _ref_conserved_quantities(geometry, spec, m0)]
        assert got == want, (geometry, spec, m0)
        if spec != XCF_MINUS:
            assert record._replace(first_integrals=()) == BranchRecord()
            with pytest.raises(ValueError):
                _ref_expected_asymptotics(geometry, spec, m0)
            continue
        branch = classify_branch(geometry, m0)
        want_laws = [
            law._replace(**dict(zip(("exponent_tol", "coefficient_tol"), _ref_law_tolerances(geometry, branch, law))))
            for law in _ref_expected_asymptotics(geometry, spec, m0)
        ]
        assert [_bits(law) for law in record.laws] == [_bits(law) for law in want_laws], (geometry, m0)
        assert list(record.monotone) == _ref_monotone_quantities(geometry, m0), (geometry, m0)
        assert record.checks[0].name == "termination matches branch"
