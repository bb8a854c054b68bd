"""Acceptance gate: every headline quantitative claim, one pass/fail line each.

Each criterion runs the relevant flows (a run shared by criteria of one suite
is integrated once per suite) and checks closed forms, conserved quantities, fitted exponents/coefficients,
and structural facts at their stated tolerances.  `pytest -v -s` shows one
line per criterion.
"""

from __future__ import annotations

import pytest

from xcflow import acceptance


@pytest.mark.parametrize(
    "criterion",
    acceptance.ALL_CRITERIA,
    ids=[fn.__name__.removeprefix("criterion_") for fn in acceptance.ALL_CRITERIA],
)
def test_criterion(criterion):
    [result], _ = acceptance.run_suite([criterion])
    print(result.line())
    assert result.passed, result.line()


def test_full_suite_is_green():
    results = acceptance.run_all()
    assert len(results) == 11
    assert [r.number for r in results] == list(range(1, 12))
    for line in (r.line() for r in results):
        print(line)
    assert all(r.passed for r in results)
