"""The record contract: what `Record` gives each of xcflow's value classes.

Each class is frozen, equal by value within its own class only, hashed as
its field tuple, printed as the frozen dataclass it replaced was printed,
and lists its fields in the order of its `__dict__` and its `to_dict`.  A
class that holds arrays is equal only to itself and hashed by identity, as a
dataclass with `eq=False` is.  The reference texts and hashes come from a
`dataclasses.make_dataclass` twin of each class.
"""

from __future__ import annotations

from dataclasses import make_dataclass
from fractions import Fraction

import numpy as np
import pytest

from xcflow import FlowDirection, FlowSpec, Geometry, MetricDiag, XCF_MINUS
from xcflow import acceptance, analysis, analytic, cli, geometry, integrator
from xcflow._record import Record
from xcflow.acceptance import CriterionResult
from xcflow.analysis import CheckResult, LawResult, LimitPowerFit, PowerLawFit, VerificationReport, _Difference
from xcflow.analytic import AsymptoticLaw, BranchCheck, BranchRecord
from xcflow.cli import ParsedCsv, RunConfig
from xcflow.integrator import IntegratorOptions, Termination, TerminationKind, Trajectory, _StepTable

_T = np.array([0.0, 0.5, 1.0])
_Y = np.ones((3, 3))


def _table_values() -> tuple:
    return (_T, _T, _Y, np.zeros((3, 13, 4)), _T, _T, 0, None, 1e-3)


_LAW = AsymptoticLaw("A", "blowup", Fraction(1, 2))
_CHECK = CheckResult("B/C", "conserved", True, 1e-14, 1e-10)

# one instance's field values for every record class, each a valid value of its field
_VALUES = {
    MetricDiag: (1.0, 2.0, 3.0),
    FlowSpec: (FlowDirection.NEGATIVE, True),
    IntegratorOptions: (1.0, 1e-8, 1e-12, 100, 16),
    Termination: (TerminationKind.SINGULAR_TIME, 0.5, ("A",), ("B", "C"), "rate", 10, 2),
    _StepTable: _table_values(),
    Trajectory: (Geometry.SOL, XCF_MINUS, MetricDiag(2.0, 4.0, 1.0), IntegratorOptions(), _T, _Y,
                 Termination(TerminationKind.REACHED_T_MAX, 1.0), None),
    AsymptoticLaw: ("A", "blowup", Fraction(1, 2), 2.0, False, "A ~ 2 (T0 - t)^(1/2)", 0.02, 1e-3),
    BranchCheck: ("lock", "A=C locked", (0, 2), ""),
    BranchRecord: ((_LAW,), (("A", "decreasing"),), (("A*B", 2.0),), 0.25, None,
                   (BranchCheck("termination", "termination matches branch"),)),
    PowerLawFit: (0.5, 2.0, 0.999, (0.1, 1.0)),
    LimitPowerFit: (3.0, -1.0, -0.5, (1.0, 10.0)),
    CheckResult: ("B/C", "conserved", True, 1e-14, 1e-10, ""),
    LawResult: ("A", "blowup", 0.5, 0.02, 0.5001, None, None, 2.0, None, 0.999, True, "coeff=2"),
    VerificationReport: ("sol", "xcf-", "generic", False, {"kind": "singular_time", "t_stop": 0.5}, 0.5,
                         (_CHECK,), (), (), ()),
    _Difference: (0, 3.0, 2),
    CriterionResult: (1, "heisenberg invariants", True, ("B/C 1.000e-14 (tol 1e-10)",)),
    RunConfig: ("sol", "xcf-", (2.0, 4.0, 1.0), 10.0, 1e-10, 1e-13, 512, 1000, "-", "json", False),
    ParsedCsv: ("# flow run", {"t": _T}),
}

# arrays among the fields, whose `==` gives no bool: equal only to itself and hashed by identity
_IDENTITY = {_StepTable, Trajectory, ParsedCsv}
# a dict of scalars among the fields: equal by value but no hash, as the dataclass had none
_UNHASHABLE = {VerificationReport}
_CLASSES = list(_VALUES)
_IDS = [cls.__name__ for cls in _CLASSES]


def test_every_record_class_of_the_package_is_pinned_here():
    modules = (acceptance, analysis, analytic, cli, geometry, integrator)
    found = {cls for module in modules for cls in vars(module).values()
             if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record}
    assert found == set(_VALUES)
    assert len(found) == 18


@pytest.mark.parametrize("cls", _CLASSES, ids=_IDS)
def test_a_record_is_frozen(cls):
    record = cls(*_VALUES[cls])
    first = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, _VALUES[cls][0])
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(record, first)


@pytest.mark.parametrize("cls", _CLASSES, ids=_IDS)
def test_equal_values_give_equal_records_with_the_field_tuple_hash(cls):
    values = _VALUES[cls]
    record, same = cls(*values), cls(**dict(zip(cls._fields, values)))
    if cls in _IDENTITY:  # as a dataclass with eq=False
        assert record == record and record != same and not record == same
        assert hash(record) == object.__hash__(record)
        return
    assert record == same and not record != same
    twin = make_dataclass(cls.__name__, cls._fields, frozen=True)(*values)
    if cls in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(same) == hash(twin) == hash(values)


@pytest.mark.parametrize("cls", _CLASSES, ids=_IDS)
def test_a_record_of_another_class_with_the_same_values_is_unequal(cls):
    values = _VALUES[cls]
    other = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(cls._fields, "object")})
    record, stranger = cls(*values), other(*values)
    assert stranger._fields == record._fields
    assert record != stranger and stranger != record
    assert record != values


@pytest.mark.parametrize("cls", _CLASSES, ids=_IDS)
def test_repr_is_the_dataclass_text(cls):
    values = _VALUES[cls]
    twin = make_dataclass(cls.__name__, cls._fields, frozen=True)(*values)
    assert repr(cls(*values)) == repr(twin)


def test_repr_reads_as_the_constructor_call():
    assert repr(MetricDiag(1, 2, 3)) == "MetricDiag(A=1.0, B=2.0, C=3.0)"
    assert repr(FlowSpec(FlowDirection.POSITIVE)) == (
        "FlowSpec(direction=<FlowDirection.POSITIVE: 'positive'>, normalized=False)"
    )


@pytest.mark.parametrize("cls", _CLASSES, ids=_IDS)
def test_fields_are_in_dict_and_to_dict_order(cls):
    record = cls(*_VALUES[cls])
    n = len(cls._fields)
    # keywords in reverse order still fill the fields in declared order
    by_keyword = cls(**dict(reversed(list(zip(cls._fields, _VALUES[cls])))))
    assert list(vars(record))[:n] == list(vars(by_keyword))[:n] == list(cls._fields)
    if hasattr(cls, "to_dict"):
        assert list(record.to_dict())[:n] == list(cls._fields)


def test_defaults_are_the_class_attributes_of_the_fields():
    assert IntegratorOptions._field_defaults == {
        "t_max": 10.0, "rtol": 1e-10, "atol": 1e-13, "max_steps": 10_000_000, "samples": 2048,
    }
    assert list(Termination._field_defaults) == ["vanishing", "exploding", "trigger", "n_accepted", "n_rejected"]
    assert MetricDiag._field_defaults == {}
    assert "kind" not in LawResult._fields and LawResult("A", "blowup", 0.5, 0.02).kind == "law"
    assert IntegratorOptions(samples=4) == IntegratorOptions(10.0, 1e-10, 1e-13, 10_000_000, 4)


def test_replace_runs_post_init_again():
    m = MetricDiag(1.0, 2.0, 3.0)
    assert m._replace(B=4) == MetricDiag(1.0, 4.0, 3.0) and type(m._replace(B=4).B) is float
    with pytest.raises(ValueError, match="A=-1.0"):
        m._replace(A=-1.0)
    with pytest.raises(ValueError, match="samples"):
        IntegratorOptions()._replace(samples=1)
    assert m._replace() == m and m._replace() is not m


def test_a_replaced_step_table_starts_with_no_step_built():
    table = _StepTable(*_table_values())
    table.ready[:] = True
    table.q[:] = 1.0
    fresh = table._replace()
    assert fresh.ready.shape == (3,) and not fresh.ready.any() and not fresh.q.any()
    assert fresh.ready is not table.ready and fresh.h is table.h
    assert "ready" not in repr(fresh) and "ready" not in _StepTable._fields


@pytest.mark.parametrize(
    "make",
    [
        lambda: MetricDiag(1.0, 2.0),  # missing
        lambda: MetricDiag(1.0, 2.0, 3.0, D=4.0),  # unknown
        lambda: MetricDiag(1.0, 2.0, 3.0, 4.0),  # extra
        lambda: MetricDiag(1.0, 2.0, 3.0, A=1.0),  # repeated
        lambda: Termination(TerminationKind.REACHED_T_MAX),  # missing, with defaults after it
        lambda: MetricDiag(1.0, 2.0, 3.0)._replace(D=4.0),  # unknown
    ],
    ids=["missing", "unknown", "extra", "repeated", "missing-before-defaults", "replace-unknown"],
)
def test_a_bad_argument_list_is_a_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_a_record_of_one_field_still_has_a_field_tuple():
    one = type("One", (Record,), {"__annotations__": {"x": "int"}})
    assert repr(one(1)) == "One(x=1)" and hash(one(1)) == hash((1,))
    assert one(1) == one(x=1) != one(2) and one(1)._replace(x=2) == one(2)


@pytest.mark.parametrize("default", [[], {}, set()], ids=["list", "dict", "set"])
def test_an_unhashable_default_is_rejected(default):
    with pytest.raises(ValueError, match="unhashable default"):
        type("Bad", (Record,), {"__annotations__": {"x": "list"}, "x": default})


def test_records_of_arrays_compare_and_hash_by_identity():
    # the value comparison of two runs' arrays would raise: "truth value of an array ... is ambiguous"
    run, again = (integrator.integrate(Geometry.SOL, XCF_MINUS, MetricDiag(2.0, 4.0, 1.0)) for _ in range(2))
    parsed, reparsed = (cli.parse_trajectory_csv(cli.trajectory_csv_text(run)) for _ in range(2))
    for record, other in ((run, again), (run._table, again._table), (parsed, reparsed)):
        assert (record == other) is False and (record != other) is True
        assert record == record and record in {record}
        assert hash(record) == object.__hash__(record)
