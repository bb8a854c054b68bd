"""The bulk writers of `flow run` and `flow verify` against the per-cell text they replace.

CSV rows are formatted with one `%` format per row and JSON sample columns
by the C encoder; both must give the bytes of the per-cell writers exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcflow import Geometry, IntegratorOptions, MetricDiag, acceptance, integrate, verify
from xcflow import cli
from xcflow._record import Record
from xcflow.analysis import VerificationReport
from xcflow.cli import CSV_HEADER, ConfigError, ParsedCsv, RunConfig, emit_parsed_csv, main, parse_trajectory_csv
from xcflow.flows import FLOWS
from xcflow.integrator import Termination

_DATA = [
    (Geometry.HEISENBERG, (1.0, 2.0, 3.0)),
    (Geometry.SOL, (2.0, 4.0, 1.0)),
    (Geometry.SOL, (1.0, 8.0, 1.0)),
    (Geometry.SU2, (3.0, 2.0, 1.0)),
    (Geometry.SU2, (2.0, 2.0, 2.0)),
    (Geometry.SL2R, (1.0, 2.0, 1.0)),
    (Geometry.SL2R, (1.0, 1.0, 1.0)),
    (Geometry.E2, (2.0, 1.0, 1.0)),
    (Geometry.E2, (2.0, 2.0, 5.0)),
    (Geometry.TRIVIAL, (1.0, 2.0, 3.0)),
]
_DATA_IDS = [f"{g.value}-{','.join(f'{x:g}' for x in init)}" for g, init in _DATA]

_SUBNORMAL = 2.2250738585072014e-308 / 3
_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, _SUBNORMAL, 1.7976931348623157e308,
            -1.7976931348623157e308, 1e16, 1e-5, 0.1, 1.0 / 3.0]


# ---------------------------------------------------------------------------
# CSV: the deleted per-cell row builder as the reference


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _csv_text_reference(comment, header, columns) -> str:
    """CSV text as it was written one `format(x, ".17g")` cell at a time."""
    lines = [header] if comment is None else [comment, header]
    lines.extend(",".join(map(_g17, row)) for row in zip(*(c.tolist() for c in columns)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("geometry, init", _DATA, ids=_DATA_IDS)
def test_trajectory_csv_matches_per_cell_reference(geometry, init):
    traj = integrate(geometry, FLOWS["xcf-"], MetricDiag(*init), IntegratorOptions(t_max=10.0, samples=300))
    config = RunConfig(geometry=geometry.value, init=init)
    comment = f"# config: {cli._config_json(config)}"
    expected = _csv_text_reference(comment, CSV_HEADER, cli._sample_columns(traj).values())
    text = cli.trajectory_csv_text(traj, config)
    assert text == expected
    assert emit_parsed_csv(parse_trajectory_csv(text)) == text


def test_planted_special_cells_match_per_cell_reference():
    rng = np.random.default_rng(20071)
    columns = {name: rng.permutation(np.array(_SPECIAL * 3)) for name in CSV_HEADER.split(",")}
    expected = _csv_text_reference("# planted", CSV_HEADER, columns.values())
    text = emit_parsed_csv(ParsedCsv("# planted", columns))
    assert text == expected
    parsed = parse_trajectory_csv(text)
    for name, column in columns.items():
        assert np.array_equal(parsed.columns[name].view(np.int64), column.view(np.int64))  # -0.0 and NaN bits too
    assert emit_parsed_csv(parsed) == text


def test_row_format_matches_format_on_random_bit_patterns():
    bits = np.random.default_rng(7).integers(0, 2**64, size=20000, dtype=np.uint64, endpoint=False)
    values = np.concatenate([bits.view(np.float64), np.array(_SPECIAL)])
    columns = [values, values[::-1].copy()]
    assert cli._float_lines(columns) == [f"{_g17(a)},{_g17(b)}" for a, b in zip(*(c.tolist() for c in columns))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=5))
def test_row_format_matches_format_on_generated_floats(row):
    columns = [np.array([x]) for x in row]
    assert cli._float_lines(columns) == [",".join(map(_g17, row))]


# ---------------------------------------------------------------------------
# CSV parse cases


@pytest.mark.parametrize("comment", [None, "# config: {}"])
def test_header_only_csv_round_trips(comment):
    text = CSV_HEADER + "\n" if comment is None else f"{comment}\n{CSV_HEADER}\n"
    parsed = parse_trajectory_csv(text)
    assert parsed.comment == comment
    assert list(parsed.columns) == CSV_HEADER.split(",")
    assert all(column.dtype == np.float64 and column.shape == (0,) for column in parsed.columns.values())
    assert emit_parsed_csv(parsed) == text


def test_csv_parse_skips_blank_lines():
    row = ",".join(str(float(i)) for i in range(10))
    parsed = parse_trajectory_csv(f"{CSV_HEADER}\n\n{row}\n\n{row}\n\n")
    assert all(list(column) == [float(i)] * 2 for i, column in enumerate(parsed.columns.values()))


def test_csv_parse_rejects_wrong_field_count_on_last_row():
    good = ",".join(["1"] * 10)
    with pytest.raises(ConfigError, match="row has 9 fields, expected 10"):
        parse_trajectory_csv(f"{CSV_HEADER}\n{good}\n{good}\n{','.join(['1'] * 9)}\n")


def test_csv_parse_rejects_non_numeric_cell_with_value_error():
    with pytest.raises(ValueError, match="could not convert string to float: 'x'") as info:
        parse_trajectory_csv(f"{CSV_HEADER}\n{','.join(['1'] * 10)}\n{','.join(['1'] * 9 + ['x'])}\n")
    assert not isinstance(info.value, ConfigError)


# ---------------------------------------------------------------------------
# JSON: one writer, byte-identical to json.dumps(doc, indent=2)

_json_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(_SPECIAL)
_json_text_values = st.text() | st.sampled_from(['"quoted"', "back\\slash", "line\nbreak", "Ricci ∂ τ", "日本", "\x00\x1f"])
_json_scalars = st.none() | st.booleans() | st.integers() | _json_floats | _json_text_values
_json_documents = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=6) | st.dictionaries(_json_text_values, children, max_size=6),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_json_documents)
def test_json_text_equals_indented_dumps(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


def test_json_text_on_edge_documents():
    docs = [
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [1, [2.5, -0.0], {"k": (3, "x")}],
        (1.0, math.nan), {"n": np.float64(1.5), "v": [np.float64(2.0), 3.0]},
        {1: "int key", 2.5: "float key", None: "none key", True: "bool key"},
        {"outer": [{1: [1, 2], 2: {"x": [3]}}, np.float64(-0.0)]},
    ]
    for doc in docs:
        assert cli._json_text(doc) == json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        cli._json_text({"x": [object()]})


def _recorded_json_docs(monkeypatch):
    docs = []
    real = cli._json_text

    def recording(doc):
        docs.append(doc)
        return real(doc)

    monkeypatch.setattr(cli, "_json_text", recording)
    return docs


@pytest.mark.parametrize("flow", ["xcf-", "nxcf"])
@pytest.mark.parametrize("geometry, init", _DATA, ids=_DATA_IDS)
def test_run_json_output_equals_indented_dumps(capsys, monkeypatch, tmp_path, geometry, init, flow):
    docs = _recorded_json_docs(monkeypatch)
    target = tmp_path / "run.json"
    t_max = "1e6" if geometry is Geometry.SL2R and init == (1.0, 1.0, 1.0) else "10"
    argv = ["run", "--geometry", geometry.value, "--flow", flow, "--init", ",".join(map(repr, init)),
            "--t-max", t_max, "--samples", "512", "--format", "json", "--output", str(target)]
    assert main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert len(docs) == 1
    assert target.read_text(encoding="utf-8") == json.dumps(docs[0], indent=2) + "\n"


def test_verify_all_output_equals_indented_dumps(capsys, monkeypatch, tmp_path):
    docs = _recorded_json_docs(monkeypatch)
    target = tmp_path / "verify.json"
    assert main(["verify", "all", "--output", str(target)]) == cli.EXIT_OK
    capsys.readouterr()
    assert len(docs) == 1
    assert target.read_text(encoding="utf-8") == json.dumps(docs[0], indent=2) + "\n"


# ---------------------------------------------------------------------------
# to_dict: field by field, equal to the recursive copy `dataclasses.asdict`
# made when records were dataclasses, and sharing no mutable part with the object


def _asdict(value):
    """A record as a dict of its fields, recursively, with every list, tuple and dict copied."""
    if isinstance(value, Record):
        return {name: _asdict(getattr(value, name)) for name in value._fields}
    if isinstance(value, (list, tuple)):
        return type(value)(_asdict(item) for item in value)
    if isinstance(value, dict):
        return {_asdict(key): _asdict(item) for key, item in value.items()}
    return value


def _asdict_reference(obj) -> dict:
    if isinstance(obj, VerificationReport):
        d = _asdict(obj)
        return {**d, "passed": obj.passed, **{key: list(d[key]) for key in ("conserved", "monotone", "laws", "checks")}}
    if isinstance(obj, Termination):
        return {**_asdict(obj), "kind": obj.kind.value, "vanishing": list(obj.vanishing),
                "exploding": list(obj.exploding)}
    return _asdict(obj)


def _mutate(value) -> None:
    """Change every dict and list reachable from `value` in place."""
    if isinstance(value, dict):
        for child in value.values():
            _mutate(child)
        value["planted"] = None
    elif isinstance(value, list):
        for child in value:
            _mutate(child)
        value.append("planted")


def _assert_to_dict_is_a_fresh_asdict(obj) -> None:
    want = _asdict_reference(obj)
    got = obj.to_dict()
    assert got == want and list(got) == list(want)
    assert json.dumps(got) == json.dumps(want)
    _mutate(got)
    assert obj.to_dict() == want


def _acceptance_reports() -> list[VerificationReport]:
    runs: dict = {}
    for criterion in acceptance.ALL_CRITERIA:
        criterion(runs)
    return list(runs.values())


def test_every_to_dict_equals_asdict_and_shares_nothing():
    reports = _acceptance_reports()
    assert len(reports) == 16
    unchecked = verify(integrate(Geometry.SOL, FLOWS["xcf+"], MetricDiag(2.0, 4.0, 1.0), IntegratorOptions(t_max=1.0)))
    assert unchecked.passed is None
    singular = integrate(Geometry.SOL, FLOWS["xcf-"], MetricDiag(2.0, 4.0, 1.0), IntegratorOptions(t_max=10.0))
    assert singular.termination.vanishing or singular.termination.exploding
    objects = [*reports, unchecked, singular.termination, RunConfig(), RunConfig(geometry="sol", init=(2.0, 4.0, 1.0))]
    for report in reports:
        objects += [*report.conserved, *report.monotone, *report.laws, *report.checks]
    for obj in objects:
        _assert_to_dict_is_a_fresh_asdict(obj)
