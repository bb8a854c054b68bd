"""Command-line front end: formats, config precedence, exit codes, scan."""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcflow import (
    Geometry,
    IntegratorOptions,
    MetricDiag,
    XCF_MINUS,
    accepted_states,
    canonical_permutation,
    integrate,
    terminate,
)
from xcflow.cli import (
    CSV_HEADER,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    GRID_LIMIT,
    SCAN_HEADER,
    ConfigError,
    RunConfig,
    build_parser,
    emit_parsed_csv,
    main,
    parse_trajectory_csv,
    trajectory_csv_text,
    trajectory_json_document,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# RunConfig


def test_run_config_defaults():
    cfg = RunConfig()
    assert cfg.geometry == "heisenberg"
    assert cfg.flow == "xcf-"
    assert cfg.init == (1.0, 1.0, 1.0)
    assert (cfg.t_max, cfg.rtol, cfg.atol) == (10.0, 1e-10, 1e-13)
    assert cfg.format == "csv" and cfg.output == "-"


def test_run_and_scan_defaults_are_the_integrator_defaults():
    defaults = IntegratorOptions()
    run = RunConfig()
    scan = build_parser().parse_args(["scan", "--geometry", "sol", "--grid-A", "1", "--grid-B", "1", "--grid-C", "1"])
    for name in IntegratorOptions._fields:
        want = getattr(defaults, name)
        got = getattr(run, name)
        assert got == want and type(got) is type(want), name
        if name != "samples":  # no scan row reads samples, so scan has no --samples
            assert getattr(scan, name) == want, name
    assert not hasattr(scan, "samples")


def test_run_config_merge_and_validation():
    cfg = RunConfig.from_dict({"geometry": "sol", "init": "1,8,1", "t-max": 5})
    assert cfg.geometry == "sol"
    assert cfg.init == (1.0, 8.0, 1.0)
    assert cfg.t_max == 5.0
    assert cfg.merged({"samples": None}).samples == cfg.samples  # None means unset
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig.from_dict({"tmax": 5})
    with pytest.raises(ConfigError, match="unknown geometry"):
        RunConfig.from_dict({"geometry": "nil4"})
    with pytest.raises(ConfigError, match="unknown flow"):
        RunConfig.from_dict({"flow": "ricci"})
    with pytest.raises(ConfigError, match="unknown format"):
        RunConfig.from_dict({"format": "yaml"})
    with pytest.raises(ConfigError, match="three comma-separated"):
        RunConfig.from_dict({"init": "1,2"})
    # numbers keep their value or are refused: no truncation, no bool as a number, no list
    assert RunConfig.from_dict({"max_steps": 25.0, "samples": 16.0}).max_steps == 25
    for bad, match in _BAD_CONFIG_VALUES:
        with pytest.raises(ConfigError, match=match):
            RunConfig.from_dict(bad)


# Config values that int()/float() silently turned into other numbers, and
# values of the wrong JSON type, which raised a TypeError traceback.
_BAD_CONFIG_VALUES = (
    ({"max_steps": 25.9}, "whole number"),
    ({"max_steps": True}, "not be true or false"),
    ({"samples": 2.9}, "whole number"),
    ({"t_max": True}, "not be true or false"),
    ({"rtol": False}, "not be true or false"),
    ({"samples": float("inf")}, "whole number"),
    ({"init": [True, 2, 3]}, "numeric"),
    ({"init": 5}, "wrong type"),
    ({"samples": [1]}, "wrong type"),
)


# ---------------------------------------------------------------------------
# Trajectory serialization


@pytest.fixture(scope="module")
def short_sol_traj():
    return integrate(
        Geometry.SOL, XCF_MINUS, MetricDiag(1, 8, 1), IntegratorOptions(t_max=10.0, samples=64)
    )


def test_csv_header_is_exact(short_sol_traj):
    assert CSV_HEADER == "t,A,B,C,k23,k31,k12,h11,h22,h33"
    text = trajectory_csv_text(short_sol_traj)
    assert text.splitlines()[0] == CSV_HEADER


def test_csv_round_trip_is_byte_exact(short_sol_traj):
    text = trajectory_csv_text(short_sol_traj, RunConfig(geometry="sol", init=(1, 8, 1)))
    parsed = parse_trajectory_csv(text)
    assert parsed.comment is not None and parsed.comment.startswith("# config:")
    assert emit_parsed_csv(parsed) == text


def test_csv_values_round_trip_floats_exactly(short_sol_traj):
    parsed = parse_trajectory_csv(trajectory_csv_text(short_sol_traj))
    assert np.array_equal(parsed.columns["t"], short_sol_traj.times)
    assert np.array_equal(parsed.columns["A"], short_sol_traj.states[:, 0])
    assert np.array_equal(parsed.columns["B"], short_sol_traj.states[:, 1])


def test_csv_parser_rejects_malformed_input():
    with pytest.raises(ConfigError, match="header"):
        parse_trajectory_csv("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="fields"):
        parse_trajectory_csv(CSV_HEADER + "\n1,2,3\n")


def test_json_document_shape(sol_symmetric_run):
    doc = trajectory_json_document(sol_symmetric_run, RunConfig(geometry="sol", init=(1, 8, 1)))
    assert set(doc) == {"meta", "samples", "termination", "analysis"}
    assert doc["meta"]["geometry"] == "sol"
    assert doc["meta"]["n_samples"] == len(sol_symmetric_run.times)
    assert set(doc["samples"]) == set(CSV_HEADER.split(","))
    assert doc["termination"]["kind"] == "singular_time"
    assert doc["analysis"]["passed"] is True
    off = trajectory_json_document(
        sol_symmetric_run, RunConfig(geometry="sol", init=(1, 8, 1), analysis=False)
    )
    assert off["analysis"] is None


def test_json_analysis_of_an_unchecked_run_is_null(capsys):
    code, out, err = run_cli(
        capsys, "run", "--geometry", "sol", "--flow", "xcf+", "--init", "2,4,1", "--t-max", "1",
        "--samples", "16", "--format", "json",
    )
    assert code == EXIT_OK and "singular_time" in err
    assert '"passed": null' in out
    assert json.loads(out)["analysis"]["passed"] is None


# ---------------------------------------------------------------------------
# run subcommand


def test_run_writes_csv_to_stdout(capsys):
    code, out, err = run_cli(
        capsys, "run", "--geometry", "heisenberg", "--t-max", "1", "--samples", "8"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == CSV_HEADER
    assert len(lines) >= 8
    assert "reached_t_max" in err


def test_run_flat_fixed_point_rows_are_identical(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--geometry", "e2", "--init", "2,2,5", "--t-max", "1", "--samples", "6"
    )
    assert code == EXIT_OK
    rows = [line.split(",")[1:] for line in out.splitlines()[2:]]
    assert all(row == rows[0] for row in rows)


def test_run_reports_singular_time_on_stderr(capsys):
    code, _, err = run_cli(
        capsys, "run", "--geometry", "sol", "--init", "1,8,1", "--t-max", "10",
        "--samples", "256", "--output", "/dev/null",
    )
    assert code == EXIT_OK
    assert "singular_time" in err
    match = re.search(r"t=([0-9.eE+-]+)", err)
    assert match is not None
    assert float(match.group(1)) == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("samples", ["2", "64", "448", "512"])
@pytest.mark.parametrize("geometry, init", [("sol", "1.957,3.707,3.728"), ("su2", "3,2,1")])
def test_run_passes_generic_blowup_fits_at_any_samples(capsys, tmp_path, geometry, init, samples):
    # fit windows draw their own rows from the run's dense output, so the
    # verdict does not depend on how many rows the run emits
    out_path = tmp_path / "run.json"
    code, _, _ = run_cli(
        capsys, "run", "--geometry", geometry, "--init", init, "--t-max", "10", "--samples", samples,
        "--format", "json", "--output", str(out_path),
    )
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    assert doc["termination"]["kind"] == "singular_time"
    assert doc["analysis"]["blowup_time"] == doc["termination"]["t_stop"]
    assert doc["analysis"]["passed"] is True


def test_run_json_format_to_file(capsys, tmp_path):
    out_path = tmp_path / "run.json"
    code, _, _ = run_cli(
        capsys, "run", "--geometry", "sol", "--init", "1,8,1", "--format", "json",
        "--samples", "128", "--output", str(out_path),
    )
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    assert doc["termination"]["kind"] == "singular_time"
    assert doc["analysis"]["blowup_time"] == pytest.approx(1.0, abs=1e-5)


def test_run_invalid_inputs_exit_with_usage_code(capsys):
    code, _, err = run_cli(capsys, "run", "--init", "1,2")
    assert code == EXIT_USAGE and "error:" in err
    code, _, err = run_cli(capsys, "run", "--init", "0,1,1")
    assert code == EXIT_USAGE and "error:" in err
    code, _, err = run_cli(capsys, "run", "--t-max", "-5")
    assert code == EXIT_USAGE and "error:" in err


def _assert_one_line_usage_error(code, out, err, fragment):
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err


def test_run_unwritable_output_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, out, err = run_cli(capsys, "run", "--samples", "8", "--t-max", "0.1", "--output", str(target))
    _assert_one_line_usage_error(code, out, err, str(target))
    code, out, err = run_cli(capsys, "run", "--samples", "8", "--t-max", "0.1", "--output", str(tmp_path))
    _assert_one_line_usage_error(code, out, err, str(tmp_path))


def test_run_config_path_that_is_a_directory_is_a_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", "--config", str(tmp_path))
    _assert_one_line_usage_error(code, out, err, str(tmp_path))


def test_verify_unwritable_output_is_a_usage_error(capsys, monkeypatch, tmp_path):
    from xcflow import acceptance

    def fake_criterion(runs):
        return acceptance.CriterionResult(99, "synthetic pass", True, ("fine",))

    monkeypatch.setattr(acceptance, "criteria_for_geometry", lambda geom: [fake_criterion])
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "verify", "e2", "--output", str(target))
    assert code == EXIT_USAGE and out == ""  # the output is opened before any criterion runs
    assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err


def test_scan_unwritable_output_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "scan.csv"
    code, out, err = run_cli(
        capsys, "scan", "--geometry", "heisenberg", "--grid-A", "1", "--grid-B", "1", "--grid-C", "1",
        "--t-max", "0.1", "--output", str(target),
    )
    _assert_one_line_usage_error(code, out, err, str(target))


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["run", "--samples", "8"], "cli", "integrate"),
        (["verify", "all"], "acceptance", "run_suite"),
        (["scan", "--geometry", "sol", "--grid-A", "0.5:4.5:10", "--grid-B", "4", "--grid-C", "0.5:4.5:10"],
         "cli", "integrate"),
    ],
    ids=["run", "verify", "scan"],
)
def test_unwritable_output_fails_before_any_work(capsys, monkeypatch, tmp_path, argv, module, name):
    from xcflow import acceptance, cli

    calls = []

    def refused(*args, **kwargs):
        calls.append(args)
        raise AssertionError(f"{name} ran before --output was opened")

    monkeypatch.setattr({"cli": cli, "acceptance": acceptance}[module], name, refused)
    target = tmp_path / "no" / "such" / "dir" / "x.out"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    _assert_one_line_usage_error(code, out, err, str(target))
    assert calls == []


def test_run_step_budget_has_distinct_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "run", "--geometry", "sl2r", "--init", "1,1,1", "--t-max", "1e6",
        "--max-steps", "25", "--output", "/dev/null",
    )
    assert code == EXIT_BUDGET
    assert "step_budget_exhausted" in err
    assert EXIT_BUDGET not in (EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL)


# ---------------------------------------------------------------------------
# Config file and environment variable


def test_config_precedence_defaults_file_flags(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"geometry": "sol", "init": "1,8,1", "t_max": 5.0}))
    code, out, _ = run_cli(
        capsys, "run", "--config", str(cfg_path), "--t-max", "2", "--samples", "8"
    )
    assert code == EXIT_OK
    echoed = json.loads(out.splitlines()[0].removeprefix("# config: "))
    assert echoed["geometry"] == "sol"  # from file
    assert echoed["t_max"] == 2.0  # flag overrides file
    assert echoed["samples"] == 8
    assert echoed["init"] == [1.0, 8.0, 1.0]


def test_config_env_var_is_default_path(capsys, tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"geometry": "e2", "init": [2, 2, 5], "t_max": 1.0}))
    monkeypatch.setenv("XFLOW_CONFIG", str(cfg_path))
    code, out, _ = run_cli(capsys, "run", "--samples", "8")
    assert code == EXIT_OK
    echoed = json.loads(out.splitlines()[0].removeprefix("# config: "))
    assert echoed["geometry"] == "e2"


def test_config_file_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "--config", str(tmp_path / "missing.json"))
    assert code == EXIT_USAGE and "not found" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "run", "--config", str(bad))
    assert code == EXIT_USAGE and "not valid JSON" in err
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"tmax": 3}))
    code, _, err = run_cli(capsys, "run", "--config", str(unknown))
    assert code == EXIT_USAGE and "unknown config key" in err
    # a bool field takes only JSON true/false: the string "false" is not false
    quoted = tmp_path / "quoted.json"
    quoted.write_text(json.dumps({"analysis": "false", "format": "json"}))
    code, out, err = run_cli(capsys, "run", "--config", str(quoted))
    assert code == EXIT_USAGE and "true or false" in err and out == ""
    # int() truncated 25.9 to a budget of 25 and read true as 1, float() read true as 1.0,
    # and a list for a number or a number for init ended in a TypeError traceback
    bad_value = tmp_path / "bad_value.json"
    for bad, match in _BAD_CONFIG_VALUES:
        bad_value.write_text(json.dumps({"geometry": "sl2r", "t_max": 1e6, "format": "json", **bad}))
        code, out, err = run_cli(capsys, "run", "--config", str(bad_value))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and re.search(match, err)


def test_run_rejects_nan_tolerance(capsys):
    # NaN passed `rtol <= 0` unnoticed and gave a false singular time on Heisenberg
    code, out, err = run_cli(capsys, "run", "--geometry", "heisenberg", "--init", "1,1,1", "--rtol", "nan")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# verify subcommand


def test_verify_heisenberg_passes(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "heisenberg", "--output", str(out_path))
    assert code == EXIT_OK
    assert all(line.startswith("[PASS]") for line in out.splitlines())
    doc = json.loads(out_path.read_text())
    assert doc["suite"] == "heisenberg" and doc["passed"] is True
    assert doc["criteria"] and doc["reports"]


def test_verify_output_holds_only_this_invocations_runs(capsys, tmp_path):
    first, second = tmp_path / "su2.json", tmp_path / "e2.json"
    assert run_cli(capsys, "verify", "su2", "--output", str(first))[0] == EXIT_OK
    assert run_cli(capsys, "verify", "e2", "--output", str(second))[0] == EXIT_OK
    assert any(label.startswith("su2 xcf-") for label in json.loads(first.read_text())["reports"])
    labels = list(json.loads(second.read_text())["reports"])
    assert any(label.startswith("e2 xcf-") for label in labels)
    assert not any(label.startswith("su2 xcf-") for label in labels)
    assert all(label.startswith("e2 xcf-") or " nxcf " in label for label in labels)


def test_verify_failure_lists_criteria_and_exits_one(capsys, monkeypatch):
    from xcflow import acceptance

    def fake_criterion(runs):
        return acceptance.CriterionResult(99, "synthetic failure", False, ("boom",))

    monkeypatch.setattr(acceptance, "criteria_for_geometry", lambda geom: [fake_criterion])
    code, out, err = run_cli(capsys, "verify", "e2")
    assert code == EXIT_VERIFY_FAIL
    assert out.splitlines()[0].startswith("[FAIL]")
    assert "failing criteria: 99 (synthetic failure)" in err


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "all")  # sanity: valid choice parses
    assert code in (EXIT_OK, EXIT_VERIFY_FAIL)
    with pytest.raises(SystemExit):
        main(["verify", "nil4"])


# ---------------------------------------------------------------------------
# scan subcommand


def test_scan_sol_grid_flags_and_order(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--geometry", "sol", "--grid-A", "1:5:3", "--grid-B", "4",
        "--grid-C", "1", "--t-max", "10",
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == SCAN_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert all(r[4] == "singular_time" for r in rows)
    # A0=1: symmetric; A0=3 and A0=5 have A0 >= 3 C0, so A-3C changes sign
    assert rows[0][8] == "symmetric"
    assert rows[1][8] == "3C>A" and rows[2][8] == "3C>A"


@pytest.mark.parametrize(
    "geometry, grid, want",
    [
        ("e2", ("1:2:2", "1:2:2", "3"), [("flat", "flat"), ("generic", ""), ("generic", ""), ("flat", "flat")]),
        ("su2", ("1:2:2", "1", "1"), [("round", "round"), ("generic", "")]),
        ("sl2r", ("1", "1:2:2", "1"), [("symmetric", "symmetric"), ("generic", "entered-region")]),
        ("heisenberg", ("1", "1", "1"), [("global", "")]),
        ("trivial", ("1", "1", "1"), [("stationary", "")]),
    ],
)
def test_scan_flag_names_the_exact_branches(capsys, geometry, grid, want):
    code, out, _ = run_cli(
        capsys, "scan", "--geometry", geometry, "--grid-A", grid[0], "--grid-B", grid[1], "--grid-C", grid[2],
        "--t-max", "1",
    )
    assert code == EXIT_OK
    assert [tuple(line.split(",")[7:]) for line in out.splitlines()[1:]] == want


def test_scan_blowup_time_is_the_stop_time_at_few_samples(capsys):
    # each singular row reports its stop time as its singular time, from no samples at all
    code, out, _ = run_cli(
        capsys, "scan", "--geometry", "sol", "--grid-A", "1", "--grid-B", "8", "--grid-C", "1:2:2",
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 2 and all(r[4] == "singular_time" for r in rows)
    assert all(r[6] == r[5] for r in rows)


def test_scan_heisenberg_grid_all_complete(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--geometry", "heisenberg", "--grid-A", "1:2:2", "--grid-B", "1",
        "--grid-C", "1:2:2", "--t-max", "1",
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 4
    assert all(r[4] == "reached_t_max" for r in rows)
    assert all(r[6] == "" for r in rows)  # no singular-time estimate


def test_scan_sl2r_fixed_volume_generic_rows_singular(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--geometry", "sl2r", "--grid-A", "1", "--grid-B", "1.01:4:3:log",
        "--grid-C", "1", "--t-max", "20", "--normalize-volume", "1",
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert all(r[4] == "singular_time" for r in rows)
    assert all(r[7] == "generic" for r in rows)
    assert all(r[8] == "entered-region" for r in rows)
    # fixed volume: A0*B0*C0 == 1 for every row
    for r in rows:
        assert float(r[1]) * float(r[2]) * float(r[3]) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("volume", ["-1", "0", "nan", "inf"])
def test_scan_rejects_non_positive_or_non_finite_volume(capsys, monkeypatch, volume):
    from xcflow import cli

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before the volume was checked")

    monkeypatch.setattr(cli, "integrate", no_integration)
    monkeypatch.setattr(cli, "terminate", no_integration)
    code, out, err = run_cli(
        capsys, "scan", "--geometry", "sol", "--grid-A", "1", "--grid-B", "4", "--grid-C", "1",
        f"--normalize-volume={volume}",
    )
    assert code == EXIT_USAGE
    assert out == "" and "--normalize-volume must be finite and positive" in err


@pytest.mark.parametrize(
    "axis, spec",
    [
        ("--grid-A", "2:-1:4"),
        ("--grid-B", "0"),
        ("--grid-C", "-1"),
        ("--grid-A", "nan"),
        ("--grid-B", "inf"),
        ("--grid-C", "1:nan:3"),
    ],
)
def test_scan_checks_every_axis_value_before_integrating(capsys, monkeypatch, tmp_path, axis, spec):
    from xcflow import cli

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before every grid value was checked")

    monkeypatch.setattr(cli, "integrate", no_integration)
    monkeypatch.setattr(cli, "terminate", no_integration)
    grid = {"--grid-A": "2", "--grid-B": "4", "--grid-C": "1", axis: spec}
    target = tmp_path / "scan.csv"
    code, out, err = run_cli(
        capsys, "scan", "--geometry", "sol", *(f"{k}={v}" for k, v in grid.items()),
        "--output", str(target),
    )
    assert code == EXIT_USAGE
    assert out == "" and "must be finite and positive" in err and spec in err
    assert not target.exists()


def test_scan_non_finite_velocity_at_initial_metric_is_a_usage_error(capsys):
    # the run is scaled by 2^k for the largest coefficient, so only a spread
    # of 200 decades makes (ABC)^2 underflow at the scaled initial metric
    code, out, err = run_cli(
        capsys, "scan", "--geometry", "sol", "--grid-A", "1e-200", "--grid-B", "1",
        "--grid-C", "1e-200",
    )
    assert code == EXIT_USAGE
    assert out == SCAN_HEADER + "\n"  # rows are streamed, so the header precedes the first point
    assert err == "error: flow right-hand side is not finite at the initial metric\n"


def test_scan_is_deterministic_across_worker_counts(capsys):
    argv = [
        "scan", "--geometry", "su2", "--grid-A", "1:3:3", "--grid-B", "2", "--grid-C", "1",
        "--t-max", "10",
    ]
    code, serial, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    code, parallel, _ = run_cli(capsys, *argv, "--workers", "2")
    assert code == EXIT_OK
    assert parallel == serial


def test_scan_rejects_oversized_grid(capsys):
    code, _, err = run_cli(
        capsys, "scan", "--geometry", "sol", "--grid-A", "1:2:101", "--grid-B", "1:2:101",
        "--grid-C", "1:2:101",
    )
    assert code == EXIT_USAGE
    assert "limit is 1000000" in err


@pytest.mark.parametrize("spec", ["1:2:1000001", f"1:2:{10**12}:log"])
def test_scan_rejects_an_oversized_axis_before_building_it(capsys, monkeypatch, spec):
    from xcflow import cli

    def no_axis(*args, **kwargs):
        raise AssertionError("built a grid axis before checking its size")

    monkeypatch.setattr(cli.np, "linspace", no_axis)
    monkeypatch.setattr(cli.np, "geomspace", no_axis)
    code, out, err = run_cli(capsys, "scan", "--geometry", "sol", "--grid-A", spec, "--grid-B", "4", "--grid-C", "1")
    _assert_one_line_usage_error(code, out, err, f"the limit is {GRID_LIMIT}")
    assert spec in err


def test_scan_rejects_bad_axis(capsys):
    code, _, err = run_cli(
        capsys, "scan", "--geometry", "sol", "--grid-A", "1:2", "--grid-B", "1", "--grid-C", "1"
    )
    assert code == EXIT_USAGE and "bad grid axis" in err
    code, _, err = run_cli(
        capsys, "scan", "--geometry", "sol", "--grid-A=-1:2:4:log", "--grid-B", "1",
        "--grid-C", "1",
    )
    assert code == EXIT_USAGE and "holds -1.0; values must be finite and positive" in err


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ("1:2:1.5", "grid axis '1:2:1.5': the count must be a whole number, got '1.5'"),
        ("1:2:3:lin", "bad grid axis suffix 'lin'; only 'log' is understood"),
        ("1:2:0", "grid axis count must be at least 1"),
        ("x", "grid axis 'x' holds 'x', which is not a number"),
    ],
)
def test_scan_names_a_bad_axis_count_suffix_or_value(capsys, spec, fragment):
    code, out, err = run_cli(capsys, "scan", "--geometry", "sol", f"--grid-A={spec}", "--grid-B", "4", "--grid-C", "1")
    _assert_one_line_usage_error(code, out, err, fragment)


def test_scan_axis_of_one_point_is_its_min(capsys):
    code, out, err = run_cli(capsys, "scan", "--geometry", "sol", "--grid-A", "1:2:1", "--grid-B", "4", "--grid-C", "1")
    assert (code, err) == (EXIT_OK, "")
    header, *rows = out.splitlines()
    assert header == SCAN_HEADER
    assert [row.split(",")[:4] for row in rows] == [["0", "1", "4", "1"]]


def test_scan_rejects_zero_workers(capsys):
    code, out, err = run_cli(capsys, "scan", "--geometry", "sol", "--grid-A", "1", "--grid-B", "4", "--grid-C", "1",
                             "--workers", "0")
    _assert_one_line_usage_error(code, out, err, "--workers must be at least 1")


def test_config_file_holding_an_array_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "array.json"
    path.write_text(json.dumps([{"geometry": "sol"}]))
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    _assert_one_line_usage_error(code, out, err, f"config file {path} must hold a JSON object")


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ("1:inf:2", "holds inf; values must be finite and positive"),
        ("-1e308:1e308:3", "holds -1e+308; values must be finite and positive"),
        ("1:2:x", "the count must be a whole number, got 'x'"),
        ("1:2:2.5", "the count must be a whole number, got '2.5'"),
        ("x:2:3", "holds 'x', which is not a number"),
        ("y", "holds 'y', which is not a number"),
    ],
)
def test_a_bad_axis_number_is_one_error_line_in_the_clis_words(spec, fragment):
    # a fresh interpreter, so that stderr shows any numpy warning as a user would see it
    done = subprocess.run(
        [sys.executable, "-m", "xcflow.cli", "scan", "--geometry", "sol", f"--grid-A={spec}", "--grid-B", "4",
         "--grid-C", "1"],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    _assert_one_line_usage_error(done.returncode, done.stdout, done.stderr, fragment)
    assert done.stderr.startswith(f"error: grid axis {spec!r}"), done.stderr


@pytest.mark.parametrize(
    "option", [("--atol", "0"), ("--rtol", "0"), ("--t-max", "inf"), ("--rtol", "nan")]
)
def test_scan_rejects_bad_integrator_options_before_starting_workers(capsys, monkeypatch, tmp_path, option):
    from xcflow import cli

    def not_called(*args, **kwargs):
        raise AssertionError("started work before the integrator options were checked")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", not_called)
    monkeypatch.setattr(cli, "integrate", not_called)
    monkeypatch.setattr(cli, "terminate", not_called)
    target = tmp_path / "scan.csv"
    code, out, err = run_cli(
        capsys, "scan", "--geometry", "sol", "--grid-A", "1:2:2", "--grid-B", "4", "--grid-C", "1",
        "--workers", "2", *option, "--output", str(target),
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


# ---------------------------------------------------------------------------
# Sample columns against the row-by-row evaluation


def _row_values_reference(geometry, t, state):
    """One output row as the CSV and JSON writers built it before they worked on columns."""
    from xcflow import cross_curvature_diag, sectional_curvatures

    m = MetricDiag(*state)
    k = sectional_curvatures(geometry, m)
    h = cross_curvature_diag(geometry, m)
    return [t, m.A, m.B, m.C, k.k23, k.k31, k.k12, h.h11, h.h22, h.h33]


def _assert_same_bits(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    assert np.array_equal(got, expected)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))  # signed zeros count


@pytest.mark.parametrize(
    "geometry, init",
    [
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
    ],
    ids=lambda v: v.value if isinstance(v, Geometry) else ",".join(f"{x:g}" for x in v),
)
@pytest.mark.parametrize("flow", ["xcf-", "nxcf"])
def test_sample_columns_match_row_by_row_evaluation(geometry, init, flow):
    from xcflow.flows import FLOWS

    traj = integrate(geometry, FLOWS[flow], MetricDiag(*init), IntegratorOptions(t_max=10.0, samples=200))
    rows = [
        _row_values_reference(traj.geometry, float(t), state) for t, state in zip(traj.times, traj.states)
    ]
    expected = dict(zip(CSV_HEADER.split(","), zip(*rows)))
    csv_columns = parse_trajectory_csv(trajectory_csv_text(traj)).columns
    samples = trajectory_json_document(traj, RunConfig(analysis=False))["samples"]
    assert list(csv_columns) == list(samples) == list(expected)
    for name, column in expected.items():
        _assert_same_bits(csv_columns[name], column)
        _assert_same_bits(samples[name], column)


# ---------------------------------------------------------------------------
# scan rows read only the states they need


def _scan_cells_at_full_samples(payload):
    """The cells after C0 of one scan row, from the canonical datum integrated at the full sample count."""
    from xcflow import cli

    geometry, spec, a, b, c, options, volume = payload
    point = (a, b, c)
    m0 = MetricDiag(*(point[i] for i in canonical_permutation(geometry, MetricDiag(*point))))
    if volume is not None:
        m0 = m0.scaled((volume / (m0.A * m0.B * m0.C)) ** (1.0 / 3.0))
    traj = integrate(geometry, spec, m0, options)
    term = traj.termination
    blowup = "%.17g" % term.t_stop if term.kind.value == "singular_time" else ""
    branch = cli.classify_branch(geometry, m0)
    return [term.kind.value, "%.17g" % term.t_stop, blowup, branch, cli._scan_flag(geometry, traj.states, branch)]


# every branch of every geometry, with rows that end on t_max, step_underflow and max_steps
_SCAN_CASES = [
    ("sol", "xcf-", (2.0, 4.0, 1.0), {}, "generic", "step_underflow"),
    ("sol", "xcf-", (1.0, 4.0, 3.0), {}, "generic", "step_underflow"),
    ("sol", "xcf+", (0.442, 4.042, 1.1675), {}, "generic", "step_underflow"),
    ("sol", "xcf-", (1.893, 4.042, 1.1675), {"t_max": 0.05}, "generic", "t_max"),
    ("sol", "xcf-", (3.0, 4.0, 1.0), {"max_steps": 25}, "generic", "max_steps"),
    ("sol", "xcf-", (1.0, 8.0, 1.0), {}, "symmetric", "step_underflow"),
    ("sl2r", "xcf-", (1.0, 2.0, 1.0), {}, "generic", "step_underflow"),
    ("sl2r", "xcf+", (0.516, 0.819, 2.165), {}, "generic", "step_underflow"),
    ("sl2r", "xcf-", (1.0, 2.0, 1.0), {"max_steps": 60}, "generic", "max_steps"),
    ("sl2r", "xcf-", (1.0, 1.0, 1.0), {"t_max": 100.0}, "symmetric", "t_max"),
    ("su2", "xcf-", (2.0, 2.0, 2.0), {}, "round", "step_underflow"),
    ("su2", "xcf-", (3.0, 2.0, 1.0), {}, "generic", "step_underflow"),
    ("su2", "nxcf", (1.0, 2.0, 0.5), {"t_max": 5.0}, "generic", "t_max"),
    ("e2", "xcf-", (2.0, 2.0, 5.0), {}, "flat", "t_max"),
    ("e2", "xcf-", (2.0, 1.0, 1.0), {"t_max": 1e4}, "generic", "t_max"),
    ("heisenberg", "xcf-", (1.0, 2.0, 3.0), {}, "global", "t_max"),
    ("heisenberg", "xcf-", (1.0, 2.0, 3.0), {"max_steps": 20}, "global", "max_steps"),
    ("trivial", "xcf-", (1.0, 2.0, 3.0), {}, "stationary", "t_max"),
    # generic SL(2,R) rows that reach t_max under every flow: the last row comes from the last step alone
    ("sl2r", "xcf-", (1.0, 2.0, 1.5), {"t_max": 1e-3}, "generic", "t_max"),
    ("sl2r", "xcf+", (0.7, 3.0, 0.9), {"t_max": 2e-3}, "generic", "t_max"),
    ("sl2r", "nxcf", (1.0, 2.0, 1.5), {"t_max": 1e-3}, "generic", "t_max"),
    # leaves the trapping region inside the step that crosses t_max: its flag needs the row at t_max
    ("sl2r", "nxcf+", (4.461339964845096, 7.585750891443878, 2.5817376032949135), {"t_max": 0.29936595899534013},
     "generic", "t_max"),
]


@pytest.mark.parametrize("samples", [64, 512])
@pytest.mark.parametrize(
    "geometry, flow, init, opts, branch, trigger", _SCAN_CASES,
    ids=[f"{c[0]}-{c[1]}-{c[4]}-{c[5]}-{i}" for i, c in enumerate(_SCAN_CASES)],
)
def test_scan_point_cells_equal_cells_from_the_full_sample_path(
    monkeypatch, geometry, flow, init, opts, branch, trigger, samples
):
    from xcflow import cli
    from xcflow.flows import FLOWS

    options = IntegratorOptions(samples=samples, **opts)
    payload = (Geometry.from_name(geometry), FLOWS[flow], *init, options, None)
    asked = []

    def recording_integrate(geometry, spec, m0, options):
        traj = integrate(geometry, spec, m0, options)
        asked.append((options.samples, traj.termination.trigger))
        return traj

    monkeypatch.setattr(cli, "integrate", recording_integrate)
    cells = cli._scan_point(payload)
    assert cells == _scan_cells_at_full_samples(payload)
    assert cells[3] == branch
    # generic Sol rows read the last of two samples; generic SL(2,R) rows read the stepper's
    # accepted states, with the row at t_max from `accepted_states` itself; every other row
    # reads only its termination, from the bare stepper
    if branch == "generic" and geometry == "sol":
        assert asked == [(2, trigger)]
    else:
        assert asked == []


@pytest.mark.parametrize(
    "geometry, flow, init, opts, branch, trigger", _SCAN_CASES,
    ids=[f"{c[0]}-{c[1]}-{c[4]}-{c[5]}-{i}" for i, c in enumerate(_SCAN_CASES)],
)
def test_accepted_states_are_the_step_starts_then_the_last_state_or_the_t_max_row(
    geometry, flow, init, opts, branch, trigger
):
    from xcflow.flows import FLOWS

    geom, spec, m0 = Geometry.from_name(geometry), FLOWS[flow], MetricDiag(*init)
    options = IntegratorOptions(samples=2, **opts)
    term, states = accepted_states(geom, spec, m0, options)
    assert term == terminate(geom, spec, m0, options) and term.trigger == trigger
    assert states[0].tobytes() == np.array(init).tobytes()
    # the start state of every step of integrate's table, each before t_max, then the last
    # accepted state, or on a run that reached t_max, whose last state lies past it, the row at t_max
    trajectory = integrate(geom, spec, m0, options)
    table = trajectory._table
    n = len(table.t0)
    assert states[:n].tobytes() == np.ldexp(table.y, table.k).tobytes()
    assert len(states) == n + 1
    assert np.ldexp(table.t0[-1], 2 * table.k) < options.t_max
    if trigger == "t_max":
        assert states[-1].tobytes() == trajectory.states[-1].tobytes()
    # at 2^j m0 and 4^j t_max the rows are 2^j times these, bit for bit
    for j in (-3, 5):
        scaled = options._replace(t_max=options.t_max * 4.0**j)
        term_j, states_j = accepted_states(geom, spec, MetricDiag(*np.ldexp(init, j)), scaled)
        assert states_j.tobytes() == np.ldexp(states, j).tobytes()
        assert (term_j.kind, term_j.t_stop, term_j.n_accepted) == (term.kind, term.t_stop * 4.0**j, term.n_accepted)


@pytest.mark.parametrize(
    "geometry, grid, tables, rows",
    [
        # rows that read only their termination: no step table, no dense output
        ("sol", ("2", "1:4:3", "2"), 0, []),  # the A = C diagonal: symmetric
        ("sl2r", ("1:3:3", "2", "2"), 0, []),  # B = C: symmetric
        ("su2", ("1:2:2", "1:2:2", "1:2:2"), 0, []),  # round and generic
        # a generic Sol row reads its last sample, a generic SL(2,R) row the accepted states
        ("sol", ("2", "4", "1"), 1, [2]),
        ("sl2r", ("1", "2", "1"), 0, []),
    ],
)
def test_scan_builds_a_step_table_only_for_rows_that_read_samples(capsys, monkeypatch, geometry, grid, tables, rows):
    # counts, not timings: the calls of `integrator._step_table` and the rows `_StepTable.eval` evaluates
    from xcflow import integrator

    built, evaluated = [], []
    real_step_table, real_eval = integrator._step_table, integrator._StepTable.eval

    def counting_step_table(*args):
        built.append(1)
        return real_step_table(*args)

    def counting_eval(table, t):
        evaluated.append(len(t))
        return real_eval(table, t)

    monkeypatch.setattr(integrator, "_step_table", counting_step_table)
    monkeypatch.setattr(integrator._StepTable, "eval", counting_eval)
    code, out, err = run_cli(capsys, "scan", "--geometry", geometry, "--grid-A", grid[0], "--grid-B", grid[1],
                             "--grid-C", grid[2])
    assert (code, err) == (EXIT_OK, "")
    assert (len(built), evaluated) == (tables, rows)


def test_scan_point_with_volume_normalization_matches_the_full_sample_path():
    from xcflow import cli
    from xcflow.flows import FLOWS

    for geometry, init in (("sol", (2.0, 4.0, 1.0)), ("sl2r", (1.0, 2.0, 1.0)), ("su2", (3.0, 2.0, 1.0))):
        payload = (Geometry.from_name(geometry), FLOWS["xcf-"], *init, IntegratorOptions(samples=512), 2.5)
        assert cli._scan_point(payload) == _scan_cells_at_full_samples(payload)


@pytest.mark.parametrize(
    "geometry, grid",
    [
        ("sol", ("0.5:3:4", "4", "0.5:3:4")),
        ("sl2r", ("1:3:3", "2", "2")),  # B = C: every row symmetric
        ("su2", ("1:2:2", "1:2:2", "1:2:2")),
        ("e2", ("1:2:2", "1:2:2", "3")),
        ("heisenberg", ("1:2:2", "1", "1:3:2")),
        ("trivial", ("1", "1:2:2", "1")),
        ("sl2r", ("1", "0.5:2:4", "0.5:2:4")),  # generic and symmetric rows
    ],
)
def test_scan_point_cells_do_not_depend_on_samples(geometry, grid):
    from xcflow import cli
    from xcflow.flows import FLOWS

    geom = Geometry.from_name(geometry)
    axes = [cli._parse_axis(text).tolist() for text in grid]
    for flow, point in product(("xcf-", "nxcf+"), product(*axes)):
        rows = [cli._scan_point((geom, FLOWS[flow], *point, IntegratorOptions(t_max=5.0, samples=samples), None))
                for samples in (2, 512)]
        assert rows[0] == rows[1], (flow, point)


def test_generic_sl2r_scan_flags_equal_the_flags_of_512_samples():
    # seeded generic SL(2,R) data on every flow, t_max log-uniform in [1e-3, 3], so that runs stop at
    # t_max as well as at their singular time
    from xcflow import cli
    from xcflow.flows import FLOWS

    rng = random.Random("scan/sl2r/accepted-states")
    triggers = Counter()
    for i in range(100):
        flow = list(FLOWS)[i % len(FLOWS)]
        b, c = sorted((rng.uniform(0.2, 8.0), rng.uniform(0.2, 8.0)), reverse=True)
        datum = (rng.uniform(0.2, 8.0), b, c)
        options = IntegratorOptions(t_max=10.0 ** rng.uniform(-3.0, math.log10(3.0)), samples=512)
        payload = (Geometry.SL2R, FLOWS[flow], *datum, options, None)
        cells = cli._scan_point(payload)
        assert cells[3] == "generic"
        assert cells == _scan_cells_at_full_samples(payload), (flow, datum, options.t_max)
        triggers[cells[0]] += 1
    assert triggers["reached_t_max"] >= 10 and triggers["singular_time"] >= 10


def test_commands_import_neither_the_process_pool_nor_numpy_ma_nor_numpy_random():
    # a fresh interpreter, since pytest and earlier tests may have imported these modules already
    child = textwrap.dedent(
        """
        import contextlib, io, sys
        from xcflow import cli
        # records are no dataclasses: generating their methods cost most of the package's import
        loaded = [m for m in ("concurrent.futures.process", "multiprocessing", "numpy.random", "dataclasses")
                  if m in sys.modules]
        assert loaded == [], loaded
        commands = [
            ["scan", "--geometry", "sol", "--grid-A", "1:2:2", "--grid-B", "4", "--grid-C", "1:2:2",
             "--workers", "1"],
            ["scan", "--geometry", "sl2r", "--grid-A", "1", "--grid-B", "1:2:2", "--grid-C", "1:2:2",
             "--workers", "1"],
            ["run", "--geometry", "sol", "--init", "2,4,1", "--samples", "512", "--format", "json"],
            ["verify", "sol"],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0, argv
        # scipy is no dependency: importing it would cost more than a command's whole start-up
        loaded = [m for m in ("numpy.ma", "concurrent.futures.process", "multiprocessing", "scipy", "dataclasses")
                  if m in sys.modules]
        assert loaded == [], loaded
        # `verify sol` runs criteria 10 and 11, whose draws need no numpy.random (nor its secrets import)
        loaded = [m for m in ("numpy.random", "secrets") if m in sys.modules]
        assert loaded == [], loaded
        """
    )
    done = subprocess.run([sys.executable, "-c", child], env=_child_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


def _child_env(**extra: str) -> dict:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path, **extra}


def test_verify_all_gives_the_same_bytes_under_any_hash_seed(tmp_path):
    outputs = []
    for hash_seed in ("1", "2"):
        report = tmp_path / f"verify-{hash_seed}.json"
        done = subprocess.run(
            [sys.executable, "-m", "xcflow.cli", "verify", "all", "--output", str(report)],
            env=_child_env(PYTHONHASHSEED=hash_seed), capture_output=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        outputs.append((done.stdout, report.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"[PASS]") == 11


# ---------------------------------------------------------------------------
# scan step budget


def test_scan_point_that_spends_its_budget_gets_a_budget_row(capsys):
    # Sol (1,4,1) and (2,4,1) reach their singular time in 36 and 55 step
    # attempts, (3,4,1) needs 58: a budget of 56 stops only the last point,
    # before its last step that advances t.
    argv = ["scan", "--geometry", "sol", "--grid-A", "1:3:3", "--grid-B", "4", "--grid-C", "1",
            "--max-steps", "56"]
    code, serial, err = run_cli(capsys, *argv)
    assert code == EXIT_OK and err == ""
    rows = [line.split(",") for line in serial.splitlines()[1:]]
    assert [row[4] for row in rows] == ["singular_time", "singular_time", "step_budget_exhausted"]
    assert rows[0][6] != "" and rows[1][6] != "" and rows[2][6] == ""
    code, parallel, _ = run_cli(capsys, *argv, "--workers", "2")
    assert code == EXIT_OK
    assert parallel == serial
    code, unbudgeted, _ = run_cli(capsys, *argv[:-2])
    assert unbudgeted.splitlines()[:3] == serial.splitlines()[:3]
    last = unbudgeted.splitlines()[3].split(",")
    assert last[4] == "singular_time" and float(rows[2][5]) < float(last[5])


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_scan_rejects_a_budget_below_one_before_starting_work(capsys, monkeypatch, budget):
    from xcflow import cli

    def not_called(*args, **kwargs):
        raise AssertionError("started work before the step budget was checked")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", not_called)
    monkeypatch.setattr(cli, "integrate", not_called)
    monkeypatch.setattr(cli, "terminate", not_called)
    code, out, err = run_cli(
        capsys, "scan", "--geometry", "sol", "--grid-A", "1:2:2", "--grid-B", "4", "--grid-C", "1",
        "--workers", "2", "--max-steps", budget,
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: max_steps must be at least 1\n"


# ---------------------------------------------------------------------------
# scan rows are streamed


_STREAM_ARGV = ("scan", "--geometry", "sol", "--grid-A", "1:3:4", "--grid-B", "4", "--grid-C", "1:2:2")


def test_streamed_scan_file_is_byte_identical_across_worker_counts(capsys, tmp_path):
    texts = []
    for workers in ("1", "2"):
        path = tmp_path / f"scan{workers}.csv"
        code, out, err = run_cli(capsys, *_STREAM_ARGV, "--workers", workers, "--output", str(path))
        assert (code, out, err) == (EXIT_OK, "", "")
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]
    lines = texts[0].decode().splitlines()
    assert lines[0] == SCAN_HEADER and [line.split(",")[0] for line in lines[1:]] == [str(i) for i in range(8)]


def test_scan_that_fails_at_a_point_leaves_the_rows_before_it(capsys, monkeypatch, tmp_path):
    from xcflow import cli

    calls = []

    def failing(run):  # rows that read only their termination call `terminate`, the others `integrate`
        def run_or_fail(*args):
            calls.append(1)
            if len(calls) == 6:  # grid point 5
                raise ValueError("planted failure at point 5")
            return run(*args)

        return run_or_fail

    monkeypatch.setattr(cli, "integrate", failing(cli.integrate))
    monkeypatch.setattr(cli, "terminate", failing(cli.terminate))
    path = tmp_path / "scan.csv"
    code, out, err = run_cli(capsys, *_STREAM_ARGV, "--output", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err == "error: planted failure at point 5\n"
    lines = path.read_text().splitlines()
    assert lines[0] == SCAN_HEADER and len(lines) == 6
    for index, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert len(cells) == len(SCAN_HEADER.split(",")) and cells[0] == str(index)
        assert cells[4] == "singular_time"


@pytest.mark.parametrize(
    "cpus, axis, started",
    [(None, "1:2:2", []), (1, "1:2:2", []), (64, "1:2:2", [(2, 1)]), (2, "1:3:40", [(2, 5)])],
)
def test_scan_starts_no_more_workers_than_points_or_processors(capsys, monkeypatch, cpus, axis, started):
    # a stand-in pool records (max_workers, chunksize) and maps in this process
    from xcflow import cli

    argv = ("scan", "--geometry", "sol", "--grid-A", axis, "--grid-B", "4", "--grid-C", "1")
    code, serial, err = run_cli(capsys, *argv, "--workers", "1")
    assert (code, err) == (EXIT_OK, "")
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            pools.append((self.max_workers, chunksize))
            return map(fn, iterable)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)  # a platform without affinity masks
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert run_cli(capsys, *argv, "--workers", "100000") == (EXIT_OK, serial, "")
    assert pools == started


def test_scan_starts_no_workers_beyond_the_processors_it_may_run_on(capsys, monkeypatch):
    # one processor in the affinity mask of a 64-processor host: the scan runs in this process
    from xcflow import cli

    argv = ("scan", "--geometry", "sol", "--grid-A", "1:2:2", "--grid-B", "4", "--grid-C", "1:3:3")
    code, serial, err = run_cli(capsys, *argv, "--workers", "1")
    assert (code, err) == (EXIT_OK, "")

    def no_pool(max_workers):
        raise AssertionError(f"started a pool of {max_workers}")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert run_cli(capsys, *argv, "--workers", "4") == (EXIT_OK, serial, "")


# ---------------------------------------------------------------------------
# scan integrates each canonical datum once


_TWIN_GRIDS = [
    ("sol", ("0.5:3:4", "4.1", "0.5:3:4")),  # every twin present; A*B*C and C*B*A round apart
    ("sol", ("1:3:3", "4", "2:3:2")),  # (3,4,2) and (2,4,3) twins; (1,4,2) has none
    ("sol", ("2:2:3", "4", "1:3:3")),  # duplicate A values
    ("sl2r", ("1", "0.5:2:4", "0.5:2:4")),
    ("sl2r", ("1", "1:2:2", "1.5:2.5:3")),  # no mirrored row has its twin
    ("sl2r", ("1:1:2", "1:2:2", "1:2:2")),
    ("e2", ("1:2:3", "1:2:3", "2")),
    ("e2", ("1:2:2", "1.5:2:2", "2:2:2")),
    ("su2", ("1:2:2", "2:1:2", "1:1:2")),  # every ordering of a datum shares its run on SU(2)
    ("heisenberg", ("1:2:2", "2:2:2", "1:2:2")),  # no relabeling on Heisenberg and TRIVIAL
    ("trivial", ("1", "1:2:2", "3:3:2")),
]


@pytest.mark.parametrize("volume", [None, 2.5])
@pytest.mark.parametrize("geometry, grid", _TWIN_GRIDS, ids=[f"{g}-{'x'.join(a)}" for g, a in _TWIN_GRIDS])
def test_scan_rows_of_a_datum_and_its_twins_are_the_canonical_run(capsys, monkeypatch, geometry, grid, volume):
    from xcflow import cli

    memos = []
    writer = cli._write_scan_rows

    def keeping_writer(out, points, cells, volume, memo):
        memos.append(memo)
        writer(out, points, cells, volume, memo)

    monkeypatch.setattr(cli, "_write_scan_rows", keeping_writer)
    argv = ["scan", "--geometry", geometry, "--grid-A", grid[0], "--grid-B", grid[1], "--grid-C", grid[2],
            "--t-max", "5"]
    if volume is not None:
        argv += ["--normalize-volume", str(volume)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert memos == [{}]  # every datum's points were counted right, so its entry left with its last row
    axes = [cli._parse_axis(text).tolist() for text in grid]
    points = [(a, b, c) for a in axes[0] for b in axes[1] for c in axes[2]]
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == [str(i) for i in range(len(points))]
    geom = Geometry.from_name(geometry)
    by_datum = {}
    for point, row in zip(points, rows):
        datum = tuple(point[i] for i in canonical_permutation(geom, MetricDiag(*point)))
        if geometry in ("heisenberg", "trivial"):
            assert datum == point
        # A0,B0,C0 are the point's own, scaled by the factor of its canonical datum
        factor = 1.0 if volume is None else (volume / (datum[0] * datum[1] * datum[2])) ** (1.0 / 3.0)
        assert row[1:4] == ["%.17g" % (factor * x) for x in point]
        # every row carries the cells of its canonical datum, byte for byte
        by_datum.setdefault(datum, []).append(row[4:])
    options = IntegratorOptions(t_max=5.0, samples=64)
    for datum, cells in by_datum.items():
        want = _scan_cells_at_full_samples((geom, XCF_MINUS, *datum, options, volume))
        assert cells == [want] * len(cells), datum


def test_scan_with_shared_twins_is_byte_identical_across_worker_counts(capsys, tmp_path):
    texts = []
    for workers in ("1", "2"):
        path = tmp_path / f"scan{workers}.csv"
        code, out, err = run_cli(
            capsys, "scan", "--geometry", "sol", "--grid-A", "0.5:3:4", "--grid-B", "4", "--grid-C", "0.5:3:4",
            "--normalize-volume", "2.5", "--workers", workers, "--output", str(path),
        )
        assert (code, out, err) == (EXIT_OK, "", "")
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]


def test_readme_scan_grid_integrates_each_canonical_datum_once(capsys, monkeypatch):
    from xcflow import cli

    data = []

    def recording(run):  # the symmetric rows call `terminate`, the generic ones `integrate`
        def recorded_run(geometry, spec, m0, options):
            data.append(m0.as_tuple())
            return run(geometry, spec, m0, options)

        return recorded_run

    monkeypatch.setattr(cli, "integrate", recording(cli.integrate))
    monkeypatch.setattr(cli, "terminate", recording(cli.terminate))
    code, out, err = run_cli(capsys, "scan", "--geometry", "sol", "--grid-A", "0.5:4.5:9", "--grid-B", "4",
                             "--grid-C", "0.5:4.5:9", "--t-max", "10")
    assert (code, err) == (EXIT_OK, "")
    assert len(out.splitlines()) == 1 + 81
    assert len(data) == len(set(data)) == 45
    assert all(a >= c for a, _, c in data)


def test_su2_scan_integrates_each_sorted_datum_once(capsys, monkeypatch, tmp_path):
    # SU(2) is symmetric under every permutation: the 125 points of a 5x5x5 grid are 35 sorted data
    from xcflow import cli

    data, memos = [], []

    def recorded_terminate(geometry, spec, m0, options):
        data.append(m0.as_tuple())
        return terminate(geometry, spec, m0, options)

    def refused(*args):
        raise AssertionError("an SU(2) row reads no states")

    writer = cli._write_scan_rows

    def keeping_writer(out, points, cells, volume, memo):
        memos.append(memo)
        writer(out, points, cells, volume, memo)

    monkeypatch.setattr(cli, "terminate", recorded_terminate)
    monkeypatch.setattr(cli, "integrate", refused)
    monkeypatch.setattr(cli, "accepted_states", refused)
    monkeypatch.setattr(cli, "_write_scan_rows", keeping_writer)
    grid = ["--grid-A", "0.5:3:5", "--grid-B", "0.5:3:5", "--grid-C", "0.5:3:5", "--t-max", "5"]
    code, out, err = run_cli(capsys, "scan", "--geometry", "su2", *grid)
    assert (code, err) == (EXIT_OK, "")
    assert memos == [{}]
    assert len(data) == len(set(data)) == 35 and all(a >= b >= c for a, b, c in data)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 125
    options = IntegratorOptions(t_max=5.0, samples=64)
    cells = {datum: _scan_cells_at_full_samples((Geometry.SU2, XCF_MINUS, *datum, options, None)) for datum in data}
    for row in rows:
        assert row[4:] == cells[tuple(sorted(map(float, row[1:4]), reverse=True))], row
    monkeypatch.undo()
    path = tmp_path / "scan.csv"
    code, out2, err = run_cli(capsys, "scan", "--geometry", "su2", *grid, "--workers", "2", "--output", str(path))
    assert (code, out2, err) == (EXIT_OK, "", "")
    assert path.read_text() == out


_SMALL_AXIS = st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=4)  # repeats within and across axes


@settings(max_examples=300, deadline=None)
@given(geometry=st.sampled_from(list(Geometry)), axes=st.tuples(_SMALL_AXIS, _SMALL_AXIS, _SMALL_AXIS))
def test_occurrences_count_the_grid_points_that_relabel_to_the_datum(geometry, axes):
    from xcflow import cli

    brute = Counter(cli._canonical(geometry, point) for point in product(*axes))
    counts = [Counter(axis) for axis in axes]
    assert {datum: cli._occurrences(geometry, datum, counts) for datum in brute} == brute


def test_occurrences_read_the_symmetric_axes_and_relabel_nothing(monkeypatch):
    from xcflow import cli

    axes = [[1.0, 2.0, 2.0], [1.0, 2.0], [2.0, 1.0, 3.0]]
    counts = [Counter(axis) for axis in axes]
    data = {geometry: {cli._canonical(geometry, point) for point in product(*axes)} for geometry in Geometry}
    calls = []

    def counting(geometry, m0):
        calls.append(geometry)
        return canonical_permutation(geometry, m0)

    monkeypatch.setattr(cli, "canonical_permutation", counting)
    for geometry, datums in data.items():
        for datum in datums:
            assert cli._occurrences(geometry, datum, counts) > 0
    assert calls == []


class _RecordingMemo(dict):
    """A scan memo that records its size after every insertion."""

    def __init__(self):
        super().__init__()
        self.sizes = [0]

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.sizes.append(len(self))


def test_scan_memo_holds_only_open_twins(capsys, monkeypatch, tmp_path):
    # a stand-in point function names its canonical datum, so each row shows whose cells it got
    from xcflow import cli

    calls = []

    def naming_point(payload):
        datum = cli._canonical(payload[0], payload[2:5])
        calls.append(datum)
        return ["%r" % x for x in datum]

    memos = []
    writer = cli._write_scan_rows

    def recording_writer(out, points, cells, volume, memo):
        memos.append(_RecordingMemo())
        writer(out, points, cells, volume, memos[-1])

    monkeypatch.setattr(cli, "_scan_point", naming_point)
    monkeypatch.setattr(cli, "_write_scan_rows", recording_writer)
    n = 200
    path = tmp_path / "scan.csv"
    code, out, err = run_cli(capsys, "scan", "--geometry", "sol", "--grid-A", f"1:2:{n}", "--grid-B", "4",
                             "--grid-C", f"1:2:{n}", "--output", str(path))
    assert (code, out, err) == (EXIT_OK, "", "")
    assert len(calls) == len(set(calls)) == n * (n + 1) // 2
    [memo] = memos
    assert 0 < max(memo.sizes) <= n * n // 4
    assert len(memo) == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + n * n
    for line in lines[1:]:
        cells = line.split(",")
        a, b, c = map(float, cells[1:4])
        assert cells[4:] == ["%r" % x for x in (max(a, c), b, min(a, c))]
