"""The three benchmark workloads: inputs made from a seed, the timed operations, the checks.

Every workload goes through the `flow` command line (`xcflow.cli.main`), the
way a user runs it.  The checks below read only what the commands write and
compare it with facts that hold whatever the implementation: the criteria
print [PASS], symmetric Sol data collapse at exactly T0 = B0^2/64, symmetric
SL(2,R) data are immortal, a CSV round trip is byte-identical, and so on.

This module imports nothing from xcflow; the child passes the entry points in,
plain or traced, so that both runs execute the same code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("verify-suite", "scan-grid", "export")

# Criterion-3 tolerance on the symmetric Sol singular time.
SOL_T0_TOL = 1e-5


@dataclass
class Api:
    """Entry points a workload calls; the traced run substitutes wrapped ones."""

    main: Callable
    parse_csv: Callable
    emit_csv: Callable


@dataclass
class Outcome:
    """What one repetition did: its timed spans, return codes and every byte it wrote."""

    codes: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # name -> bytes, in write order
    spans: dict = field(default_factory=dict)  # name -> (start, end) in perf_counter seconds


# ---------------------------------------------------------------------------
# Inputs.


def make_inputs(workload: str, seed: int, smoke: bool) -> dict:
    """Inputs of one workload, a pure function of (workload, seed, smoke)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-suite":
        # The suite's inputs are fixed by the program, so the seed is unused.
        # Smoke mode runs the three cross-geometry criteria only.
        return {"suite": "trivial" if smoke else "all", "criteria": 3 if smoke else 11}
    if workload == "scan-grid":
        n_sol, n_bc = (2, 2) if smoke else (4, 3)
        b0 = rng.uniform(5.5, 8.0)
        lo = rng.uniform(0.4, 0.7)
        hi = lo * rng.uniform(3.0, 4.5)
        sol_axis = f"{lo!r}:{hi!r}:{n_sol}"
        a0 = rng.uniform(0.5, 3.0)
        bc_lo = rng.uniform(0.4, 0.8)
        bc_hi = bc_lo * rng.uniform(4.0, 7.0)
        bc_axis = f"{bc_lo!r}:{bc_hi!r}:{n_bc}"
        # Equal A and C axes put exact A=C rows on the Sol diagonal; equal B
        # and C axes put exact B=C rows in the SL(2,R) block.
        return {
            "grids": [
                {"geometry": "sol", "A": sol_axis, "B": repr(b0), "C": sol_axis},
                {"geometry": "sl2r", "A": repr(a0), "B": bc_axis, "C": bc_axis},
            ]
        }
    if workload == "export":
        runs = [
            {"geometry": geometry, "init": _separated_init(rng, geometry), "t_max": t_max}
            for geometry, t_max in (("sol", 10.0), ("su2", 10.0), ("sl2r", 10.0), ("heisenberg", 1.0e4))
        ]
        return {"samples": 2048 if smoke else 8192, "runs": runs}
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


# Pairs whose equality selects a symmetric branch.  Generic data keep them a
# quarter of the largest coefficient apart: the benchmark runs the generic
# branches, and nearly symmetric data put the branch's monotone checks at the
# edge of their 1e-9 tolerance (Sol (2.5, 2.001, 2.523) fails "C-A decreasing").
_BRANCH_PAIRS = {"sol": ((0, 2),), "sl2r": ((1, 2),), "su2": ((0, 1), (1, 2), (0, 2)), "heisenberg": ()}


def _separated_init(rng: random.Random, geometry: str) -> list[float]:
    while True:
        init = [round(rng.uniform(0.5, 4.0), 3) for _ in range(3)]
        if all(abs(init[i] - init[j]) >= 0.25 * max(init) for i, j in _BRANCH_PAIRS[geometry]):
            return init


def describe(workload: str, inputs: dict) -> str:
    if workload == "verify-suite":
        return f"flow verify {inputs['suite']}"
    if workload == "scan-grid":
        return "; ".join(
            f"flow scan --geometry {g['geometry']} --grid-A {g['A']} --grid-B {g['B']} --grid-C {g['C']}"
            for g in inputs["grids"]
        )
    return f"flow run --samples {inputs['samples']} to csv and json for " + "; ".join(
        f"{r['geometry']} init={','.join(map(repr, r['init']))} t_max={r['t_max']:g}" for r in inputs["runs"]
    )


# ---------------------------------------------------------------------------
# Timed operations.  The child runs them with the work directory as the
# current directory, so that every path echoed into an output is relative and
# the output bytes do not depend on where the checkout lives.


def _read(name: str) -> bytes:
    """Bytes of an output file; empty when the command did not write it."""
    path = Path(name)
    return path.read_bytes() if path.exists() else b""


def _call(api: Api, argv: list[str], outcome: Outcome, tag: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        outcome.codes.append(api.main(argv))
    outcome.outputs[f"{tag}.stdout"] = out.getvalue().encode()
    outcome.outputs[f"{tag}.stderr"] = err.getvalue().encode()


def run(workload: str, inputs: dict, api: Api) -> Outcome:
    clock = time.perf_counter
    outcome = Outcome()
    t0 = clock()
    if workload == "verify-suite":
        _call(api, ["verify", inputs["suite"], "--output", "verify.json"], outcome, "verify")
        outcome.spans = {"wall": (t0, clock())}
        outcome.outputs["verify.json"] = _read("verify.json")
    elif workload == "scan-grid":
        names = []
        for i, g in enumerate(inputs["grids"]):
            name = f"scan{i}.csv"
            argv = ["scan", "--geometry", g["geometry"], "--grid-A", g["A"], "--grid-B", g["B"],
                    "--grid-C", g["C"], "--workers", "1", "--output", name]
            _call(api, argv, outcome, name)
            names.append(name)
        outcome.spans = {"wall": (t0, clock())}
        for name in names:
            outcome.outputs[name] = _read(name)
    else:
        names = []
        for r in inputs["runs"]:
            for fmt in ("csv", "json"):
                name = f"{r['geometry']}.{fmt}"
                argv = ["run", "--geometry", r["geometry"], "--init", ",".join(map(repr, r["init"])),
                        "--t-max", repr(r["t_max"]), "--samples", str(inputs["samples"]),
                        "--format", fmt, "--output", name]
                _call(api, argv, outcome, name)
                names.append(name)
        t_run = clock()
        for name in names:
            if name.endswith(".csv"):
                text = _read(name).decode("utf-8")
                outcome.outputs[name + ".roundtrip"] = api.emit_csv(api.parse_csv(text)).encode()
        t_end = clock()
        outcome.spans = {"wall": (t0, t_end), "run": (t0, t_run), "roundtrip": (t_run, t_end)}
        for name in names:
            outcome.outputs[name] = _read(name)
    return outcome


def output_hash(outcome: Outcome) -> str:
    h = hashlib.sha256()
    for name in sorted(outcome.outputs):
        data = outcome.outputs[name]
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Checks.  Each returns attempted and failed operation counts (an operation is
# a criterion, a grid point or a document), failure messages, the work done,
# and the accuracy margins observed/threshold (below 1 passes).


@dataclass
class Checked:
    attempted: int
    failed: int
    failures: list
    work: dict
    margins: dict


def check(workload: str, inputs: dict, outcome: Outcome) -> Checked:
    if workload == "verify-suite":
        result = _check_verify(inputs, outcome)
    elif workload == "scan-grid":
        result = _check_scan(inputs, outcome)
    else:
        result = _check_export(inputs, outcome)
    result.work["bytes_out"] = sum(
        len(data) for name, data in outcome.outputs.items() if not name.endswith(".roundtrip")
    )
    return result


def _ratio(observed: float, threshold: float) -> float:
    if threshold == 0.0:
        return 0.0 if observed == 0.0 else math.inf
    return abs(observed) / threshold


_NUM = r"[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?"
_TOL_CHECK = re.compile(rf"(?::|drift) ({_NUM}) \(tol ({_NUM})\)")
_EXPONENT = re.compile(rf"exponent ({_NUM}) vs ({_NUM}) \(tol ({_NUM})\)")
_GAP = re.compile(rf"gap ({_NUM}) .*?\(tol ({_NUM})\)")


def criterion_margins(line: str) -> list[float]:
    """observed/threshold of every numeric check printed on one criterion line."""
    margins = [_ratio(float(o), float(t)) for o, t in _TOL_CHECK.findall(line)]
    margins += [_ratio(float(a) - float(b), float(t)) for a, b, t in _EXPONENT.findall(line)]
    margins += [_ratio(float(o), float(t)) for o, t in _GAP.findall(line)]
    return margins


def _check_verify(inputs: dict, outcome: Outcome) -> Checked:
    expected = inputs["criteria"]
    lines = [l for l in outcome.outputs["verify.stdout"].decode().splitlines() if l.startswith("[")]
    failures = [l for l in lines if not l.startswith("[PASS]")]
    failed = expected - (len(lines) - len(failures))
    if outcome.codes != [0]:
        failures.append(f"flow verify exited with {outcome.codes}")
        failed = max(failed, 1)
    margins = {}
    for line in lines:
        number = int(re.search(r"criterion\s+(\d+)", line).group(1))
        found = criterion_margins(line)
        if not found:
            failures.append(f"criterion {number} printed no numeric check")
            failed = max(failed, 1)
        margins[f"criterion_{number:02d}"] = max(found, default=math.inf)
    margins["verify_worst_margin"] = max(margins.values(), default=math.inf)
    return Checked(expected, failed, failures, {"criteria": len(lines)}, margins)


def _axis(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    return [lo] if n == 1 else [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def _check_scan(inputs: dict, outcome: Outcome) -> Checked:
    attempted = failed = 0
    failures = []
    worst_t0 = 0.0
    for i, g in enumerate(inputs["grids"]):
        name = f"scan{i}.csv"
        grid = [(a, b, c) for a in _axis(g["A"]) for b in _axis(g["B"]) for c in _axis(g["C"])]
        lines = outcome.outputs[name].decode().splitlines()
        header = lines[0].split(",") if lines else []
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        attempted += len(grid)
        if outcome.codes[i] != 0:
            failures.append(f"{name}: flow scan exited with {outcome.codes[i]}")
        for index, point in enumerate(grid):
            row = rows[index] if index < len(rows) else None
            problem = _scan_row_problem(g["geometry"], index, point, row)
            if problem is None and g["geometry"] == "sol" and point[0] == point[2]:
                t0 = point[1] ** 2 / 64.0
                margin = abs(float(row["blowup_time"]) - t0) / t0 / SOL_T0_TOL
                worst_t0 = max(worst_t0, margin)
                if margin > 1.0:
                    problem = f"symmetric singular time {row['blowup_time']} vs B0^2/64 = {t0!r}"
            if problem is not None or outcome.codes[i] != 0:
                failed += 1
                if problem is not None:
                    failures.append(f"{name} row {index}: {problem}")
        if len(rows) > len(grid):
            failures.append(f"{name}: {len(rows) - len(grid)} rows beyond the grid")
            failed += 1
    return Checked(attempted, failed, failures, {"points": attempted}, {"scan_t0_margin": worst_t0})


def _scan_row_problem(geometry: str, index: int, point: tuple, row: dict | None) -> str | None:
    if row is None:
        return "missing"
    try:
        got = (int(row["index"]), float(row["A0"]), float(row["B0"]), float(row["C0"]))
    except (KeyError, ValueError):
        return f"unreadable row {row}"
    if got[0] != index or not all(_close(x, y) for x, y in zip(got[1:], point)):
        return f"out of grid order: {got}, expected index {index} at {point}"
    kind, flag = row["termination"], row["flag"]
    if geometry == "sol":
        if kind != "singular_time":
            return f"sol row terminated {kind}"
        if point[0] == point[2] and not row["blowup_time"]:
            return "symmetric sol row has no singular time"
    elif point[1] == point[2]:
        if (kind, flag) != ("reached_t_max", "symmetric"):
            return f"symmetric sl2r row is {kind}/{flag}"
    elif (kind, flag) != ("singular_time", "entered-region"):
        return f"generic sl2r row is {kind}/{flag}"
    return None


def _csv_columns(text: str) -> dict:
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    names = lines[0].split(",")
    values = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return {name: [row[i] for row in values] for i, name in enumerate(names)}


def analysis_margins(analysis: dict) -> list[float]:
    """observed/threshold of every numeric check and law in a JSON analysis block."""
    margins = []
    for group in ("conserved", "monotone", "checks"):
        for c in analysis[group]:
            if c["observed"] is not None and c["threshold"] is not None:
                margins.append(_ratio(c["observed"], c["threshold"]))
    for law in analysis["laws"]:
        if law["fitted_exponent"] is not None:
            margins.append(_ratio(law["fitted_exponent"] - law["expected_exponent"], law["exponent_tolerance"]))
        if None not in (law["fitted_coefficient"], law["expected_coefficient"], law["coefficient_tolerance"]):
            rel = (law["fitted_coefficient"] - law["expected_coefficient"]) / law["expected_coefficient"]
            margins.append(_ratio(rel, law["coefficient_tolerance"]))
    return margins


def _check_export(inputs: dict, outcome: Outcome) -> Checked:
    failures = []
    failed = rows = 0
    worst = 0.0
    codes = iter(outcome.codes)
    for r in inputs["runs"]:
        g = r["geometry"]
        csv_code, json_code = next(codes), next(codes)
        csv_bytes = outcome.outputs[f"{g}.csv"]
        csv_cols = {}
        problems = []
        if csv_code != 0:
            problems.append(f"{g}.csv: flow run exited with {csv_code}")
        if outcome.outputs[f"{g}.csv.roundtrip"] != csv_bytes:
            problems.append(f"{g}.csv: parse->emit round trip is not byte-identical")
        try:
            csv_cols = _csv_columns(csv_bytes.decode())
            rows += len(csv_cols["t"])
        except (IndexError, KeyError, ValueError) as e:
            problems.append(f"{g}.csv: unreadable ({e!r})")
        failed += bool(problems)
        failures += problems
        problems = []
        if json_code != 0:
            problems.append(f"{g}.json: flow run exited with {json_code}")
        try:
            doc = json.loads(outcome.outputs[f"{g}.json"])
            rows += len(doc["samples"]["t"])
            if not (doc["analysis"] and doc["analysis"]["passed"]):
                problems.append(f"{g}.json: analysis did not pass")
            elif doc["samples"] != csv_cols:
                problems.append(f"{g}.json: samples differ from the CSV columns")
            if doc["analysis"]:
                worst = max([worst] + analysis_margins(doc["analysis"]))
        except (KeyError, TypeError, ValueError) as e:
            problems.append(f"{g}.json: unreadable ({e!r})")
        failed += bool(problems)
        failures += problems
    documents = 2 * len(inputs["runs"])
    return Checked(documents, failed, failures, {"documents": documents, "rows": rows}, {"export_worst_margin": worst})
