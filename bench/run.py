#!/usr/bin/env python3
"""xcflow benchmark: three workloads through the `flow` CLI, end-to-end and per-layer metrics.

    python3 bench/run.py --workload scan-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; xcflow is imported from its src/.  The load
generator is this process: a closed loop with one client that starts a fresh
single-threaded interpreter (bench/child.py) per repetition until --seconds
have passed.  --trace 0 measures the end-to-end metrics; --trace 1 runs one traced
repetition between two untraced ones and reports the per-layer metrics.
Every metric is printed by name with its unit and sample count; the last line
of standard output is one JSON object {correct, attempted, failed, metrics}
holding the metrics BENCHMARK.json lists.  Full results go to
.bench_out/result-<workload>-seed<seed>-trace<t>.json, and the traced run's
spans to .bench_out/spans-<workload>-seed<seed>.npz.

Exit codes: 0 all outputs correct, 1 some operation failed its check or the
outputs were not deterministic, 2 no xcflow sources or bad arguments, 3 a
child process failed or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEADLINE_S = 170.0  # the whole command, including the slowest repetition
SETUP_PROBES = 2  # import-only interpreters after each --trace 0 repetition
UNTRACED_REPS = 2  # per --trace 1 run, to compare against the traced one
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# What a repetition produces per second (criteria, grid points, rows written)
# and the span it is timed over.
THROUGHPUT = {
    "verify-suite": ("criteria_per_s", "criteria", "wall"),
    "scan-grid": ("scan_points_per_s", "points", "wall"),
    "export": ("export_rows_per_s", "rows", "run"),
}
MARGIN = {"verify-suite": "verify_worst_margin", "scan-grid": "scan_t0_margin", "export": "export_worst_margin"}


class BenchError(RuntimeError):
    pass


def unit_of(name: str, units: dict) -> str:
    if name in units:
        return units[name]
    if ".us_per_" in name or name.endswith("_us"):
        return "us"
    if ".ms_per_" in name or name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if "margin" in name or "share" in name:
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


class Runner:
    """Starts one child interpreter at a time and collects its result."""

    def __init__(self, args: argparse.Namespace, started: float) -> None:
        self.args = args
        self.started = started
        self.count = 0

    def child(self, mode: str) -> dict:
        self.count += 1
        tag = f"{os.getpid()}-{self.count}"
        work = OUT / f"work-{tag}"
        result = OUT / f"child-{tag}.json"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cmd = [sys.executable, "-I", str(HERE / "child.py"), "--mode", mode, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--work", str(work), "--result", str(result)]
        if self.args.smoke:
            cmd.append("--smoke")
        if mode == "trace":
            cmd += ["--spans", str(OUT / f"spans-{self.args.workload}-seed{self.args.seed}.npz")]
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        try:
            if remaining <= 0:
                raise subprocess.TimeoutExpired(cmd, 0)
            proc = subprocess.run(cmd, env={**os.environ, **CHILD_ENV}, capture_output=True, text=True,
                                  timeout=remaining)
            if proc.returncode != 0 or not result.exists():
                raise BenchError(f"{mode} child exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
            return json.loads(result.read_text())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child did not finish within the {DEADLINE_S:.0f} s budget") from None
        finally:
            shutil.rmtree(work, ignore_errors=True)
            result.unlink(missing_ok=True)


def stats(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def run_timed(runner: Runner, args: argparse.Namespace) -> tuple[dict, list]:
    """--trace 0: the closed loop for --seconds, with set-up probes between repetitions."""
    runner.child("setup")  # warm-up: compiles bytecode and fills the file cache
    setup, reps = [], []
    loop_start = time.monotonic()
    while not reps or (not args.smoke and time.monotonic() - loop_start < args.seconds):
        reps.append(runner.child("run"))
        # Import-only probes between repetitions sample set-up over the whole
        # run, not one moment of a host whose speed drifts.
        setup += [(p["setup_s"], p["setup_raw_s"]) for p in (runner.child("setup") for _ in range(SETUP_PROBES))]
    setup += [(r["setup_s"], r["setup_raw_s"]) for r in reps]
    name, work, span = THROUGHPUT[args.workload]
    series = {
        "setup_s": [norm for norm, _ in setup],
        "setup_raw_s": [raw for _, raw in setup],
        "wall_s": [r["wall_s"] for r in reps],
        "wall_raw_s": [r["wall_raw_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "throughput_per_s": [r["work"][work] / r["spans"][span]["norm_s"] for r in reps],
        name: [r["work"][work] / r["spans"][span]["norm_s"] for r in reps],
        name.replace("_per_s", "_raw_per_s"): [r["work"][work] / r["spans"][span]["raw_s"] for r in reps],
        "host.slice_ms": [1e3 * r["spans"]["wall"]["slice_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    return {k: stats(v) for k, v in series.items()}, reps


def run_traced(runner: Runner, args: argparse.Namespace) -> tuple[dict, list]:
    """--trace 1: untraced repetitions, one traced repetition, per-layer metrics."""
    runner.child("setup")
    # Untraced repetitions on both sides of the traced one, so that a slow
    # phase of the host weighs on both sides of the overhead.
    reps = [runner.child("run")]
    traced = runner.child("trace")
    reps += [runner.child("run") for _ in range(0 if args.smoke else UNTRACED_REPS - 1)]
    trace = traced["trace"]
    spans = trace["spans"]
    untraced_wall = statistics.median(r["wall_s"] for r in reps)
    accepted, rejected = trace["steps_accepted"], trace["steps_rejected"]
    rhs_evals = spans.get("flows.rhs", {}).get("count", 0)
    values = dict(traced["layers"])
    units = dict(traced["layer_units"])
    values.update({
        "flows.rhs_evals": rhs_evals,
        "integrator.steps_accepted": accepted,
        "integrator.steps_rejected": rejected,
        "integrator.accept_ratio": accepted / max(1, accepted + rejected),
        "integrator.rhs_evals_per_attempt": rhs_evals / max(1, accepted + rejected),
        "integrator.step_self_s": spans.get("integrator.integrate", {}).get("self_s", 0.0),
        "acceptance.integrate_calls": trace["calls_from"].get("acceptance", 0),
        "cli.bytes_out": reps[0]["work"]["bytes_out"],
        "trace.overhead_s": traced["wall_s"] - untraced_wall,
        "trace.overhead_share": (traced["wall_s"] - untraced_wall) / untraced_wall,
        "trace.spans": trace["count"],
        "trace.span_cost_us": 1e6 * trace["span_cost_s"],
        "trace.overhead_est_s": trace["count"] * trace["span_cost_s"],
    })
    for layer, self_s in trace["layer_self_s"].items():
        values[f"{layer}.self_s"] = self_s
    for name, span in spans.items():
        if name.startswith("acceptance.criterion_") and span["count"]:
            values[f"{name}.s"] = span["total_s"]
    return {k: {"median": v, "n": units.get(k, 1)} for k, v in values.items()}, reps + [traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="one short repetition on tiny inputs")
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "xcflow" / "__init__.py").is_file():
        print(f"error: no xcflow sources under {SRC}; run from the root of an xcflow checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = environment()
    inputs = workloads.make_inputs(args.workload, args.seed, args.smoke)
    OUT.mkdir(exist_ok=True)
    runner = Runner(args, started)
    try:
        metrics, reps = (run_traced if args.trace else run_timed)(runner, args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    env["loadavg_end"] = list(os.getloadavg())
    env["numpy"] = reps[0]["numpy"]

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    hashes = sorted({r["hash"] for r in reps})
    failures = [f for r in reps for f in r["failures"]]
    if len(hashes) > 1:
        failures.append(f"outputs differ between repetitions{' and the traced run' if args.trace else ''}: {hashes}")
    correct = failed == 0 and len(hashes) == 1
    metrics["failed_op_share"] = {"median": failed / attempted, "n": attempted}
    margin = MARGIN[args.workload]
    metrics[margin] = {"median": max(r["margins"][margin] for r in reps), "n": len(reps)}
    for name, value in reps[-1]["margins"].items():
        if name.startswith("criterion_"):
            metrics[f"acceptance.{name}.margin"] = {"median": value, "n": 1}

    print(f"# xcflow benchmark  workload={args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}{'  smoke' if args.smoke else ''}")
    print(f"# inputs: {workloads.describe(args.workload, inputs)}")
    print(f"# env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, cpu {env['cpu']!r}, "
          f"loadavg {env['loadavg_start']} -> {env['loadavg_end']}")
    print(f"# load: closed loop, 1 client, {len(reps)} fresh single-threaded interpreters; "
          f"output sha256 {hashes[0][:16]}{'' if len(hashes) == 1 else ' (NOT DETERMINISTIC)'}")
    for name in sorted(metrics):
        m = metrics[name]
        spread = f", q1 {m['q1']:.6g}, q3 {m['q3']:.6g}" if "q1" in m else ""
        print(f"{name:48s} {m['median']:14.6g} {unit_of(name, units):6s} (n={m['n']}{spread})")
    if args.trace:
        trace = reps[-1]["trace"]
        print("# spans: name, count, total s, self s")
        for name, span in sorted(trace["spans"].items()):
            if span["count"]:
                print(f"#   {name:40s} {span['count']:9d} {span['total_s']:10.4f} {span['self_s']:10.4f}")
        print(f"# spans written to {OUT.name}/spans-{args.workload}-seed{args.seed}.npz")
    for failure in failures[:20]:
        print(f"# FAILED: {failure}")

    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 3
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "inputs": inputs, "env": env, "correct": correct, "attempted": attempted,
        "failed": failed, "failures": failures, "hashes": hashes,
        "metrics": {k: {**v, "unit": unit_of(k, units)} for k, v in metrics.items()}, "repetitions": reps,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str))
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": _finite(metrics[m["name"]]["median"]), "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(summary))
    return 0 if correct else 1


def _finite(value: float) -> float | None:
    return value if isinstance(value, int) or math.isfinite(value) else None


if __name__ == "__main__":
    sys.exit(main())
