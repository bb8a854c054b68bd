"""Per-layer timings, taken from outside by calling each layer's public functions.

The inputs are the workload's own: the trajectories its `integrate` calls
returned in the traced run, and states sampled from them.  Each timing is a
median over a few passes, divided by its work count (calls, RHS evaluations,
step attempts, rows), so that a change which only alters the amount of work
cannot pass as a per-unit speed-up.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

from xcflow import (
    MetricDiag,
    classify_branch,
    cross_curvature_diag,
    estimate_blowup_time,
    flow_rhs,
    integrate,
    rhs_function,
    sample_at,
    sectional_curvatures,
    verify,
)
from xcflow.cli import RunConfig, emit_parsed_csv, parse_trajectory_csv, trajectory_csv_text, trajectory_json_document

POOL_STATES = 4000  # (geometry, state) pairs for the scalar kernels
SAMPLE_ROWS = 4000  # rows for sample_at
SERIAL_ROWS = 10000  # rows for each serializer
BLOWUP_CALLS = 200
PASSES = 5


def _per_unit(calls, units: int, passes: int = PASSES) -> float:
    """Median over passes of the time to run `calls` (a list of thunks) per unit."""
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        for call in calls:
            call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / units


def _distinct(trajectories: list) -> list:
    seen, out = set(), []
    for tr in trajectories:
        key = (tr.geometry, tr.spec, tr.m0, tr.options)
        if key not in seen:
            seen.add(key)
            out.append(tr)
    return out


def _spread(n: int, k: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, min(n, k)).round().astype(int))


def measure(trajectories: list) -> tuple[dict, dict]:
    """Layer metrics {name: value} and their sample counts {name: units timed}."""
    trajs = _distinct(trajectories)
    per_traj = -(-POOL_STATES // len(trajs))
    pool = [(tr, tr.states[i]) for tr in trajs for i in _spread(len(tr.states), per_traj)]
    metrics = [(tr.geometry, MetricDiag(*y)) for tr, y in pool]
    closures = {(tr.geometry, tr.spec): rhs_function(tr.geometry, tr.spec) for tr in trajs}
    n = len(pool)
    out, counts = {}, {}

    def put(name: str, value: float, units: int) -> None:
        out[name] = value
        counts[name] = units

    put("geometry.cross_curvature_diag.us_per_call",
        1e6 * _per_unit([lambda: [cross_curvature_diag(g, m) for g, m in metrics]], n), n * PASSES)
    put("geometry.sectional_curvatures.us_per_call",
        1e6 * _per_unit([lambda: [sectional_curvatures(g, m) for g, m in metrics]], n), n * PASSES)
    put("geometry.MetricDiag.us_per_call",
        1e6 * _per_unit([lambda: [MetricDiag(*y) for _, y in pool]], n), n * PASSES)
    rhs_calls = [(closures[(tr.geometry, tr.spec)], y) for tr, y in pool]
    put("flows.rhs.us_per_eval", 1e6 * _per_unit([lambda: [f(y) for f, y in rhs_calls]], n), n * PASSES)
    specs = [(tr.geometry, m, tr.spec) for (tr, _), (_, m) in zip(pool, metrics)]
    put("flows.flow_rhs.us_per_call", 1e6 * _per_unit([lambda: [flow_rhs(*a) for a in specs]], n), n * PASSES)
    put("analytic.classify_branch.us_per_call",
        1e6 * _per_unit([lambda: [classify_branch(g, m) for g, m in metrics]], n), n * PASSES)

    rows = [(tr, float(t)) for tr in trajs for t in tr.times[_spread(len(tr.times), -(-SAMPLE_ROWS // len(trajs)))]]
    put("integrator.sample_at.us_per_row",
        1e6 * _per_unit([lambda: [sample_at(tr, t) for tr, t in rows]], len(rows)), len(rows) * PASSES)

    # One pass: the re-runs are the workload's own integrations, seconds long.
    t0 = time.perf_counter()
    reruns = [integrate(tr.geometry, tr.spec, tr.m0, tr.options) for tr in trajs]
    elapsed = time.perf_counter() - t0
    attempts = sum(r.termination.n_accepted + r.termination.n_rejected for r in reruns)
    put("integrator.integrate.ms_per_run", 1e3 * elapsed / len(trajs), len(trajs))
    put("integrator.integrate.us_per_attempt", 1e6 * elapsed / attempts, attempts)

    put("analysis.verify.ms_per_report",
        1e3 * _per_unit([lambda tr=tr: verify(tr) for tr in trajs], len(trajs), passes=3), 3 * len(trajs))
    singular = []
    for tr in trajs:
        try:
            estimate_blowup_time(tr)
            singular.append(tr)
        except ValueError:
            pass
    if singular:
        calls = [lambda tr=tr: estimate_blowup_time(tr) for tr in singular] * -(-BLOWUP_CALLS // len(singular))
        put("analysis.estimate_blowup_time.us_per_call", 1e6 * _per_unit(calls, len(calls)), len(calls) * PASSES)

    chosen, n_rows = [], 0
    for tr in trajs:
        if n_rows >= SERIAL_ROWS:
            break
        chosen.append(tr)
        n_rows += len(tr.times)
    config = RunConfig(analysis=False)
    texts = [trajectory_csv_text(tr) for tr in chosen]
    docs = [trajectory_json_document(tr, config) for tr in chosen]
    parsed = [parse_trajectory_csv(t) for t in texts]
    serial = {
        "cli.trajectory_csv_text.us_per_row": [lambda tr=tr: trajectory_csv_text(tr) for tr in chosen],
        "cli.trajectory_json_document.us_per_row": [lambda tr=tr: trajectory_json_document(tr, config) for tr in chosen],
        "cli.json_dumps.us_per_row": [lambda d=d: json.dumps(d, indent=2) for d in docs],
        "cli.parse_trajectory_csv.us_per_row": [lambda t=t: parse_trajectory_csv(t) for t in texts],
        "cli.emit_parsed_csv.us_per_row": [lambda p=p: emit_parsed_csv(p) for p in parsed],
    }
    for name, calls in serial.items():
        put(name, 1e6 * _per_unit(calls, n_rows, passes=3), 3 * n_rows)
    return out, counts
