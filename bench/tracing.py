"""Spans around the public names each xcflow module imports from another.

`Tracer.install` replaces, for one process, the names bound in `xcflow.cli`,
`xcflow.acceptance` and `xcflow.integrator` with wrappers that record a span
(name, start, end, parent) per call and return the wrapped result unchanged.
Nothing under src/ is edited; `uninstall` puts the originals back.  Spans are
kept in flat arrays in memory and written out once, at the end of the run.

Span names are `<layer>.<function>`, the layer being the module that defines
the function.  A layer's self time is the time inside its spans that no
child span covers.
"""

from __future__ import annotations

import json
import statistics
import time
import types
from array import array

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.trajectories: list = []  # every Trajectory the traced `integrate` returned

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        from xcflow import acceptance, cli, integrator

        traced_integrate = self.wrap("integrator.integrate", integrator.integrate)

        def integrate(*args, **kwargs):
            trajectory = traced_integrate(*args, **kwargs)
            self.trajectories.append(trajectory)
            return trajectory

        real_rhs_function = integrator.rhs_function

        def rhs_function(geometry, spec):
            return self.wrap("flows.rhs", real_rhs_function(geometry, spec))

        self._patch(integrator, "rhs_function", rhs_function)

        # Names `cli` and `acceptance` import from the other layers.
        shared = {
            "integrate": integrate,
            "verify": "analysis.verify",
            "MetricDiag": "geometry.MetricDiag",
            "sectional_curvatures": "geometry.sectional_curvatures",
            "cross_curvature_diag": "geometry.cross_curvature_diag",
        }
        own = {
            cli: {
                "estimate_blowup_time": "analysis.estimate_blowup_time",
                "classify_branch": "analytic.classify_branch",
                "trajectory_csv_text": "cli.trajectory_csv_text",
                "trajectory_json_document": "cli.trajectory_json_document",
            },
            acceptance: {
                "flow_rhs": "flows.flow_rhs",
                "cross_from_sectional": "geometry.cross_from_sectional",
            },
        }
        for module, names in own.items():
            for attr, span in {**shared, **names}.items():
                fn = span if callable(span) else self.wrap(span, getattr(module, attr))
                self._patch(module, attr, fn)

        json_proxy = types.ModuleType("json")
        json_proxy.__dict__.update(json.__dict__)
        json_proxy.dumps = self.wrap("cli.json_dumps", json.dumps)
        self._patch(cli, "json", json_proxy)

        # `flow verify` reads acceptance.ALL_CRITERIA; the per-geometry suites
        # look the criteria up by their module-level names.
        wrapped = []
        for number, fn in enumerate(acceptance.ALL_CRITERIA, start=1):
            traced = self.wrap(f"acceptance.criterion_{number:02d}", fn)
            self._patch(acceptance, fn.__name__, traced)
            wrapped.append(traced)
        self._patch(acceptance, "ALL_CRITERIA", tuple(wrapped))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    @staticmethod
    def span_cost_s(calls: int = 20000, passes: int = 5) -> float:
        """Median cost of one traced call over a plain one, on a no-op."""
        probe = Tracer().wrap("probe", int)
        costs = []
        for _ in range(passes):
            t0 = time.perf_counter()
            for _ in range(calls):
                int()
            t1 = time.perf_counter()
            for _ in range(calls):
                probe()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        return statistics.median(costs)

    def summary(self) -> dict:
        """Count, total and self time per span name and self time per layer."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(covered, a["parent"][has_parent], dur[has_parent])
        own = dur - covered
        spans = {}
        layers: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            mask = a["name_id"] == nid
            spans[name] = {
                "count": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + spans[name]["self_s"]
        return {"spans": spans, "layer_self_s": layers, "calls_from": self._calls_from(),
                "count": len(dur), "span_cost_s": self.span_cost_s()}

    def _calls_from(self) -> dict:
        """Number of integrate spans below a span of each other layer."""
        a = self.arrays()
        counts: dict[str, int] = {}
        target = self._ids.get("integrator.integrate", -1)
        for idx in np.flatnonzero(a["name_id"] == target):
            seen = set()
            p = a["parent"][idx]
            while p >= 0:
                seen.add(self.names[a["name_id"][p]].split(".")[0])
                p = a["parent"][p]
            for layer in seen:
                counts[layer] = counts.get(layer, 0) + 1
        return counts
