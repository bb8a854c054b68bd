"""Names the traced benchmark run (`bench/run.py --trace 1`) replaces in place.

`bench/tracing.py` reads each of these with `getattr` from the module that
imports it and puts a timing wrapper in its place, so a refactor that stops
binding one of them breaks the traced run.  The lists mirror `Tracer.install`.
The names `bench/layers.py` and `bench/child.py` import from xcflow are
checked the same way, read from their source.
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import pytest

from xcflow import acceptance, cli, integrator

_SHARED = ("integrate", "verify", "MetricDiag", "sectional_curvatures", "cross_curvature_diag")
_TRACED = {
    acceptance: _SHARED + ("flow_rhs", "cross_from_sectional"),
    cli: _SHARED + ("estimate_blowup_time", "classify_branch", "trajectory_csv_text", "trajectory_json_document"),
    integrator: ("integrate", "rhs_function"),
}


@pytest.mark.parametrize("module", list(_TRACED), ids=lambda m: m.__name__)
def test_module_binds_every_traced_name(module):
    missing = [name for name in _TRACED[module] if not callable(getattr(module, name, None))]
    assert missing == []


def test_cli_binds_json_module():
    assert isinstance(cli.json, types.ModuleType) and callable(cli.json.dumps)


def test_criteria_are_bound_under_their_own_names():
    # the traced run wraps each of ALL_CRITERIA under acceptance.<__name__>
    for fn in acceptance.ALL_CRITERIA:
        assert getattr(acceptance, fn.__name__) is fn


def test_run_json_writes_through_cli_json_dumps(capsys, monkeypatch):
    # the traced run times JSON writing by swapping `cli.json` for a proxy module
    import json

    argv = ["run", "--geometry", "sol", "--init", "2,4,1", "--samples", "64", "--format", "json"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    calls = []

    def counting_dumps(*args, **kwargs):
        calls.append(args[0])
        return json.dumps(*args, **kwargs)

    proxy = types.ModuleType("json")
    proxy.__dict__.update(json.__dict__)
    proxy.dumps = counting_dumps
    monkeypatch.setattr(cli, "json", proxy)
    assert cli.main(argv) == 0
    assert len(calls) >= 1
    assert capsys.readouterr().out == plain


_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _xcflow_references(path: Path) -> list[str]:
    """Dotted names a benchmark script takes from xcflow: its imports and its `xcflow.…` attributes."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "xcflow":
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if alias.name.split(".")[0] == "xcflow"]
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                parts.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id == "xcflow":
                names.append(".".join(["xcflow", *reversed(parts)]))
    return sorted(set(names))


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):  # the longest importable prefix, then attributes
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("script", ["layers.py", "child.py"])
def test_every_name_the_benchmark_takes_from_xcflow_resolves(script):
    names = _xcflow_references(_BENCH / script)
    assert names  # the parse found the imports
    assert [name for name in names if not _resolves(name)] == []


def test_unresolvable_benchmark_names_are_caught():
    assert _resolves("xcflow.cli.main") and _resolves("xcflow.integrate")
    assert not _resolves("xcflow.heisenberg_exact")
    assert not _resolves("xcflow.cli.no_such_name")
