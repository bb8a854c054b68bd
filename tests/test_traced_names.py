"""Names the traced benchmark run (`bench/run.py --trace 1`) replaces in place.

`bench/tracing.py` reads each of these with `getattr` from the module that
imports it and puts a timing wrapper in its place, so a refactor that stops
binding one of them breaks the traced run.  The lists mirror `Tracer.install`.
"""

from __future__ import annotations

import types

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
