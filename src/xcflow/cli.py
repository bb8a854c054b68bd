"""Command-line front end: `flow run`, `flow verify`, `flow scan`.

`run` integrates a single initial datum and writes the trajectory as CSV
(columns t,A,B,C,k23,k31,k12,h11,h22,h33 at 17 significant digits) or as a
JSON document {meta, samples, termination, analysis}.  Both are built from
one table of sample columns, with each curvature kernel evaluated once on
whole state columns.  `verify` executes the quantitative acceptance
criteria for one geometry or all of them and writes a JSON report.  `scan`
integrates a grid of initial data and writes one classification row per
grid point, ordered by grid index no matter how the work was scheduled;
each point is integrated in the labels the catalogs assume, once for all
the points that relabel to the same datum, and keeping only the states its
row reads: none, and so no step table, where the row reads only how the
run ended.
A trajectory's CSV, and the text `emit_parsed_csv` gives back from a parsed
one, are built by one writer, `_csv_text`; scan rows are not, since each is
written to the output as soon as it is known, in `_write_scan_rows`.  Every
JSON document goes through `_json_text`, which gives the bytes of
`json.dumps(doc, indent=2)`.

Configuration precedence for `run`: built-in defaults, then the JSON config
file (--config, or the path in $XFLOW_CONFIG), then explicit flags.  Config
keys and flags are the `RunConfig` field names; each value is converted to
the type of its field's default.  The effective configuration is echoed in
the output metadata.

Every subcommand opens its --output file before it integrates anything, so
an unusable path costs no work.  Exit codes: 0 success, 1 verification
failure, 2 invalid input or an unusable file, 3 the integrator gave up after
exhausting its step budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import nullcontext
from itertools import permutations, product
from math import isfinite
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from . import acceptance
from ._record import Record
from .analysis import estimate_blowup_time, verify
from .analytic import SYMMETRIC_BRANCHES, canonical_permutation, classify_branch, sl2r_trapping_entry
from .flows import FLOWS, FlowSpec
from .geometry import Geometry, MetricDiag, cross_curvature_diag, sectional_curvatures
from .integrator import IntegratorOptions, TerminationKind, Trajectory, accepted_states, integrate, terminate

__all__ = [
    "RunConfig",
    "ConfigError",
    "main",
    "trajectory_csv_text",
    "parse_trajectory_csv",
    "emit_parsed_csv",
    "trajectory_json_document",
    "CSV_HEADER",
    "EXIT_OK",
    "EXIT_VERIFY_FAIL",
    "EXIT_USAGE",
    "EXIT_BUDGET",
]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

CSV_HEADER = "t,A,B,C,k23,k31,k12,h11,h22,h33"
SCAN_HEADER = "index,A0,B0,C0,termination,t_stop,blowup_time,branch,flag"
ENV_CONFIG = "XFLOW_CONFIG"
GRID_LIMIT = 1_000_000  # points of a `scan` grid, and so also of each of its axes

_GEOMETRY_NAMES = tuple(g.value for g in Geometry)


class ConfigError(ValueError):
    """Invalid configuration input (bad key, value, or file)."""


class RunConfig(Record):
    """Effective settings for a single `run`; mirrors the CLI flags."""

    geometry: str = "heisenberg"
    flow: str = "xcf-"
    init: tuple[float, float, float] = (1.0, 1.0, 1.0)
    t_max: float = IntegratorOptions.t_max
    rtol: float = IntegratorOptions.rtol
    atol: float = IntegratorOptions.atol
    samples: int = IntegratorOptions.samples
    max_steps: int = IntegratorOptions.max_steps
    output: str = "-"
    format: str = "csv"
    analysis: bool = True

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls().merged(data)

    def merged(self, overrides: dict) -> "RunConfig":
        """A copy with overrides applied (None means unset), each converted to its field's type."""
        convert = {name: type(default) for name, default in self._field_defaults.items()}
        convert["init"] = _parse_init
        clean: dict = {}
        for raw_key, value in overrides.items():
            key = str(raw_key).replace("-", "_")
            if key not in convert:
                raise ConfigError(f"unknown config key {raw_key!r}")
            if value is not None:
                kind = convert[key]
                if isinstance(value, bool) != (kind is bool):  # JSON true/false are Python ints
                    raise ConfigError(f"{raw_key} must {'' if kind is bool else 'not '}be true or false, got {value!r}")
                if kind is int and isinstance(value, float) and not value.is_integer():  # int() truncates
                    raise ConfigError(f"{raw_key} must be a whole number, got {value!r}")
                try:
                    clean[key] = kind(value)
                except TypeError:  # a list or object for a number, or a number for init
                    raise ConfigError(f"{raw_key} has the wrong type, got {value!r}") from None
        cfg = self._replace(**clean)
        if cfg.geometry not in _GEOMETRY_NAMES:
            raise ConfigError(f"unknown geometry {cfg.geometry!r}; expected one of {', '.join(_GEOMETRY_NAMES)}")
        if cfg.flow not in FLOWS:
            raise ConfigError(f"unknown flow {cfg.flow!r}; expected one of {', '.join(FLOWS)}")
        if cfg.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {cfg.format!r}; expected csv or json")
        return cfg


def _parse_init(value) -> tuple[float, float, float]:
    parts = value.split(",") if isinstance(value, str) else list(value)
    if len(parts) != 3:
        raise ConfigError(f"initial data must be three comma-separated values, got {value!r}")
    try:
        a, b, c = (float(p) for p in parts if not isinstance(p, bool))  # a JSON true is no number
    except (TypeError, ValueError):
        raise ConfigError(f"initial data must be numeric, got {value!r}") from None
    return (a, b, c)


def _config_json(cfg: RunConfig) -> str:
    return json.dumps(cfg.to_dict(), sort_keys=True, separators=(", ", ": "))


# ---------------------------------------------------------------------------
# Trajectory serialization.


def _csv_text(comment: str | None, header: str, lines) -> str:
    """CSV text: the comment line if any, the header, then the already joined data lines."""
    head = [header] if comment is None else [comment, header]
    return "\n".join([*head, *lines]) + "\n"


_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


def _json_layout(obj, nl: str, pieces: list, leaves: list) -> None:
    """Lay out `json.dumps(obj, indent=2)` nested at indentation `nl` (a newline and spaces).

    Appends text to `pieces`, and None in the place of each leaf (a dict key,
    a plain scalar, an empty list or dict), whose value goes to `leaves` for
    one C encoder call over the whole document.  A non-empty list of plain
    scalars, such as a sample column, is encoded in one C call of its own,
    with the line break and indentation as its item separator: that is the
    text `indent=2` writes for it, without the per-item pure-Python encoder.
    """
    inner = nl + "  "
    if type(obj) in _JSON_SCALARS or (type(obj) in (list, tuple, dict) and not obj):
        pieces.append(None)
        leaves.append(obj)
    elif isinstance(obj, (list, tuple)) and obj and set(map(type, obj)) <= _JSON_SCALARS:
        pieces.append("[" + inner + json.dumps(obj, separators=("," + inner, ": "))[1:-1] + nl + "]")
    elif isinstance(obj, dict) and obj and all(type(key) is str for key in obj):
        sep = "{" + inner
        for key, value in obj.items():
            pieces.extend((sep, None, ": "))
            leaves.append(key)
            _json_layout(value, inner, pieces, leaves)
            sep = "," + inner
        pieces.append(nl + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        sep = "[" + inner
        for value in obj:
            pieces.append(sep)
            _json_layout(value, inner, pieces, leaves)
            sep = "," + inner
        pieces.append(nl + "]")
    else:  # non-string keys, scalar subclasses, and the errors `dumps` raises
        pieces.append(json.dumps(obj, indent=2).replace("\n", nl))


def _json_text(doc) -> str:
    """`json.dumps(doc, indent=2)` byte for byte.

    The leaf texts come from one C encoder call, split at the raw newlines
    that separate them: JSON text holds a newline only as the escape `\\n`.
    Re-indenting a nested `dumps` text by its newlines is exact for the same
    reason.
    """
    pieces: list = []
    leaves: list = []
    _json_layout(doc, "\n", pieces, leaves)
    texts = iter(json.dumps(leaves, separators=("\n", ": "))[1:-1].split("\n"))
    return "".join([next(texts) if piece is None else piece for piece in pieces])


def _sample_columns(trajectory: Trajectory) -> dict[str, np.ndarray]:
    """The CSV_HEADER columns of a trajectory, one curvature kernel call per column set.

    The kernels use only elementwise + - * /, so evaluating them on the state
    columns gives the same bits as evaluating them one row at a time.
    """
    S = trajectory.states
    m = SimpleNamespace(A=S[:, 0], B=S[:, 1], C=S[:, 2])
    with np.errstate(all="ignore"):  # float arithmetic, as row by row: inf and nan without warnings
        k = sectional_curvatures(trajectory.geometry, m)
        h = cross_curvature_diag(trajectory.geometry, m)
    n = len(trajectory.times)
    values = (trajectory.times, m.A, m.B, m.C, *k, *h)  # TRIVIAL's kernels return scalar zeros
    return {name: np.broadcast_to(v, (n,)) for name, v in zip(CSV_HEADER.split(","), values)}


def _float_lines(columns) -> list[str]:
    """CSV lines of 17-significant-digit cells from equal-length float array columns.

    One `%` format per row; `%.17g` and `format(x, ".17g")` give the same text.
    """
    columns = list(columns)
    row_format = ",".join(["%.17g"] * len(columns))
    return list(map(row_format.__mod__, zip(*(c.tolist() for c in columns))))


def trajectory_csv_text(trajectory: Trajectory, config: RunConfig | None = None) -> str:
    """CSV for a trajectory, one sample per row, 17 significant digits."""
    comment = None if config is None else f"# config: {_config_json(config)}"
    return _csv_text(comment, CSV_HEADER, _float_lines(_sample_columns(trajectory).values()))


class ParsedCsv(Record, eq=False):
    comment: str | None
    columns: dict


def parse_trajectory_csv(text: str) -> ParsedCsv:
    """Parse CSV produced by `trajectory_csv_text` into named float columns."""
    lines = text.splitlines()
    comment = None
    i = 0
    if lines and lines[0].startswith("#"):
        comment = lines[0]
        i = 1
    if i >= len(lines) or lines[i] != CSV_HEADER:
        raise ConfigError(f"missing or unexpected header; expected {CSV_HEADER!r}")
    names = lines[i].split(",")
    rows = [line.split(",") for line in lines[i + 1 :] if line]
    if set(map(len, rows)) - {len(names)}:
        bad = next(len(row) for row in rows if len(row) != len(names))
        raise ConfigError(f"row has {bad} fields, expected {len(names)}")
    data = zip(*rows) if rows else [()] * len(names)
    columns = {name: np.array(list(map(float, cells))) for name, cells in zip(names, data)}
    return ParsedCsv(comment, columns)


def emit_parsed_csv(parsed: ParsedCsv) -> str:
    """Re-emit a parsed CSV; inverse of `parse_trajectory_csv` byte for byte."""
    return _csv_text(parsed.comment, ",".join(parsed.columns), _float_lines(parsed.columns.values()))


def trajectory_json_document(trajectory: Trajectory, config: RunConfig) -> dict:
    """JSON document {meta, samples, termination, analysis} for a run."""
    samples = {name: col.tolist() for name, col in _sample_columns(trajectory).items()}
    meta = {
        "geometry": trajectory.geometry.value,
        "flow": trajectory.spec.name,
        "init": list(trajectory.m0.as_tuple()),
        "config": config.to_dict(),
        "n_samples": len(trajectory.times),
    }
    analysis = verify(trajectory).to_dict() if config.analysis else None
    return {
        "meta": meta,
        "samples": samples,
        "termination": trajectory.termination.to_dict(),
        "analysis": analysis,
    }


def _open_output(path: str):
    """The stream a command writes to, as a context manager: stdout for "-", else the file, truncated.

    Commands open it before they integrate anything, so that a path that
    cannot be written is reported at once rather than after the work.
    """
    if path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# Subcommands.


def _load_config_file(explicit_path: str | None) -> dict:
    path = explicit_path or os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _effective_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig().merged(_load_config_file(args.config))
    # every field has a flag of the same name, except `analysis` (--no-analysis)
    flags = {name: getattr(args, name, None) for name in RunConfig._fields}
    flags["analysis"] = False if args.no_analysis else None
    return cfg.merged(flags)


def _integrator_options(settings) -> IntegratorOptions:
    """`IntegratorOptions` from the like-named attributes of a `RunConfig` or of parsed scan flags.

    An option `settings` lacks keeps its default: `flow scan` has no `--samples`.
    """
    return IntegratorOptions(**{name: getattr(settings, name, default)
                                for name, default in IntegratorOptions._field_defaults.items()})


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _effective_run_config(args)
    geometry = Geometry.from_name(cfg.geometry)
    spec = FlowSpec.from_name(cfg.flow)
    m0 = MetricDiag(*cfg.init)
    options = _integrator_options(cfg)
    with _open_output(cfg.output) as out:
        trajectory = integrate(geometry, spec, m0, options)
        if cfg.format == "csv":
            out.write(trajectory_csv_text(trajectory, cfg))
        else:
            out.write(_json_text(trajectory_json_document(trajectory, cfg)) + "\n")
    term = trajectory.termination
    print(f"terminated: {term.kind.value} at t={term.t_stop:.12g}", file=sys.stderr)
    if term.kind is TerminationKind.STEP_BUDGET_EXHAUSTED:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    suite = args.suite
    if suite == "all":
        criteria = acceptance.ALL_CRITERIA
    else:
        criteria = acceptance.criteria_for_geometry(Geometry.from_name(suite))
    # without --output the report is not written at all; stdout carries the criterion lines
    with nullcontext() if args.output == "-" else _open_output(args.output) as report_file:
        results, reports = acceptance.run_suite(criteria)
        for result in results:
            print(result.line())
        if report_file is not None:
            doc = {
                "suite": suite,
                "passed": all(r.passed for r in results),
                "criteria": [r.to_dict() for r in results],
                "reports": reports,
            }
            report_file.write(_json_text(doc) + "\n")
    failing = [r for r in results if not r.passed]
    if failing:
        print("failing criteria: " + ", ".join(f"{r.number} ({r.name})" for r in failing), file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _parse_axis(text: str) -> np.ndarray:
    """A grid axis from VALUE or MIN:MAX:COUNT[:log].

    Every number in the text is checked before numpy builds the axis, which
    then holds only finite positive values: linspace and geomspace stay
    between two such endpoints.
    """
    parts = str(text).split(":")
    if len(parts) not in (1, 3, 4):
        raise ConfigError(f"bad grid axis {text!r}; expected VALUE or MIN:MAX:COUNT[:log]")
    ends = [_axis_value(text, part) for part in parts[:2]]
    if len(parts) == 1:
        return np.array(ends)
    try:
        count = int(parts[2])
    except ValueError:
        raise ConfigError(f"grid axis {text!r}: the count must be a whole number, got {parts[2]!r}") from None
    if len(parts) == 4 and parts[3] != "log":
        raise ConfigError(f"bad grid axis suffix {parts[3]!r}; only 'log' is understood")
    if count < 1:
        raise ConfigError("grid axis count must be at least 1")
    if count > GRID_LIMIT:
        raise ConfigError(f"grid axis {text!r} has {count} points; the limit is {GRID_LIMIT}")
    if count == 1:
        return np.array(ends[:1])
    return (np.geomspace if len(parts) == 4 else np.linspace)(*ends, count)


def _axis_value(text: str, part: str) -> float:
    try:
        value = float(part)
    except ValueError:
        raise ConfigError(f"grid axis {text!r} holds {part!r}, which is not a number") from None
    if not (isfinite(value) and value > 0.0):
        raise ConfigError(f"grid axis {text!r} holds {value!r}; values must be finite and positive")
    return value


def _canonical(geometry: Geometry, point: tuple) -> tuple[float, float, float]:
    """A grid point relabeled by `canonical_permutation`: every ordering of a datum on its symmetric axes gives the same triple."""
    return tuple([point[i] for i in canonical_permutation(geometry, MetricDiag(*point))])


def _volume_factor(datum: tuple, volume: float) -> float:
    """The factor that scales a canonical datum to `A*B*C = volume`.

    It is computed in the canonical labels, so reordered twins get the same
    factor and so the same scaled datum bit for bit.
    """
    return (volume / (datum[0] * datum[1] * datum[2])) ** (1.0 / 3.0)


_OWN_FLAG_BRANCHES = {name for axes, name, _ in SYMMETRIC_BRANCHES.values() if axes}  # symmetric: the flag is the name


def _scan_point(payload: tuple) -> list[str]:
    """The SCAN_HEADER cells after `C0` for one grid point.

    The point is relabeled to its canonical datum, and then scaled when a
    volume is given, so a point and a reordered twin have the same cells.
    Every cell but the flag reads only the termination, m0 or the branch.
    The one branch below says what each row runs and what its flag reads,
    and no row reads `options.samples`:

    - a branch with its own flag, and every geometry but Sol and SL(2,R):
      the bare stepper (`terminate`), no step table and no dense output;
      the flag is the branch's name, or empty;
    - generic Sol: `integrate` with two samples, whose last row has the
      same bits as at any sample count, since the dense output is
      elementwise; the flag compares 3C with A there;
    - generic SL(2,R): the stepper's accepted states (`accepted_states`),
      whose last row on a run that reached t_max is its dense output there,
      the same bits as the last row of `integrate` at any sample count; the
      flag says whether they enter the trapping region and stay.
    """
    geometry, spec, a, b, c, options, volume = payload
    datum = _canonical(geometry, (a, b, c))
    m0 = MetricDiag(*datum)
    if volume is not None:
        m0 = m0.scaled(_volume_factor(datum, volume))
    branch = classify_branch(geometry, m0)
    if branch in _OWN_FLAG_BRANCHES or geometry not in (Geometry.SOL, Geometry.SL2R):
        term = terminate(geometry, spec, m0, options)
        flag = branch if branch in _OWN_FLAG_BRANCHES else ""
    elif geometry is Geometry.SOL:
        trajectory = integrate(geometry, spec, m0, options._replace(samples=2))
        term, (A, _, C) = trajectory.termination, trajectory.states[-1]
        flag = "3C>A" if 3.0 * C > A else ""
    else:
        term, states = accepted_states(geometry, spec, m0, options)
        flag = "entered-region" if sl2r_trapping_entry(states)[1] else "no-region"
    blowup = "%.17g" % estimate_blowup_time(term) if term.kind is TerminationKind.SINGULAR_TIME else ""
    return [term.kind.value, "%.17g" % term.t_stop, blowup, branch, flag]


def _occurrences(geometry: Geometry, datum: tuple, counts: list[Counter]) -> int:
    """How many grid points relabel to a canonical datum.

    They are the distinct orderings of its values on the geometry's
    `SYMMETRIC_BRANCHES` axes, the other axes fixed, each as often as the
    product of the counts of its values on the three axes.
    """
    axes = SYMMETRIC_BRANCHES[geometry][0]
    point = list(datum)
    total = 0
    for values in set(permutations([datum[i] for i in axes])):
        for i, value in zip(axes, values):
            point[i] = value
        total += counts[0][point[0]] * counts[1][point[1]] * counts[2][point[2]]
    return total


def _grid_data(geometry: Geometry, axes: list[list[float]]):
    """(point, datum, first, later) for each grid point in grid order, A outermost and C innermost.

    `datum` is the point's canonical datum: reordered twins share it, and so
    do the points that duplicate axis values repeat.  `first` marks the
    datum's first point in grid order and `later` counts its points still to
    come.  Only data that recur have an entry in the table of open counts,
    from their first point to their last.
    """
    counts = [Counter(axis) for axis in axes]
    left: dict = {}  # datum -> its points still to come
    for point in product(*axes):
        datum = _canonical(geometry, point)
        first = datum not in left
        later = (_occurrences(geometry, datum, counts) if first else left.pop(datum)) - 1
        if later:
            left[datum] = later
        yield point, datum, first, later


def ProcessPoolExecutor(max_workers: int):
    """`concurrent.futures.ProcessPoolExecutor`, imported only when a scan starts workers.

    The import pulls in `multiprocessing`, `subprocess` and `socket`, which a
    one-process scan and every other command never use.
    """
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def cmd_scan(args: argparse.Namespace) -> int:
    geometry = Geometry.from_name(args.geometry)
    spec = FlowSpec.from_name(args.flow)
    volume = args.normalize_volume
    if volume is not None and not (isfinite(volume) and volume > 0.0):
        raise ConfigError(f"--normalize-volume must be finite and positive, got {volume!r}")
    axes = [_parse_axis(text) for text in (args.grid_A, args.grid_B, args.grid_C)]
    total = len(axes[0]) * len(axes[1]) * len(axes[2])
    if total > GRID_LIMIT:
        raise ConfigError(f"grid has {total} points; the limit is {GRID_LIMIT}")
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    # built once here, so that a bad option is reported before any worker starts
    options = _integrator_options(args)
    axes = [axis.tolist() for axis in axes]
    # each datum is integrated at its first point; the row writer meets the
    # same first points in its own pass, however far the pool reads ahead
    payloads = ((geometry, spec, *point, options, volume)
                for point, _, first, _ in _grid_data(geometry, axes) if first)
    points = _grid_data(geometry, axes)
    # the pool starts all its workers at once, so it gets no more than there
    # are points and processors this process may run on; the rows do not depend on the count
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(args.workers, total, cpus)
    # each row is written in grid order as soon as it is done, so an
    # interrupted scan leaves the header and a prefix of valid rows
    with _open_output(args.output) as out:
        out.write(SCAN_HEADER + "\n")
        if workers == 1:
            _write_scan_rows(out, points, map(_scan_point, payloads), volume, {})
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunk = max(1, total // (4 * workers))
                _write_scan_rows(out, points, pool.map(_scan_point, payloads, chunksize=chunk), volume, {})
    return EXIT_OK


def _write_scan_rows(out, points, cells, volume: float | None, memo: dict) -> None:
    """Write each grid point's row in grid order, as soon as its cells are known.

    `points` is `_grid_data` of the grid and `cells` yields `_scan_point` of
    each datum's first point, in order.  The cells of a datum with points
    still to come wait in `memo`, which is empty again after the last row.
    `A0,B0,C0` are the point's own, scaled by its datum's factor when a
    volume is given.
    """
    for index, (point, datum, first, later) in enumerate(points):
        row = next(cells) if first else memo.pop(datum)
        if later:
            memo[datum] = row
        if volume is not None:
            factor = _volume_factor(datum, volume)
            point = [factor * x for x in point]
        out.write(",".join([str(index), *["%.17g" % x for x in point], *row]) + "\n")


# ---------------------------------------------------------------------------
# Argument parsing.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flow",
        description="Simulate cross curvature flow on locally homogeneous 3-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate one initial datum and write the trajectory")
    run.add_argument("--geometry", choices=_GEOMETRY_NAMES, default=None)
    run.add_argument("--flow", choices=FLOWS, default=None)
    run.add_argument("--init", default=None, metavar="A,B,C", help="initial diagonal metric")
    run.add_argument("--t-max", type=float, default=None)
    run.add_argument("--rtol", type=float, default=None)
    run.add_argument("--atol", type=float, default=None)
    run.add_argument("--samples", type=int, default=None)
    run.add_argument("--max-steps", type=int, default=None,
                     help="step-attempt budget (accepted plus rejected steps) before giving up")
    run.add_argument("--output", default=None, metavar="PATH", help="output file, - for stdout")
    run.add_argument("--format", choices=("csv", "json"), default=None)
    run.add_argument("--config", default=None, metavar="PATH",
                     help=f"JSON config file (default: ${ENV_CONFIG})")
    run.add_argument("--no-analysis", action="store_true",
                     help="omit the analysis block from JSON output")
    run.set_defaults(handler=cmd_run)

    ver = sub.add_parser("verify", help="run the acceptance criteria for a geometry or all")
    ver.add_argument("suite", choices=_GEOMETRY_NAMES + ("all",))
    ver.add_argument("--output", default="-", metavar="PATH", help="JSON report file")
    ver.set_defaults(handler=cmd_verify)

    scan = sub.add_parser("scan", help="classify a grid of initial data")
    scan.add_argument("--geometry", choices=_GEOMETRY_NAMES, required=True)
    scan.add_argument("--flow", choices=FLOWS, default="xcf-")
    scan.add_argument("--grid-A", required=True, metavar="SPEC",
                      help="VALUE or MIN:MAX:COUNT[:log]")
    scan.add_argument("--grid-B", required=True, metavar="SPEC")
    scan.add_argument("--grid-C", required=True, metavar="SPEC")
    scan.add_argument("--t-max", type=float, default=IntegratorOptions.t_max)
    scan.add_argument("--rtol", type=float, default=IntegratorOptions.rtol)
    scan.add_argument("--atol", type=float, default=IntegratorOptions.atol)
    scan.add_argument("--max-steps", type=int, default=IntegratorOptions.max_steps,
                      help="step-attempt budget of each grid point, counted as for run")
    scan.add_argument("--normalize-volume", type=float, default=None, metavar="V",
                      help="rescale each initial datum so that A*B*C = V")
    scan.add_argument("--workers", type=int, default=1)
    scan.add_argument("--output", default="-", metavar="PATH")
    scan.set_defaults(handler=cmd_scan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as e:  # ConfigError, invalid values found further down, unusable files
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
