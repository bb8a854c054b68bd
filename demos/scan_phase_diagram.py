"""
Parameter sweeps: a phase diagram from the command line
=======================================================

The `flow scan` subcommand integrates a whole grid of initial metrics and
emits one CSV row per grid point: termination kind, singular-time estimate,
branch, and a geometry-specific flag.  This script drives it in-process over
a 9 x 9 slice of Sol initial data (B0 fixed): 81 points, but only 45 runs,
since the scan integrates a point with C0 > A0 as its mirror image A0 <-> C0
and shares that run with the mirrored grid point.

On Sol the flag records whether 3C > A holds at the last state of the run.
Since A - 3C only decreases, that is the same as 3C > A holding at some
point of the run.  The claim worth checking is that this happens for
*every* generic datum -- even ones that start deep in the A >= 3C wedge,
where A - 3C must cross zero on the way to the singularity.  The diagram
marks that wedge separately.

Legend:  '=' symmetric collapse (A0 = C0)
         '*' started with A0 >= 3 C0, yet still ended with 3C > A
         '.' started with 3 C0 > A0 (and kept it, as A - 3C only decreases)
"""

import csv
import io
from contextlib import redirect_stdout

from xcflow.cli import main

# -- run the sweep -----------------------------------------------------------------

grid = "0.5:4.5:9"
buf = io.StringIO()
with redirect_stdout(buf):
    code = main([
        "scan", "--geometry", "sol",
        "--grid-A", grid, "--grid-B", "4", "--grid-C", grid,
        "--t-max", "10",
    ])
assert code == 0
rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
print(f"scanned {len(rows)} initial metrics; all singular: "
      f"{all(r['termination'] == 'singular_time' for r in rows)}")

# -- render ----------------------------------------------------------------------

generic = [r for r in rows if r["branch"] == "generic"]
print(f"flag '3C>A' set on every generic row: "
      f"{all(r['flag'] == '3C>A' for r in generic)}")


def cell(r):
    if r["branch"] == "symmetric":
        return "="
    a0, c0 = float(r["A0"]), float(r["C0"])
    return "*" if max(a0, c0) >= 3.0 * min(a0, c0) else "."


cells = {(float(r["A0"]), float(r["C0"])): cell(r) for r in rows}
a_values = sorted({float(r["A0"]) for r in rows})
c_values = sorted({float(r["C0"]) for r in rows})

print("\n        A0 ->")
print("        " + "  ".join(f"{a:3.1f}" for a in a_values))
for c in reversed(c_values):
    line = "    ".join(cells[(a, c)] for a in a_values)
    print(f"C0={c:3.1f}  {line}")

print("\nthe '=' diagonal is the symmetric branch; every '*' cell started")
print("with one coefficient at least 3x the other and was still overtaken")

# -- singular times across the grid ---------------------------------------------

t0s = [float(r["blowup_time"]) for r in rows]
print(f"\nsingular times across the grid: min {min(t0s):.4f}, max {max(t0s):.4f}")
print("(B0 = 4 fixed; the symmetric value is B0^2/64 = 0.25)")
