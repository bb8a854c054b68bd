"""Host-speed probe: a fixed slice of reference work, timed around and during a measured span.

A shared host runs the same code at speeds up to 2x apart, in phases that
last from seconds to minutes, and process CPU time follows wall time through
them.  So a run's median wall time mostly measures which phase the run fell
in.  The probe measures that phase.  It times a fixed slice of pure-Python
work just before and just after a span, and, on an interval timer, every
TICK_S seconds during it.  The workload time is then rescaled to a host on
which one slice takes NOMINAL_S:

    norm_s = raw_s * NOMINAL_S / mean(slice times in and around the span)

raw_s is the span minus the time spent in the probe's own slices.  The slice
uses nothing from xcflow, so a change to xcflow moves norm_s exactly as much
as it moves raw_s on a steady host.  The slice is pure Python, without numpy,
so that it can also run before `import xcflow` pulls numpy in, and this
module imports only what the interpreter has loaded by then.
"""

from __future__ import annotations

import signal
import time

TICK_S = 0.1  # interval between slices inside a span
SLICE_LOOPS = 2000  # about 4 ms per slice, so the probe takes about 4% of a span
NOMINAL_S = 0.004  # one slice on a quiet core of a 2 GHz Xeon VM (Python 3.11)


def reference_slice() -> float:
    """Run the fixed reference work once; return its duration in seconds."""
    clock = time.perf_counter
    t0 = clock()
    acc = 0.0
    table: dict[int, float] = {}
    values = [0.5 * k for k in range(16)]
    for i in range(SLICE_LOOPS):
        x = i * 0.25
        for v in values:
            acc += (x * v + 1.0) % 3.0
        table[i & 31] = acc
        acc = max(acc - table.get((i + 7) & 31, 0.0) * 1e-3, 0.0)
    return clock() - t0


class HostSpeed:
    """Collects (start, duration) of every reference slice run in this process."""

    def __init__(self) -> None:
        self.slices: list[tuple[float, float]] = []
        reference_slice()  # warm-up: the interpreter specializes the loop

    def sample(self) -> None:
        start = time.perf_counter()
        self.slices.append((start, reference_slice()))

    def _tick(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        """A slice now, then one every TICK_S until stop()."""
        self.sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def span(self, t0: float, t1: float) -> dict:
        """raw_s, norm_s and the slices used, for the span [t0, t1] of perf_counter time.

        The slices used are those inside the span plus the nearest one on
        either side of it.
        """
        inside = [s for s in self.slices if t0 <= s[0] < t1]
        before = [s for s in self.slices if s[0] + s[1] <= t0]
        after = [s for s in self.slices if s[0] >= t1]
        used = inside + before[-1:] + after[:1]
        raw_s = (t1 - t0) - sum(d for _, d in inside)
        slice_s = sum(d for _, d in used) / len(used)
        return {"raw_s": raw_s, "norm_s": raw_s * NOMINAL_S / slice_s, "slice_s": slice_s, "slices": len(used)}
