"""One repetition of one workload in a fresh interpreter.

Started by run.py as `python -I bench/child.py ...`; never imported.  It
times `import xcflow`, runs the workload (traced or not) in its work
directory, checks and hashes the outputs, and writes one JSON result file.
With --mode setup it only times the import.  Every time is reported twice:
as measured (`*_raw_s`, less the probe's own slices) and rescaled to the
host speed that bench/hostspeed.py measures around and during it.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work", type=Path, required=True, help="empty directory the workload writes into")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans (.npz)")
    args = parser.parse_args()

    sys.path.insert(0, str(HERE))
    from hostspeed import HostSpeed

    probe = HostSpeed()
    sys.path.insert(0, str(SRC))
    probe.start()
    t_import = time.perf_counter()
    import xcflow
    import xcflow.cli

    t_imported = time.perf_counter()
    probe.stop()
    setup = probe.span(t_import, t_imported)
    if Path(xcflow.__file__).resolve().parent != SRC / "xcflow":
        print(f"error: imported xcflow from {xcflow.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {"setup_s": setup["norm_s"], "setup_raw_s": setup["raw_s"], "numpy": sys.modules["numpy"].__version__}
    if args.mode != "setup":
        import workloads

        inputs = workloads.make_inputs(args.workload, args.seed, args.smoke)
        api = workloads.Api(xcflow.cli.main, xcflow.cli.parse_trajectory_csv, xcflow.cli.emit_parsed_csv)
        tracer = None
        if args.mode == "trace":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            api = workloads.Api(tracer.wrap("cli.main", api.main), tracer.wrap("cli.parse_trajectory_csv", api.parse_csv),
                                tracer.wrap("cli.emit_parsed_csv", api.emit_csv))
        os.chdir(args.work)
        probe.start()
        cpu0 = time.process_time()
        outcome = workloads.run(args.workload, inputs, api)
        cpu_s = time.process_time() - cpu0
        probe.stop()
        if tracer is not None:
            tracer.uninstall()
        spans = {name: probe.span(t0, t1) for name, (t0, t1) in outcome.spans.items()}
        checked = workloads.check(args.workload, inputs, outcome)
        result.update(
            wall_s=spans["wall"]["norm_s"],
            wall_raw_s=spans["wall"]["raw_s"],
            cpu_s=cpu_s,
            spans=spans,
            hash=workloads.output_hash(outcome),
            attempted=checked.attempted,
            failed=checked.failed,
            failures=checked.failures[:20],
            work=checked.work,
            margins=checked.margins,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            import layers

            result["trace"] = tracer.summary()
            result["trace"]["steps_accepted"] = sum(tr.termination.n_accepted for tr in tracer.trajectories)
            result["trace"]["steps_rejected"] = sum(tr.termination.n_rejected for tr in tracer.trajectories)
            if args.spans is not None:
                tracer.save(args.spans)
            result["layers"], result["layer_units"] = layers.measure(tracer.trajectories)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
