"""One benchmark workload in a fresh interpreter.

Started by run.py, never by hand.  Imports strataglue from the
checkout's ``src`` (timed), builds the workload's inputs (timed), and,
unless ``--setup-only``, runs the workload body repeatedly: as often as
fits in ``--seconds``, and at least ``MIN_BODIES`` times.  With ``--trace 1`` it
alternates untraced and traced bodies, so the two can be compared.
Prints one JSON line.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# every run takes the median of at least this many bodies, however long
# each one is: one torus body alone swings by a quarter on a busy host
MIN_BODIES = 2


def _timed_body(workload, inputs, tracer=None):
    t0 = time.perf_counter()
    if tracer is None:
        gates = workload.run(inputs)
    else:
        gates = tracer.run(lambda: workload.run(inputs))
    return time.perf_counter() - t0, gates


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import strataglue
    import strataglue.cli  # noqa: F401  (the CLI is part of what users import)
    import_s = time.perf_counter() - t0
    if Path(strataglue.__file__).resolve().parent != SRC / "strataglue":
        print(f"strataglue imported from {strataglue.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    known = workloads.workloads(ROOT)
    if args.workload not in known:
        print(f"unknown workload {args.workload!r}; known: {sorted(known)}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    workload = known[args.workload]
    inputs = workload.build(args.seed, Path(args.workdir))
    build_s = time.perf_counter() - t0
    out = {"import_s": import_s, "build_s": build_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    import spans

    iterations, failures, layer_runs, tracer = [], [], [], None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in (False, True) if args.trace else (False,):
            if traced:
                tracer = spans.Tracer()
                tracer.install()
                try:
                    solve_s, gates = _timed_body(workload, inputs, tracer)
                finally:
                    tracer.uninstall()
                layer_runs.append(spans.layer_metrics(tracer, workload.resolution))
            else:
                solve_s, gates = _timed_body(workload, inputs)
            iterations.append({
                "solve_s": solve_s, "traced": traced,
                "attempted": gates.attempted, "failed": len(gates.failures),
            })
            failures.extend(f for f in gates.failures if f not in failures)
        # stop before a round that would end past --seconds
        now = time.perf_counter()
        next_end = (now - start) + (now - round_start)
        if len(iterations) >= MIN_BODIES and next_end > args.seconds:
            break

    out.update(
        iterations=iterations,
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if layer_runs:
        out["per_layer"] = {
            name: None if layer_runs[0][name] is None
            else statistics.fmean(run[name] for run in layer_runs)
            for name in layer_runs[0]
        }
        out["absent"] = tracer.absent
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(tracer.records()))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
