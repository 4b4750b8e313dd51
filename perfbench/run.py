"""strataglue benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload morse-torus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its
``src``.  Each invocation runs one workload, one process at a time:
first several set-up probes (fresh interpreters that import strataglue
and build the inputs), then one measuring process that repeats the
workload body for ``--seconds``.  All processes are single-threaded
(BLAS thread counts pinned to 1).

With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` they are the per-layer ones, from
bodies traced in-process, alternated with untraced bodies to give the
tracing overhead.  The last line of stdout is the JSON result; the full
record, with provenance, goes to ``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_DIR = ROOT / ".perfbench_run"
SETUP_PROBES = 2
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run (not a failed gate)."""


def _provenance(env) -> dict:
    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    cpu = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    revision = "unknown: not a git checkout"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if proc.returncode == 0:
            revision = proc.stdout.strip()

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "git_revision": revision,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {k: env[k] for k in THREAD_VARS},
        "loadavg_at_start": read("/proc/loadavg").strip(),
    }


def _worker(argv, env, deadline) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(args, bench) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({k: "1" for k in THREAD_VARS})
    provenance = _provenance(env)
    print(f"perfbench provenance: {json.dumps(provenance)}", file=sys.stderr)
    deadline = time.monotonic() + DEADLINE_S
    workdir = RUN_DIR / "work"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    setups = [_worker(common + ["--setup-only"], env, deadline) for _ in range(SETUP_PROBES)]
    spans_out = RUN_DIR / f"{args.workload}-seed{args.seed}-spans.json"
    measured = _worker(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--spans-out", str(spans_out)],
        env, deadline,
    )
    setups.append({"import_s": measured["import_s"], "build_s": measured["build_s"]})

    iterations = measured["iterations"]
    plain = [it["solve_s"] for it in iterations if not it["traced"]]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    for failure in measured["failures"]:
        print(f"perfbench gate failed: {failure}", file=sys.stderr)

    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        traced = [it["solve_s"] for it in iterations if it["traced"]]
        values = dict(measured["per_layer"])
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        for path, why in measured["absent"].items():
            print(f"perfbench probe absent: {path} ({why})", file=sys.stderr)
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {
            "setup_s": statistics.median(s["import_s"] + s["build_s"] for s in setups),
            "solve_s": statistics.median(plain),
            "peak_rss_mb": measured["peak_rss_mb"],
            "pass_ratio": 1.0 - failed / attempted if attempted else 0.0,
        }
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"no value for metrics {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance, "setup_probes": setups,
        "iterations": iterations, "failures": measured["failures"], "metrics": metrics,
    }
    out = RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "strataglue" / "__init__.py").is_file():
            raise BenchError(f"no strataglue sources under {ROOT / 'src'}")
        RUN_DIR.mkdir(exist_ok=True)
        # one workload at a time: a concurrent run on the same cores
        # inflates every timing
        with open(RUN_DIR / "lock", "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            result = run(args, bench)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
