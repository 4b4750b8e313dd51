"""The benchmark's workloads: how each builds its inputs, runs, and is
checked.

Every workload calls the library the way a user does.  ``build`` makes
the inputs from the seed (and is timed as set-up); ``run`` is the timed
body, ending with the correctness gates.  A gate that fails is counted,
never raised, so one bad result cannot abort a run.

Every body runs CLI commands in-process through ``cli.main``, so the
benchmark times the code users run, report writing included.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import traceback
from pathlib import Path

from strataglue import cli, family

# arc lengths of the torus top moduli space (c0, c3), as produced by
# `strataglue morse --system torus --resolution 64` at the commit that
# defined this benchmark; lengths are compared sorted
TORUS_ARC_LENGTHS = (0.98762, 0.98766, 7.33091, 7.33095)
ARC_LENGTH_RTOL = 1e-3
TORUS_GAP_ONE = ("c0|c1", "c0|c2", "c1|c3", "c2|c3")


class Gates:
    """Correctness-gated operations of one run: attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    @contextlib.contextmanager
    def guarded(self, name: str):
        """Count an unexpected exception in a gate block as one failure."""
        try:
            yield
        except Exception as exc:  # a gate must never abort the run
            self.check(name, False, f"{type(exc).__name__}: {exc}")


def _run_cli(argv, outputs, gates: Gates) -> None:
    """Run one CLI command in-process and gate its exit code.

    The command's output files are removed first, so the gates read
    what this command wrote and never a stale file from an earlier body.
    """
    for path in outputs:
        path.unlink(missing_ok=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed operation, not a dead run
        traceback.print_exc(file=sys.stderr)
        rc = "exception"
    gates.check(f"exit 0: {' '.join(argv[:3])}", rc == 0, f"exit {rc}")


def _gate_rows(report: dict, expected: int | None, gates: Gates, label: str) -> None:
    rows = report["checks"]
    if expected is not None:
        gates.check(f"{label} row count", len(rows) == expected, f"{len(rows)} != {expected}")
    for row in rows:
        gates.check(
            f"{label} {row['I1']} {row['I2']} on {row['pair']}",
            row["pass"] is True,
            f"residual {row['max_residual']}",
        )


# ---------------------------------------------------------------------
# morse
# ---------------------------------------------------------------------


class MorseWorkload:
    """`strataglue morse` on a built-in system.

    The seed does not enter: `morse` has no random input, and its
    `--seed` flag changes nothing.
    """

    resolution = 64

    def __init__(self, name: str, system: str, export: bool):
        self.name = name
        self.system = system
        self.export = export

    def build(self, seed: int, workdir: Path) -> dict:
        out = workdir / self.name
        out.mkdir(parents=True, exist_ok=True)
        argv = [
            "morse", "--system", self.system,
            "--resolution", str(self.resolution), "--out", str(out),
        ]
        outputs = [out / "morse_report.json"]
        if self.export:
            outputs.append(out / f"{self.system}_family.json")
            argv += ["--export", str(outputs[-1])]
        return {"argv": argv, "outputs": outputs}

    def run(self, inputs: dict) -> Gates:
        gates = Gates()
        _run_cli(inputs["argv"], inputs["outputs"], gates)
        with gates.guarded("morse report readable"):
            report = json.loads(inputs["outputs"][0].read_text())
            _gate_rows(report, None, gates, "morse")
            self.gate(report, inputs, gates)
        return gates

    def gate(self, report: dict, inputs: dict, gates: Gates) -> None:
        raise NotImplementedError


class TorusWorkload(MorseWorkload):
    def gate(self, report, inputs, gates):
        indices = [c["index"] for c in report["critical_points"]]
        gates.check("torus indices", indices == [2, 1, 1, 0], str(indices))
        pairs = report["pairs"]
        for key in TORUS_GAP_ONE:
            count = pairs.get(key, {}).get("count")
            gates.check(f"torus {key} trajectories", count == 2, f"count {count}")
        arcs = pairs.get("c0|c3", {}).get("arcs", [])
        gates.check("torus arcs", len(arcs) == 4, f"{len(arcs)} arcs")
        ends = [e for arc in arcs for e in arc["ends"]]
        keys = {(e["junction"], e["left_index"], e["right_index"]) for e in ends}
        gates.check("torus distinct ends", len(ends) == 8 and len(keys) == 8,
                    f"{len(keys)} distinct of {len(ends)}")
        for e in ends:
            gates.check(f"torus end {e['junction']} hausdorff", e["hausdorff"] < 1e-2,
                        f"{e['hausdorff']:.3e}")
        lengths = sorted(arc["length"] for arc in arcs)
        gates.check("torus arc lengths", len(lengths) == len(TORUS_ARC_LENGTHS) and all(
            math.isclose(a, b, rel_tol=ARC_LENGTH_RTOL)
            for a, b in zip(lengths, TORUS_ARC_LENGTHS)
        ), str(lengths))
        gates.check("torus export written", inputs["outputs"][1].is_file())


class SphereWorkload(MorseWorkload):
    def gate(self, report, inputs, gates):
        circles = [d["circle"] for d in report["pairs"].values() if "circle" in d]
        gates.check("sphere circle pairs", len(circles) == 1, f"{len(circles)} circles")
        for length in circles:
            gates.check("sphere circle length", abs(length - 2 * math.pi) < 0.05, f"{length}")


# ---------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------


class AffineVerifyWorkload:
    """`strataglue verify` on cube5 and on the committed torus family."""

    name = "verify-affine"
    resolution = 0

    def __init__(self, torus_family: Path):
        self.torus_family = torus_family

    def build(self, seed: int, workdir: Path) -> dict:
        if not self.torus_family.is_file():
            raise FileNotFoundError(self.torus_family)
        runs = []
        for label, source, rows in (
            ("cube5", "cube5", 221),
            ("torus", str(self.torus_family), 7),
        ):
            out = workdir / self.name / label
            out.mkdir(parents=True, exist_ok=True)
            argv = ["verify", "--family", source, "--seed", str(seed), "--out", str(out)]
            runs.append((label, argv, out / "verify_report.json", rows))
        return {"runs": runs}

    def run(self, inputs: dict) -> Gates:
        gates = Gates()
        for label, argv, report_path, rows in inputs["runs"]:
            _run_cli(argv, [report_path], gates)
            with gates.guarded(f"{label} report readable"):
                report = json.loads(report_path.read_text())
                _gate_rows(report, rows, gates, label)
        return gates


class StretchedVerifyWorkload:
    """`strataglue verify --samples 256 --tol 1e-9` on stretched cube3.

    The stretched family has no file form, so it is built in-process at
    set-up, and during the body the CLI's family loader is swapped for
    one that returns it by the name ``stretched-cube3``.  Everything
    else is the CLI command as users run it.
    """

    name = "verify-stretched"
    resolution = 0
    source = "stretched-cube3"
    rows = 19

    def build(self, seed: int, workdir: Path) -> dict:
        fam = family.with_target_diffeo(
            family.cube_family(3), ("p0", "p3"), family.stretch_diffeo(2)
        )
        out = workdir / self.name
        out.mkdir(parents=True, exist_ok=True)
        argv = [
            "verify", "--family", self.source, "--samples", "256", "--tol", "1e-9",
            "--seed", str(seed), "--out", str(out),
        ]
        return {"family": fam, "argv": argv, "report": out / "verify_report.json"}

    def run(self, inputs: dict) -> Gates:
        gates = Gates()
        load = cli._load_family
        cli._load_family = lambda source: (
            inputs["family"] if source == self.source else load(source)
        )
        try:
            _run_cli(inputs["argv"], [inputs["report"]], gates)
        finally:
            cli._load_family = load
        with gates.guarded("stretched report readable"):
            report = json.loads(inputs["report"].read_text())
            _gate_rows(report, self.rows, gates, "stretched")
            # the stretch must put a corrected chart on (p0, p3), or the
            # affine path is what gets measured
            corrected = [
                r["chain"] for r in report["atlas"]
                if r["pair"] == ["p0", "p3"] and len(r["chain"]) > 2 and not r["affine"]
            ]
            gates.check("stretched (p0,p3) uses corrected charts", bool(corrected))
        return gates


def workloads(root: Path) -> dict:
    items = [
        TorusWorkload("morse-torus", "torus", export=True),
        SphereWorkload("morse-sphere", "sphere", export=False),
        StretchedVerifyWorkload(),
        AffineVerifyWorkload(root / "perfbench" / "data" / "torus.json"),
    ]
    return {w.name: w for w in items}
