"""Batch command-line entry point.

Three subcommands:

* ``generate`` — write a family description file (cube tower or a
  Morse-derived family) for later verification.
* ``verify``   — load a family, build its collar atlas, run every
  identity check, and emit a JSON report plus a CSV residual table.
* ``morse``    — analyze a flow system (built-in or symbolic), report
  critical points, trajectory counts and moduli structure, and
  optionally export the result as a family file.

Exit codes: 0 all checks pass, 1 identity failure, 2 input error,
3 numerical abort (a collar width underflow).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from . import morse
from .collar import (
    build_collars,
    check_associativity,
    check_compat_concat,
    check_compat_one_pair,
    check_differential,
    check_stratum_condition,
)
from .errors import InputError, NumericalError
from .family import cube_family, load_family, save_family, validate_family
from .poset import Chain, concat_chains

CSV_COLUMNS = ["family", "pair", "I1", "I2", "samples", "max_residual", "pass"]


def _chain_str(points) -> str:
    return "-".join(points)


def _write_report(out_dir, stem, doc, rows):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"schema_version": 1, **doc, "checks": rows}
    jpath = out / f"{stem}.json"
    cpath = out / f"{stem}.csv"
    jpath.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    with cpath.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in CSV_COLUMNS})
    return jpath, cpath


def _load_family(source: str):
    m = re.fullmatch(r"cube([0-9]+)", source)
    if m:
        return cube_family(int(m.group(1)))
    if source in morse.BUILTIN_SYSTEMS:
        return morse.export_family(morse.BUILTIN_SYSTEMS[source]())
    path = Path(source)
    if not path.exists():
        raise InputError(f"family source {source!r}: no such file or built-in")
    return load_family(path)


def _load_system(source: str):
    if source in morse.BUILTIN_SYSTEMS:
        return morse.BUILTIN_SYSTEMS[source]()
    path = Path(source)
    if not path.exists():
        raise InputError(f"system source {source!r}: no such file or built-in")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{source}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{source}: the top-level JSON value is not an object")
    section = doc.get("morse_system")
    if not isinstance(section, dict) or not isinstance(section.get("f"), str):
        raise InputError(f"{source}: no morse_system section with an f expression")
    dim = section.get("dim", 2)
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise InputError(f"{source}: morse_system dim must be an integer, got {dim!r}")
    period = section.get("period")
    if period is not None and not (
        isinstance(period, list)
        and len(period) == dim
        and all(p is None or _is_positive_number(p) for p in period)
    ):
        raise InputError(
            f"{source}: morse_system period must list {dim} entries, each "
            f"null or a positive number, got {period!r}"
        )
    return morse.system_from_expression(
        section["f"],
        dim,
        box=section.get("box"),
        period=period,
        name=doc.get("name", path.stem),
    )


def _is_positive_number(x) -> bool:
    return (
        isinstance(x, (int, float)) and not isinstance(x, bool)
        and 0 < x < math.inf
    )


# ---------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.what == "cube":
        if args.size is None:
            raise InputError("generate cube needs a size argument")
        family = cube_family(args.size)
        default_name = f"cube{args.size}.json"
    else:
        if args.size is not None:
            raise InputError(f"generate {args.what} takes no size argument")
        family = morse.export_family(morse.BUILTIN_SYSTEMS[args.what]())
        default_name = f"{args.what}.json"
    out = Path(args.out) if args.out else Path(default_name)
    # Path drops a trailing separator, which marks a directory to create
    if out.is_dir() or (args.out or "").endswith(("/", os.sep)):
        out = out / default_name
    out.parent.mkdir(parents=True, exist_ok=True)
    save_family(family, out)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------


def _proper_subchains(outer: Chain):
    """Strict subchains with the same endpoints, by dropping interior points."""
    for k in range(outer.length):
        for kept in combinations(outer.interior, k):
            yield Chain((outer.head, *kept, outer.tail))


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    if not 0 <= args.tol < np.inf:
        raise InputError(f"--tol must be a finite number >= 0, got {args.tol}")
    family = _load_family(args.family)
    rng = np.random.default_rng(args.seed)
    rows = []
    doc = {
        "command": "verify",
        "family": family.name,
        "config": {
            "family": args.family,
            "samples": args.samples,
            "tol": args.tol,
            "seed": args.seed,
            "epsilon_floor": args.epsilon_floor,
        },
    }

    report = validate_family(family, samples=64, rng=rng, tol=args.tol)
    doc["validation"] = [
        {
            "check": r.name,
            "subject": r.subject,
            "passed": r.passed,
            "residual": r.residual,
            "witness": r.witness,
        }
        for r in report.records
    ]
    rows.append(
        {
            "family": family.name,
            "pair": "*",
            "I1": "validate_family",
            "I2": "",
            "samples": 64,
            "max_residual": max(
                (r.residual for r in report.records if not r.passed), default=0.0
            ),
            "pass": report.passed,
        }
    )
    if not report.passed:
        fail = report.first_failure()
        _write_report(args.out, "verify_report", doc, rows)
        print(
            f"FAIL {fail.name} {fail.subject}: {fail.witness}",
            file=sys.stderr,
        )
        return 1

    atlas = build_collars(
        family,
        tol=args.tol,
        epsilon_floor=args.epsilon_floor,
        rng=rng,
        validate=False,
    )
    doc["atlas"] = atlas.records()

    def add_row(pair, i1, i2, samples, residual, passed):
        rows.append(
            {
                "family": family.name,
                "pair": _chain_str(pair),
                "I1": i1,
                "I2": i2,
                "samples": samples,
                "max_residual": residual,
                "pass": bool(passed),
            }
        )

    for p, q in sorted(family.pairs()):
        for outer in sorted(family.chains(p, q), key=lambda c: c.points):
            if outer.length < 1:
                continue
            for inner in _proper_subchains(outer):
                res = check_compat_one_pair(
                    atlas, outer, inner, samples=args.samples, rng=rng
                )
                add_row(
                    (p, q), f"nested:{_chain_str(outer.points)}",
                    _chain_str(inner.points), args.samples, res, res < args.tol,
                )
    for p, q in sorted(family.pairs()):
        for r in sorted(family.poset.below(p)):
            if not family.poset.precedes(r, q):
                continue
            for first in sorted(family.chains(p, r), key=lambda c: c.points):
                for second in sorted(family.chains(r, q), key=lambda c: c.points):
                    joined = concat_chains(first, second)
                    res = check_compat_concat(
                        atlas, first, second, samples=args.samples, rng=rng
                    )
                    add_row(
                        (p, q), f"concat:{_chain_str(joined.points)}",
                        f"{_chain_str(first.points)}*{_chain_str(second.points)}",
                        args.samples, res, res < args.tol,
                    )
    quads = sorted(
        {
            c.points
            for pq in family.pairs()
            for c in family.chains(*pq)
            if c.length == 2
        }
    )
    for quad in quads:
        res = check_associativity(
            atlas, quad, samples=max(4, args.samples // 64), grid=8, rng=rng
        )
        add_row(
            (quad[0], quad[-1]), "associativity", _chain_str(quad),
            args.samples, res, res < args.tol,
        )
    failures, total = check_stratum_condition(
        atlas, samples=args.samples, rng=rng
    )
    add_row(("*",), "stratum-condition", "", total, float(failures), failures == 0)
    for p, q in sorted(family.pairs()):
        deepest = max(family.chains(p, q), key=lambda c: c.length)
        if deepest.length >= 1:
            res = check_differential(atlas, deepest, samples=4, rng=rng)
            add_row(
                (p, q), "differential", _chain_str(deepest.points),
                4, res, res < 1e-5,
            )

    jpath, cpath = _write_report(args.out, "verify_report", doc, rows)
    bad = [r for r in rows if not r["pass"]]
    if bad:
        first = bad[0]
        print(
            f"FAIL {first['I1']} {first['I2']} on {first['pair']}: "
            f"residual {first['max_residual']:.3e}",
            file=sys.stderr,
        )
        return 1
    print(f"ok: {len(rows)} checks pass; report {jpath}, table {cpath}")
    return 0


# ---------------------------------------------------------------------
# morse
# ---------------------------------------------------------------------


def cmd_morse(args) -> int:
    if args.resolution < 1:
        raise InputError(f"--resolution must be at least 1, got {args.resolution}")
    system = _load_system(args.system)
    analysis = morse.analyze(system, resolution=args.resolution)
    rows = []
    doc = {
        "command": "morse",
        "system": system.name,
        "config": {
            "system": args.system,
            "resolution": args.resolution,
        },
        "critical_points": [
            {
                "id": c.id,
                "location": [float(x) for x in c.location],
                "value": c.value,
                "index": c.index,
                "gradient_norm": c.gradient_norm,
            }
            for c in analysis.critical_points
        ],
        "pairs": {},
        "transversality": [],
    }
    ok = True
    for (p, q), data in sorted(analysis.pairs.items()):
        if data.dim == 0:
            detail = {
                "dim": 0,
                "count": len(data.trajectories),
                "angles": [t.angle for t in data.trajectories],
            }
            residual = 0.0
        elif data.circle is not None:
            detail = {"dim": 1, "circle": data.circle}
            residual = 0.0
        else:
            detail = {
                "dim": 1,
                "arcs": [
                    {
                        "length": arc.length,
                        "ends": [
                            {
                                "junction": e.junction,
                                "left_index": e.left_index,
                                "right_index": e.right_index,
                                "hausdorff": e.hausdorff,
                            }
                            for e in arc.ends
                        ],
                    }
                    for arc in data.arcs
                ],
            }
            residual = max(e.hausdorff for a in data.arcs for e in a.ends)
        doc["pairs"][f"{p}|{q}"] = detail
        trep = morse.check_transversality(system, p, q, analysis=analysis)
        doc["transversality"].append(
            {
                "pair": [p, q],
                "expected_dim": trep["expected_dim"],
                "observed_dim": trep["observed_dim"],
                "min_angle": trep["min_angle"],
                "passed": bool(trep["dimension_match"]),
            }
        )
        passed = trep["dimension_match"] and residual < 1e-2
        ok = ok and passed
        rows.append(
            {
                "family": system.name,
                "pair": f"{p}-{q}",
                "I1": f"moduli-dim-{data.dim}",
                "I2": "circle" if data.circle is not None else (
                    f"arcs-{len(data.arcs)}" if data.dim else f"count-{len(data.trajectories)}"
                ),
                "samples": args.resolution,
                "max_residual": residual,
                "pass": bool(passed),
            }
        )
    if args.export:
        family = analysis.to_family()
        Path(args.export).parent.mkdir(parents=True, exist_ok=True)
        save_family(family, args.export)
        doc["exported_family"] = str(args.export)
    jpath, cpath = _write_report(args.out, "morse_report", doc, rows)
    if not ok:
        bad = next(r for r in rows if not r["pass"])
        print(f"FAIL {bad['pair']} {bad['I1']}", file=sys.stderr)
        return 1
    print(f"ok: {len(rows)} pairs analyzed; report {jpath}, table {cpath}")
    return 0


# ---------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------


# built once: a parser is a few hundred objects in reference cycles, which
# a fresh one per in-process ``main`` call leaves to the cycle collector
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strataglue",
        description="stratified families, collar atlases, gradient-flow moduli",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a family description file")
    gen.add_argument("what", choices=["cube", *morse.BUILTIN_SYSTEMS])
    gen.add_argument("size", nargs="?", type=int, default=None)
    gen.add_argument("--out", default=None, help="output file or directory")

    ver = sub.add_parser("verify", help="build collars and run all checks")
    ver.add_argument(
        "--family", required=True,
        help="family file, or built-in name (cubeN, torus, sphere, well, double)",
    )
    ver.add_argument("--samples", type=int, default=1024)
    ver.add_argument("--tol", type=float, default=1e-9)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", default=".")
    ver.add_argument("--epsilon-floor", type=float, default=1e-6)

    mor = sub.add_parser("morse", help="analyze a gradient-flow system")
    mor.add_argument(
        "--system", required=True,
        help="built-in name (torus, sphere, well, double) or a family file "
        "with a morse_system section",
    )
    mor.add_argument("--resolution", type=int, default=64)
    mor.add_argument("--out", default=".")
    mor.add_argument("--export", default=None, help="also write the family file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, not bound into the cached parser
    commands = {"generate": cmd_generate, "verify": cmd_verify, "morse": cmd_morse}
    try:
        return commands[args.command](args)
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
