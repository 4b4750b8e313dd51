"""Entry points: the command line (subcommands, reports, exit codes),
the package's star-import surface and the names the benchmark probes."""

import ast
import csv
import gc
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from strataglue import (
    cube_family,
    load_family,
    save_family,
    stretch_diffeo,
    with_flipped_embedding,
    with_target_diffeo,
)
from strataglue import cli
from strataglue.cli import CSV_COLUMNS, main
from strataglue.errors import NumericalError

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "strataglue"
TORUS_FILE = PERFBENCH / "data" / "torus.json"


def test_generate_cube(tmp_path, capsys):
    out = tmp_path / "cube3.json"
    assert main(["generate", "cube", "3", "--out", str(out)]) == 0
    assert out.exists()
    family = load_family(out)
    assert family.pairs() == cube_family(3).pairs()
    assert "wrote" in capsys.readouterr().out


def test_generate_creates_missing_directory(tmp_path, capsys):
    out = tmp_path / "nodir" / "x.json"
    assert main(["generate", "cube", "2", "--out", str(out)]) == 0
    assert load_family(out).pairs() == cube_family(2).pairs()


def test_generate_out_with_trailing_separator_is_a_directory(tmp_path, capsys):
    out = tmp_path / "newdir"
    assert main(["generate", "cube", "2", "--out", f"{out}/"]) == 0
    assert load_family(out / "cube2.json").pairs() == cube_family(2).pairs()


def test_generate_cube_needs_size(tmp_path, capsys):
    assert main(["generate", "cube", "--out", str(tmp_path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_generate_well_writes_a_family_that_verifies(tmp_path, capsys):
    assert main(["generate", "well", "--out", f"{tmp_path}/"]) == 0
    out = tmp_path / "well.json"
    assert load_family(out).name == "well"
    assert main(["verify", "--family", str(out), "--out", str(tmp_path)]) == 0
    checks = json.loads((tmp_path / "verify_report.json").read_text())["checks"]
    assert checks and all(c["pass"] for c in checks)


def test_verify_cube2_passes(tmp_path, capsys):
    code = main([
        "verify", "--family", "cube2", "--samples", "64",
        "--seed", "0", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("ok:")

    jpath = tmp_path / "verify_report.json"
    cpath = tmp_path / "verify_report.csv"
    assert jpath.exists() and cpath.exists()

    doc = json.loads(jpath.read_text())
    assert doc["schema_version"] == 1
    assert doc["family"] == "cube2"
    assert doc["checks"]
    assert all(row["pass"] for row in doc["checks"])
    kinds = {row["I1"] for row in doc["checks"]}
    assert "validate_family" in kinds
    assert "stratum-condition" in kinds
    assert any(k.startswith("nested:") for k in kinds)
    assert any(k.startswith("concat:") for k in kinds)
    assert "differential" in kinds

    with cpath.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows and list(rows[0]) == CSV_COLUMNS


def _serve_stretched_cube3(monkeypatch):
    # the stretched family has no file form: the loader hands it over by name
    stretched = with_target_diffeo(cube_family(3), ("p0", "p3"), stretch_diffeo(2))
    load = cli._load_family
    monkeypatch.setattr(
        cli, "_load_family",
        lambda source: stretched if source == "stretched-cube3" else load(source),
    )


@pytest.mark.parametrize(
    "source",
    ["cube2", str(TORUS_FILE), "stretched-cube3"],
    ids=["cube2", "torus", "stretched-cube3"],
)
def test_verify_is_deterministic(tmp_path, monkeypatch, source):
    # every check draws from one seeded stream, so two runs write the
    # same reports byte for byte
    _serve_stretched_cube3(monkeypatch)
    for sub in ("a", "b"):
        code = main([
            "verify", "--family", source, "--samples", "32",
            "--seed", "7", "--out", str(tmp_path / sub),
        ])
        assert code == 0
    for name in ("verify_report.json", "verify_report.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_verify_leaves_little_to_the_cycle_collector(tmp_path, monkeypatch, capsys):
    # the atlas with its corrected charts, the chain lists and the parser
    # are freed by reference counting, so repeated in-process runs do not
    # pile up garbage between full collections
    _serve_stretched_cube3(monkeypatch)
    argv = [
        "verify", "--family", "stretched-cube3", "--samples", "32", "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() < 100
    finally:
        gc.enable()


def test_verify_stretched_cube3_report(tmp_path, monkeypatch):
    _serve_stretched_cube3(monkeypatch)
    code = main([
        "verify", "--family", "stretched-cube3", "--samples", "32",
        "--out", str(tmp_path),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "verify_report.json").read_text())
    assert len(doc["checks"]) == 19
    assert all(row["pass"] for row in doc["checks"])
    # the full chain of (p0, p3) needs corrected charts; no epsilon halves
    assert doc["atlas"] == [
        {"pair": ["p0", "p2"], "chain": ["p0", "p1", "p2"], "epsilon": 0.5,
         "affine": True, "patches": 1},
        {"pair": ["p0", "p3"], "chain": ["p0", "p1", "p2", "p3"], "epsilon": 0.5,
         "affine": False, "patches": 1},
        {"pair": ["p0", "p3"], "chain": ["p0", "p1", "p3"], "epsilon": 0.5,
         "affine": True, "patches": 1},
        {"pair": ["p0", "p3"], "chain": ["p0", "p2", "p3"], "epsilon": 0.5,
         "affine": True, "patches": 1},
        {"pair": ["p1", "p3"], "chain": ["p1", "p2", "p3"], "epsilon": 0.5,
         "affine": True, "patches": 1},
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--family", "cube2", "--tol", "-1"],
        ["verify", "--family", "cube2", "--tol", "nan"],
        ["verify", "--family", "cube2", "--tol", "inf"],
        ["verify", "--family", "cube2", "--samples", "0"],
        ["verify", "--family", "cube2", "--samples", "-5"],
        ["morse", "--system", "sphere", "--resolution", "0"],
        ["morse", "--system", "sphere", "--resolution", "-3"],
    ],
    ids=["tol-minus-1", "tol-nan", "tol-inf", "samples-0", "samples-minus-5",
         "resolution-0", "resolution-minus-3"],
)
def test_out_of_range_option_exits_2(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert "input error" in capsys.readouterr().err
    # rejected before anything is built or written
    assert not any(tmp_path.iterdir())


def test_verify_trivial_family(tmp_path, capsys):
    assert main(["verify", "--family", "cube1", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("ok:")


def test_verify_mutated_family_fails(tmp_path, capsys):
    family = with_flipped_embedding(cube_family(3), ("p0", "p2", "p3"))
    path = tmp_path / "mutated.json"
    save_family(family, path)
    code = main([
        "verify", "--family", str(path), "--samples", "64",
        "--out", str(tmp_path),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL")
    # the witness names the violated check and its subject
    assert "embedding" in err or "partition" in err or "coherence" in err


def test_verify_missing_file(tmp_path, capsys):
    code = main([
        "verify", "--family", str(tmp_path / "nope.json"),
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def _cube2_doc(tmp_path):
    path = tmp_path / "cube2.json"
    save_family(cube_family(2), path)
    return json.loads(path.read_text())


def _space_key_without_bar(doc):
    key = next(iter(doc["spaces"]))
    doc["spaces"][key.replace("|", "")] = doc["spaces"].pop(key)
    return json.dumps(doc)


def _word_coordinate(doc):
    piece = next(
        ps for spec in doc["spaces"].values() for ps in spec["pieces"] if ps["lower"]
    )
    piece["lower"][0] = "one"
    return json.dumps(doc)


@pytest.mark.parametrize(
    "spoil",
    [
        lambda doc: "{not json",
        _space_key_without_bar,
        _word_coordinate,
        lambda doc: "[1, 2]",
    ],
    ids=["invalid-json", "space-key-without-bar", "word-coordinate", "not-an-object"],
)
def test_verify_malformed_family_file_exits_2(tmp_path, capsys, spoil):
    path = tmp_path / "bad.json"
    path.write_text(spoil(_cube2_doc(tmp_path)))
    code = main(["verify", "--family", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def _torus_map_entry(field, value):
    """A spoiler that sets one field of the torus family's first map entry."""

    def spoil(tmp_path):
        doc = json.loads(TORUS_FILE.read_text())
        doc["embeddings"][0]["map"][0][field] = value
        return doc

    return spoil


def _cube3_left_dim_4(tmp_path):
    path = tmp_path / "cube3.json"
    save_family(cube_family(3), path)
    doc = json.loads(path.read_text())
    entry = next(e for e in doc["embeddings"] if e["triple"] == ["p0", "p1", "p3"])
    entry["left_dim"] = 4
    return doc


@pytest.mark.parametrize(
    "spoil",
    [
        _torus_map_entry(2, 7),
        _torus_map_entry(3, [3, 0]),
        _torus_map_entry(3, [0, 2]),
        _cube3_left_dim_4,
    ],
    ids=["torus-piece-7", "torus-wall-axis-3", "torus-wall-side-2", "cube3-left-dim-4"],
)
def test_verify_bad_embedding_entry_exits_2(tmp_path, capsys, spoil):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spoil(tmp_path)))
    code = main(["verify", "--family", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_epsilon_underflow_exits_3(tmp_path, capsys):
    code = main([
        "verify", "--family", "cube2", "--epsilon-floor", "1.0",
        "--out", str(tmp_path),
    ])
    assert code == 3
    assert "numerical abort" in capsys.readouterr().err


def test_non_converging_inversion_exits_3(tmp_path, capsys, monkeypatch):
    def diverge(args):
        raise NumericalError("a numerical failure")

    monkeypatch.setattr(cli, "cmd_verify", diverge)
    assert main(["verify", "--family", "cube2", "--out", str(tmp_path)]) == 3
    assert "numerical abort" in capsys.readouterr().err


def test_morse_well(tmp_path, capsys):
    code = main([
        "morse", "--system", "well", "--out", str(tmp_path),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "morse_report.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["config"] == {"system": "well", "resolution": 64}
    assert len(doc["critical_points"]) == 1
    assert doc["critical_points"][0]["index"] == 0


def test_morse_export_creates_missing_directory(tmp_path, capsys):
    export = tmp_path / "new" / "well.json"
    code = main([
        "morse", "--system", "well", "--out", str(tmp_path / "new"),
        "--export", str(export),
    ])
    assert code == 0
    assert export.is_file()
    # the well has a single critical point, so no comparable pairs
    assert load_family(export).pairs() == []


def test_morse_custom_expression_file(tmp_path, capsys):
    spec = {
        "name": "bowl",
        "morse_system": {
            "f": "x*x + 0.5*y*y + 0.1*sin(x)",
            "dim": 2,
            "box": [[-2, 2], [-2, 2]],
        },
    }
    path = tmp_path / "bowl.json"
    path.write_text(json.dumps(spec))
    code = main(["morse", "--system", str(path), "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "morse_report.json").read_text())
    assert len(doc["critical_points"]) == 1
    assert doc["critical_points"][0]["index"] == 0


def test_morse_unknown_system(tmp_path, capsys):
    assert main(["morse", "--system", "zzz", "--out", str(tmp_path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_morse_rejects_bad_expression(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"morse_system": {"f": "abs(x)", "dim": 1}}))
    assert main(["morse", "--system", str(path), "--out", str(tmp_path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_morse_system_file_with_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    # malformed JSON, then well-formed JSON whose top level is not an object
    for text in ('{"morse_system": ', "[1, 2]"):
        path.write_text(text)
        assert main(["morse", "--system", str(path), "--out", str(tmp_path)]) == 2
        assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section",
    [
        {"f": "x*x + y*y", "dim": "two"},
        {"f": "x*x + y*y", "dim": 2, "period": 5},
        {"f": 3, "dim": 2},
        {"f": "x*x + y*y", "dim": 2.5, "box": [[-1, 1], [-1, 1]]},
    ],
    ids=["word-dim", "scalar-period", "numeric-f", "fractional-dim"],
)
def test_morse_malformed_system_section_exits_2(tmp_path, capsys, section):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"morse_system": section}))
    code = main([
        "morse", "--system", str(path), "--resolution", "4",
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "morse_report.json").exists()


def test_star_import_surface():
    namespace = {}
    exec("from strataglue import *", namespace)
    assert set(namespace) - {"__builtins__"} == {
        "add", "analyze", "box_space", "BoxPiece", "build_collars", "Chain",
        "check_associativity", "check_compat_concat", "check_compat_one_pair",
        "check_stratum_condition", "circle_space", "CollarAtlas", "concat_chains",
        "concat_params", "CorneredSpace", "CriticalPoint", "CriticalPoset",
        "cube_family", "detect_broken", "Diffeo", "double_system",
        "enumerate_chains", "EpsilonUnderflowError", "export_family", "extend",
        "Face", "find_critical_points", "find_trajectories", "from_morse", "glue",
        "glue_differential", "glue_pair", "GlueParam", "InputError",
        "integrate_flow", "interval_space", "is_chain", "is_subchain",
        "load_family", "mask", "ModuliAnalysis", "MorseSystem", "numerical_glue",
        "pair_length", "point_space", "RangeError", "restrict", "round_sphere",
        "save_family", "shear_diffeo", "single_space_collars", "StratifiedFamily",
        "stretch_diffeo", "system_from_expression", "tilted_torus",
        "UnsupportedDimensionError", "validate_family", "Wall",
        "with_flipped_embedding", "with_target_diffeo", "zero_support_subchain",
        "__version__",
    }


def test_every_benchmark_probe_resolves():
    # a probe whose library name is gone reports its metrics as null, and
    # the benchmark run still exits 0
    spec = importlib.util.spec_from_file_location("spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.absent == {}
    finally:
        tracer.uninstall()


def test_only_the_flow_integrators_import_scipy():
    # the library is numpy-only: its one scipy name is the solve_ivp that
    # morse.__getattr__ imports when a benchmark probe asks for it, and no
    # module imports scipy at module level (a function name of None)
    imported = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        enclosing = {
            id(node): func.name
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                names = [a.name for a in node.names]
            else:
                continue
            if names:
                key = (path.name, enclosing.get(id(node)))
                imported.setdefault(key, set()).update(names)
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert imported == {("morse.py", "__getattr__"): {"solve_ivp"}}, imported


_NO_SCIPY_SCRIPT = """
import sys

import strataglue.cli
from strataglue import analyze, save_family, tilted_torus
from strataglue.cli import main
from strataglue.morse import check_transversality

out = sys.argv[1]
assert main(["verify", "--family", "cube3", "--out", out]) == 0
analysis = analyze(tilted_torus())
save_family(analysis.to_family(), out + "/torus.json")
assert main(["verify", "--family", out + "/torus.json", "--out", out]) == 0
check_transversality(analysis.system, "c0", "c1", analysis=analysis)
assert main(["generate", "well", "--out", out + "/"]) == 0
assert main(["morse", "--system", "well", "--out", out]) == 0
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_the_library_runs_without_loading_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
