"""Command line interface: subcommands, reports, exit codes."""

import csv
import json

import pytest

from strataglue import cube_family, load_family, save_family, with_flipped_embedding
from strataglue.cli import CSV_COLUMNS, main


def test_generate_cube(tmp_path, capsys):
    out = tmp_path / "cube3.json"
    assert main(["generate", "cube", "3", "--out", str(out)]) == 0
    assert out.exists()
    family = load_family(out)
    assert family.pairs() == cube_family(3).pairs()
    assert "wrote" in capsys.readouterr().out


def test_generate_cube_needs_size(tmp_path, capsys):
    assert main(["generate", "cube", "--out", str(tmp_path)]) == 2
    assert "input error" in capsys.readouterr().err


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


def test_verify_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        code = main([
            "verify", "--family", "cube2", "--samples", "32",
            "--seed", "7", "--out", str(tmp_path / sub),
        ])
        assert code == 0
    a = (tmp_path / "a" / "verify_report.json").read_text()
    b = (tmp_path / "b" / "verify_report.json").read_text()
    assert a == b


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


def test_morse_well(tmp_path, capsys):
    code = main([
        "morse", "--system", "well", "--out", str(tmp_path),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "morse_report.json").read_text())
    assert doc["schema_version"] == 1
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
