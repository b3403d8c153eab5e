"""Command-line front end: argument handling, output formats, exit codes."""

import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

import aedcodes.simulation as simulation
from aedcodes import rm_code, write_frozen_file
from aedcodes.cli import main
from aedcodes.simulation import CSV_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


# ---------------------------------------------------------------------------
# code-info

def test_code_info_rm37(capsys):
    code, out, _ = run_cli(capsys, "code-info", "--rm", "3,7")
    assert code == 0
    assert "k=64" in out and "RM(3,7)" in out and "decreasing: yes" in out


def test_code_info_degenerate(capsys):
    code, out, _ = run_cli(capsys, "code-info", "--rm", "0,0")
    assert code == 0
    assert "N:   1" in out and "k=1" in out


def test_code_info_frozen_file(tmp_path, capsys):
    path = tmp_path / "rm48.frozen"
    write_frozen_file(path, rm_code(4, 8))
    code, out, _ = run_cli(capsys, "code-info", "--frozen-file", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 163 and doc["N"] == 256 and doc["decreasing_monomial"]


def test_code_info_usage_errors(capsys):
    assert run_cli(capsys, "code-info")[0] == 1
    assert run_cli(capsys, "code-info", "--rm", "3,7", "--frozen-file", "x")[0] == 1
    assert run_cli(capsys, "code-info", "--rm", "junk")[0] == 1
    assert run_cli(capsys, "code-info", "--frozen-file", "/nonexistent")[0] == 1


# ---------------------------------------------------------------------------
# simulate

def test_simulate_basic_csv(tmp_path, capsys):
    manifest = tmp_path / "run.manifest.json"
    code, out, err = run_cli(
        capsys, "simulate", "--rm", "1,3", "--decoder", "sc",
        "--ebn0", "0.0:2.0:3", "--frames", "300", "--target-errors", "0",
        "--seed", "7", "--threads", "1", "--manifest-out", str(manifest))
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == CSV_HEADER.split(",")
    assert len(rows) == 4
    assert [r[5] for r in rows[1:]] == ["0.0", "1.0", "2.0"]
    assert str(manifest) in err
    assert manifest.exists()


def test_simulate_from_manifest_reproduces(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    args = ["simulate", "--rm", "2,4", "--decoder", "scl", "--list", "4",
            "--ebn0", "1.0:2.0:2", "--frames", "200", "--target-errors", "0",
            "--seed", "3", "--threads", "1", "--manifest-out", str(manifest)]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, "simulate", "--from-manifest", str(manifest),
                            "--threads", "2")
    assert code == 0
    rows1 = parse_csv(out1)
    rows2 = parse_csv(out2)
    assert [r[:-1] for r in rows1] == [r[:-1] for r in rows2]


def test_simulate_ensemble_manifest_roundtrip(tmp_path, capsys):
    manifest = tmp_path / "ens.json"
    args = ["simulate", "--rm", "2,4", "--decoder", "sc", "--ensemble", "3",
            "--subgroup", "uta", "--ebn0", "2.0:2.0:1", "--frames", "150",
            "--target-errors", "0", "--seed", "5", "--threads", "1",
            "--manifest-out", str(manifest)]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    doc = json.loads(manifest.read_text())
    assert doc["ensemble"]["M"] == 3 and len(doc["ensemble"]["automorphisms"]) == 3
    code, out2, _ = run_cli(capsys, "simulate", "--from-manifest", str(manifest))
    assert [r[:-1] for r in parse_csv(out1)] == [r[:-1] for r in parse_csv(out2)]


def test_simulate_manifest_with_wrong_type_is_usage_error(tmp_path, capsys):
    manifest = tmp_path / "ens.json"
    code, _, _ = run_cli(
        capsys, "simulate", "--rm", "2,4", "--decoder", "sc", "--ensemble", "2",
        "--ebn0", "2.0:2.0:1", "--frames", "10", "--target-errors", "0",
        "--threads", "1", "--manifest-out", str(manifest))
    assert code == 0
    doc = json.loads(manifest.read_text())
    doc["ensemble"]["resample_per_frame"] = "false"
    manifest.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", "--from-manifest", str(manifest))
    assert code == 1 and out == ""
    assert "resample_per_frame" in err


@pytest.mark.parametrize("key,value", [
    ("all_zero", "false"), ("all_zero", 0), ("seed", 3.9), ("seed", -1),
    ("seed", True), ("frames", "200"), ("frames", 200.0),
    ("target_errors", False), ("ebn0_grid", "2.0"), ("ebn0_grid", []),
    ("ebn0_grid", [2.0, None]), ("seed", None), ("target_errors", -5),
    ("code", {"rm": ["2", "4"]}), ("code", {"rm": [2.0, 4]}), ("code", {"rm": [2]}),
    ("code", {"rm": [2, 4], "m": 4}), ("code", {"m": 4}), ("code", [2, 4]),
    ("code", {"m": 4, "frozen": "2" * 16}),
    ("constituent", {"kind": "scl", "list_sise": 4}), ("constituent", "sc"),
    ("ensemble", {"subgroup": "ga", "constituent": {"kind": "sc"}}),
    ("all_zeros", True)])
def test_simulate_manifest_run_values_are_not_converted(tmp_path, capsys, key, value):
    """A manifest's run values must have their JSON type: "false" does not
    replay as an all-zero run, nor 3.9 as seed 3.  The manifest and its
    code and decoder sections take no unknown keys and lack no required
    one."""
    manifest = tmp_path / "run.json"
    code, _, _ = run_cli(
        capsys, "simulate", "--rm", "2,4", "--decoder", "sc",
        "--ebn0", "1.0:1.0:1", "--frames", "200", "--target-errors", "0",
        "--seed", "3", "--threads", "1", "--manifest-out", str(manifest))
    assert code == 0
    doc = json.loads(manifest.read_text())
    added = key not in doc
    doc[key] = value
    manifest.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", "--from-manifest", str(manifest))
    assert code == 1 and out == "" and key in err
    del doc[key]
    manifest.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", "--from-manifest", str(manifest))
    if added or key == "all_zero":  # the written manifest, or all_zero's default
        assert code == 0
    else:
        assert code == 1 and out == "" and key in err


@pytest.mark.parametrize("extra,key", [
    (["--seed", "-1"], "seed"), (["--seed", "-1", "--ensemble", "2"], "seed"),
    (["--target-errors", "-5"], "target-errors")])
def test_simulate_negative_value_fails_before_writing(tmp_path, capsys, monkeypatch,
                                                      extra, key):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "simulate", "--rm", "2,4", "--ebn0", "1.0:1.0:1",
                             "--frames", "10", "--threads", "1", *extra)
    assert code == 1 and out == "" and key in err
    assert list(tmp_path.iterdir()) == []


def test_simulate_lta_ensemble_matches_plain_sc(tmp_path, capsys):
    base = ["--rm", "2,5", "--ebn0", "2.0:2.0:1", "--frames", "400",
            "--target-errors", "0", "--seed", "9", "--threads", "1",
            "--manifest-out", str(tmp_path / "run.manifest.json")]
    _, out_plain, _ = run_cli(capsys, "simulate", "--decoder", "sc", *base)
    _, out_lta, _ = run_cli(capsys, "simulate", "--decoder", "sc",
                            "--ensemble", "4", "--subgroup", "lta", *base)
    errs = lambda out: [r[7] for r in parse_csv(out)[1:]]
    assert errs(out_plain) == errs(out_lta)


def test_simulate_json_output(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "simulate", "--rm", "1,3", "--decoder", "bp",
                           "--iters", "10", "--ebn0", "3.0:3.0:1",
                           "--frames", "50", "--target-errors", "0",
                           "--seed", "1", "--threads", "1", "--json",
                           "--manifest-out", str(tmp_path / "run.manifest.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["frames"] == 50
    assert doc["manifest"]["constituent"]["kind"] == "bp"


def test_simulate_json_says_why_each_point_stopped(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simulation, "MAX_FRAMES", 300)
    code, out, _ = run_cli(capsys, "simulate", "--rm", "1,4", "--ebn0=-2.0:12.0:2",
                           "--target-errors", "5", "--seed", "1", "--threads", "1",
                           "--json", "--manifest-out", str(tmp_path / "run.manifest.json"))
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["stopped_by"] for r in rows] == ["target", "cap"]
    assert rows[1]["frames"] == 300 and rows[1]["block_errors"] == 0


def test_simulate_csv_notes_a_capped_point(tmp_path, capsys, monkeypatch):
    """The CSV columns stay as they are; a point that stopped at the cap
    gets a note on standard error instead."""
    monkeypatch.setattr(simulation, "MAX_FRAMES", 300)
    code, out, err = run_cli(capsys, "simulate", "--rm", "1,4", "--ebn0=-2.0:12.0:2",
                             "--target-errors", "5", "--seed", "1", "--threads", "1",
                             "--manifest-out", str(tmp_path / "run.manifest.json"))
    assert code == 0
    assert out.splitlines()[0] == CSV_HEADER and len(out.splitlines()) == 3
    notes = [ln for ln in err.splitlines() if "frame cap" in ln]
    assert notes == ["# 12 dB: stopped at the 300-frame cap with 0 of 5 target errors"]


def test_simulate_usage_errors(capsys):
    base = ["--rm", "1,3", "--ebn0", "2.0:2.0:1", "--frames", "10"]
    assert run_cli(capsys, "simulate", "--decoder", "bp", "--list", "4", *base)[0] == 1
    assert run_cli(capsys, "simulate", "--decoder", "sc", "--iters", "9", *base)[0] == 1
    assert run_cli(capsys, "simulate", "--rm", "1,3", "--frames", "10")[0] == 1
    assert run_cli(capsys, "simulate", "--rm", "1,3", "--ebn0", "bad",
                   "--frames", "10")[0] == 1
    assert run_cli(capsys, "simulate", "--rm", "1,3", "--ebn0", "2.0:2.0:1",
                   "--frames", "0")[0] == 1
    assert run_cli(capsys, "simulate", "--subgroup", "ga", *base)[0] == 1
    assert run_cli(capsys, "simulate", "--resample-per-frame", *base)[0] == 1
    assert run_cli(capsys, "simulate", "--ensemble", "-2", *base)[0] == 1


# ---------------------------------------------------------------------------
# verify

def test_verify_rm24_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--rm", "2,4", "--trials", "50",
                           "--seed", "0")
    assert code == 0
    assert "verification: PASS" in out
    assert "pointwise-product closure" in out
    assert "0 failures" in out


def test_verify_non_decreasing_reports_scope(tmp_path, capsys):
    # info set {z0z1z2, z1z2} misses divisors like z0z1
    frozen = np.ones(8, dtype=bool)
    frozen[[0, 3]] = False
    from aedcodes import polar_code
    path = tmp_path / "bad.frozen"
    write_frozen_file(path, polar_code(3, frozen))
    code, out, _ = run_cli(capsys, "verify", "--frozen-file", str(path),
                           "--trials", "20", "--seed", "1")
    assert code == 0
    assert "out of theorem scope" in out


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "aedcodes.cli", "code-info",
                           "--rm", "1,3"], capture_output=True, text=True)
    assert proc.returncode == 0 and "k=4" in proc.stdout


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1


def test_capacity_errors_exit_3(capsys, monkeypatch):
    from aedcodes import CapacityError
    import aedcodes.cli as cli

    def boom(args):
        raise CapacityError("enumeration too large")

    monkeypatch.setattr(cli, "cmd_code_info", boom)
    assert main(["code-info", "--rm", "1,3"]) == 3
