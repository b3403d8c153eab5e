"""Command-line front end: argument handling, output formats, exit codes."""

import csv
import io
import json
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import aedcodes
import aedcodes.simulation as simulation
from aedcodes import Bp, Scl, rm_code, write_frozen_file
from aedcodes.cli import main
from aedcodes.simulation import CSV_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


def test_pyproject_version_is_the_package_version():
    """A declared change bumps the version in pyproject.toml and
    __version__ (which manifests record) by hand; they must agree."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    version = re.search(r'^version = "([^"]+)"$', project, re.M)
    assert version is not None and version.group(1) == aedcodes.__version__


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


@pytest.mark.parametrize("m", ["100000000000000000000", "-1"])
def test_code_info_frozen_file_bad_m(tmp_path, capsys, m):
    """A frozen file's m outside [0, M_MAX] is a usage error naming m, not an
    OverflowError or a negative shift count."""
    path = tmp_path / "bad.frozen"
    path.write_text(f"m={m}\n0101\n")
    code, out, err = run_cli(capsys, "code-info", "--frozen-file", str(path))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {path}: m={m} outside [0, 20]"]


def test_code_info_frozen_file_non_integer_m(tmp_path, capsys):
    """A frozen file's m that is not an integer is a usage error naming the
    file."""
    path = tmp_path / "bad.frozen"
    path.write_text("m=abc\n0101\n")
    code, out, err = run_cli(capsys, "code-info", "--frozen-file", str(path))
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: {path}: invalid literal for int() with base 10: 'abc'"]


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


@pytest.mark.parametrize("doc", [5, "tool", ["tool", "version"], None])
def test_simulate_manifest_that_is_not_an_object_is_usage_error(tmp_path, capsys, doc):
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", "--from-manifest", str(manifest))
    assert code == 1 and out == "" and "JSON object" in err


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
    ("all_zeros", True), ("version", "0.1.0"), ("tool", "other"),
    ("ebn0_grid", [10**400]), ("code", {"m": 10**20, "frozen": "0"})])
def test_simulate_manifest_run_values_are_not_converted(tmp_path, capsys, key, value):
    """A manifest's run values must have their JSON type: "false" does not
    replay as an all-zero run, nor 3.9 as seed 3.  The manifest and its
    code and decoder sections take no unknown keys and lack no required
    one, and a manifest of another tool or version does not replay."""
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


@pytest.mark.parametrize("resample,edit", [
    (False, lambda auts: ["junk"]), (False, lambda auts: 5),
    (False, lambda auts: auts[::-1]), (False, lambda auts: auts[:2]),
    (False, lambda auts: auts[:2] + auts[:1]), (False, None),
    (True, lambda auts: []), (True, lambda auts: ["junk"])],
    ids=["junk", "int", "reordered", "short", "repeated", "missing",
         "resampled-empty", "resampled-junk"])
def test_simulate_manifest_automorphisms_must_be_the_draw(tmp_path, capsys, resample,
                                                         edit):
    """A fixed ensemble's manifest lists exactly the automorphisms its seed
    draws, and replay refuses any other list, or none; a resampled
    ensemble lists none."""
    manifest = tmp_path / "ens.json"
    code, _, _ = run_cli(
        capsys, "simulate", "--rm", "2,4", "--ensemble", "3", "--ebn0", "2.0:2.0:1",
        "--frames", "10", "--target-errors", "0", "--threads", "1",
        "--manifest-out", str(manifest), *(["--resample-per-frame"] if resample else []))
    assert code == 0
    doc = json.loads(manifest.read_text())
    if edit is None:
        del doc["ensemble"]["automorphisms"]
    else:
        doc["ensemble"]["automorphisms"] = edit(doc["ensemble"].get("automorphisms"))
    manifest.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", "--from-manifest", str(manifest))
    assert code == 1 and out == "" and "automorphisms" in err


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 4000.0, -4000.0])
def test_simulate_non_finite_ebn0_is_refused(tmp_path, capsys, monkeypatch, value):
    """A grid with a non-finite Eb/N0, or one whose noise level is not a
    finite positive float (4000 dB overflows sigma, -4000 dB makes it
    infinite), exits 1 before a manifest is written, and a manifest whose
    grid holds one does not replay."""
    monkeypatch.chdir(tmp_path)
    base = ["--rm", "2,5", "--frames", "20", "--target-errors", "0", "--threads", "1"]
    code, out, err = run_cli(capsys, "simulate", "--ebn0", f"1:{value}:2", *base)
    assert code == 1 and out == "" and "finite" in err
    assert list(tmp_path.iterdir()) == []
    manifest = tmp_path / "run.json"
    code, _, _ = run_cli(capsys, "simulate", "--ebn0", "1:1:1", *base,
                         "--manifest-out", str(manifest))
    assert code == 0
    doc = json.loads(manifest.read_text())
    doc["ebn0_grid"] = [1.0, value]
    manifest.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", "--from-manifest", str(manifest))
    assert code == 1 and out == "" and "finite" in err


@pytest.mark.parametrize("rm,size,extra", [
    ("1,2", "40", ["--subgroup", "lta"]), ("0,0", "2", [])],
    ids=["larger-than-group", "m0"])
def test_simulate_undrawable_ensemble_fails_before_writing(tmp_path, capsys, rm,
                                                          size, extra):
    code, out, err = run_cli(capsys, "simulate", "--rm", rm, "--ebn0", "1:1:1",
                             "--frames", "20", "--ensemble", size,
                             "--resample-per-frame", "--threads", "1",
                             "--manifest-out", str(tmp_path / "run.json"), *extra)
    assert code == 1 and out == "" and "cannot draw" in err
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


def test_simulate_help_states_the_defaults_in_use(tmp_path, capsys, monkeypatch):
    """--help gives the chunk rule, the manifest path, the frame cap and the
    SCL and BP defaults that a run uses; a run without --manifest-out
    writes the manifest where the help says."""
    monkeypatch.setenv("COLUMNS", "300")
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert (f"({simulation.BATCH_FRAMES} frames, min({simulation.BATCH_FRAMES}, "
            f"max(1, {simulation.CHUNK_ROWS} // M)) for an ensemble of M)") in text
    assert f"(scl only, default {Scl.list_size})" in text
    assert f"(bp only, default {Bp.max_iters})" in text
    assert "(default aedcodes-run.manifest.json)" in text
    assert f"without --frames a point also stops at {simulation.MAX_FRAMES:,} frames" in text
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "simulate", "--rm", "1,3", "--ebn0", "2.0:2.0:1",
                   "--frames", "10", "--threads", "1")[0] == 0
    assert [p.name for p in tmp_path.iterdir()] == ["aedcodes-run.manifest.json"]


# ---------------------------------------------------------------------------
# verify

def test_verify_rm24_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--rm", "2,4", "--trials", "50",
                           "--seed", "0")
    assert code == 0
    assert "verification: PASS" in out
    assert "pointwise-product closure" in out
    assert "0 failures" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_needs_a_trial(capsys, trials):
    code, out, err = run_cli(capsys, "verify", "--rm", "2,4", "--trials", trials)
    assert code == 1 and out == "" and "--trials" in err


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


@pytest.mark.parametrize("frozen", [None, [True]], ids=["rm00", "k0"])
def test_verify_m0_skips_the_automorphism_checks(tmp_path, capsys, frozen):
    """At m = 0 there is no automorphism to draw: the factorization,
    commutation and absorption checks are skipped, decoder linearity runs
    and passes, on RM(0,0) and on the k = 0 code of length 1."""
    if frozen is None:
        argv = ["--rm", "0,0"]
    else:
        from aedcodes import polar_code
        path = tmp_path / "k0.frozen"
        write_frozen_file(path, polar_code(0, np.array(frozen)))
        argv = ["--frozen-file", str(path)]
    code, out, err = run_cli(capsys, "verify", *argv, "--trials", "3")
    assert code == 0 and err == ""
    for name in ("triangular factorization", "lower-triangular commutation",
                 "lower-triangular absorption"):
        assert f"skip {name}: no automorphisms to draw (m=0)" in out
    assert "ok   decoder linearity: 3 trials, 0 failures" in out
    assert out.endswith("verification: PASS\n")


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
