"""Pinned manifests of the CLI runs whose CSV rows are compared against the
previous release: RM(2,5) SC, SCL-8, BP-25, resampled Aut-4-GA-SC and
fixed Aut-3-GA-BP-25, RM(3,6) fixed Aut-3-UTA-SCL-2, and one
--frozen-file run.

Each flag run must write its manifest byte for byte as pinned here, print
the pinned CSV rows (the seconds column aside), and replay from that
manifest to the same rows.  A change that moves a byte of a manifest or a
decision of a run fails here; a declared change re-pins these with the
manifest version it bumps.
"""

import json

import numpy as np
import pytest

from aedcodes import polar_code, write_frozen_file
from aedcodes.cli import main
from aedcodes.simulation import CSV_HEADER

COMMON = ["--ebn0", "1:3:3", "--frames", "200", "--seed", "5", "--threads", "1"]
FROZEN = "1111100010000000"  # m = 4, k = 10; written to a file per test


def _head(code: dict, target_errors=None, all_zero=False) -> dict:
    """The run keys every manifest starts with, in written order."""
    return {"tool": "aedcodes", "version": "0.5.0", "code": code,
            "ebn0_grid": [1.0, 2.0, 3.0], "frames": 200,
            "target_errors": target_errors, "seed": 5, "all_zero": all_zero}


RM25 = {"rm": [2, 5]}
BP25 = {"kind": "bp", "max_iters": 25, "stopping": True}

# name -> (flags besides COMMON, manifest, CSV rows without seconds)
RUNS = {
    "rm25-sc": (
        ["--rm", "2,5", "--target-errors", "0"],
        {**_head(RM25), "constituent": {"kind": "sc"}},
        ['"RM(2,5)",sc,-,0,1,1.0,200,55,0.275,0.108125,1.0',
         '"RM(2,5)",sc,-,0,1,2.0,200,27,0.135,0.0484375,1.0',
         '"RM(2,5)",sc,-,0,1,3.0,200,10,0.05,0.01875,1.0']),
    "rm25-scl8": (
        ["--rm", "2,5", "--decoder", "scl", "--list", "8", "--target-errors", "0"],
        {**_head(RM25), "constituent": {"kind": "scl", "list_size": 8}},
        ['"RM(2,5)",scl,-,0,8,1.0,200,35,0.175,0.068125,1.0',
         '"RM(2,5)",scl,-,0,8,2.0,200,15,0.075,0.0265625,1.0',
         '"RM(2,5)",scl,-,0,8,3.0,200,1,0.005,0.0021875,1.0']),
    "rm25-bp25": (
        ["--rm", "2,5", "--decoder", "bp", "--iters", "25", "--target-errors", "0"],
        {**_head(RM25), "constituent": BP25},
        ['"RM(2,5)",bp,-,0,0,1.0,200,71,0.355,0.1128125,10.33',
         '"RM(2,5)",bp,-,0,0,2.0,200,27,0.135,0.0478125,5.385',
         '"RM(2,5)",bp,-,0,0,3.0,200,9,0.045,0.0178125,3.325']),
    "rm25-aut4ga-sc-resampled": (
        ["--rm", "2,5", "--ensemble", "4", "--resample-per-frame",
         "--target-errors", "0"],
        {**_head(RM25),
         "ensemble": {"seed": 5, "subgroup": "ga", "M": 4, "resample_per_frame": True,
                      "constituent": {"kind": "sc"}}},
        ['"RM(2,5)",sc,ga,4,1,1.0,200,37,0.185,0.0665625,1.0',
         '"RM(2,5)",sc,ga,4,1,2.0,200,14,0.07,0.0225,1.0',
         '"RM(2,5)",sc,ga,4,1,3.0,200,2,0.01,0.0034375,1.0']),
    "rm25-aut3ga-bp25": (
        ["--rm", "2,5", "--decoder", "bp", "--iters", "25", "--ensemble", "3",
         "--target-errors", "0"],
        {**_head(RM25),
         "ensemble": {"seed": 5, "subgroup": "ga", "M": 3, "resample_per_frame": False,
                      "constituent": BP25,
                      "automorphisms": [
                          "m=5; A=00001,00101,10010,11111,10000; b=00010",
                          "m=5; A=00101,00011,11100,10010,10110; b=00010",
                          "m=5; A=01000,11010,10101,11000,11011; b=01010"]}},
        ['"RM(2,5)",bp,ga,3,0,1.0,200,53,0.265,0.099375,10.068333333333333',
         '"RM(2,5)",bp,ga,3,0,2.0,200,19,0.095,0.034375,5.833333333333333',
         '"RM(2,5)",bp,ga,3,0,3.0,200,3,0.015,0.0046875,3.1883333333333335']),
    "rm36-aut3uta-scl2": (
        ["--rm", "3,6", "--decoder", "scl", "--list", "2", "--ensemble", "3",
         "--subgroup", "uta", "--target-errors", "0"],
        {**_head({"rm": [3, 6]}),
         "ensemble": {"seed": 5, "subgroup": "uta", "M": 3, "resample_per_frame": False,
                      "constituent": {"kind": "scl", "list_size": 2},
                      "automorphisms": [
                          "m=6; A=110101,010011,001000,000111,000010,000001; b=000001",
                          "m=6; A=100101,010010,001111,000100,000010,000001; b=000110",
                          "m=6; A=101001,010110,001100,000100,000010,000001; b=110000"]}},
        ['"RM(3,6)",scl,uta,3,2,1.0,200,78,0.39,0.14869047619047618,1.0',
         '"RM(3,6)",scl,uta,3,2,2.0,200,29,0.145,0.06357142857142857,1.0',
         '"RM(3,6)",scl,uta,3,2,3.0,200,5,0.025,0.0125,1.0']),
    "frozen-sc-target-all-zero": (
        ["--frozen-file", "{frozen}", "--target-errors", "5", "--all-zero"],
        {**_head({"m": 4, "frozen": FROZEN}, target_errors=5, all_zero=True),
         "constituent": {"kind": "sc"}},
        ['"polar(m=4,k=10)",sc,-,0,1,1.0,42,5,0.11904761904761904,0.05476190476190476,1.0',
         '"polar(m=4,k=10)",sc,-,0,1,2.0,62,5,0.08064516129032258,0.04032258064516129,1.0',
         '"polar(m=4,k=10)",sc,-,0,1,3.0,111,5,0.04504504504504504,0.01891891891891892,1.0']),
}


def _rows(out: str) -> list[str]:
    """CSV rows of a simulate run without the trailing seconds column."""
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    return [ln.rsplit(",", 1)[0] for ln in lines[1:]]


@pytest.mark.parametrize("name", list(RUNS))
def test_manifest_is_pinned_and_replays_to_the_same_rows(tmp_path, capsys, name):
    flags, manifest, rows = RUNS[name]
    frozen = tmp_path / "code.frozen"
    write_frozen_file(frozen, polar_code(4, np.array([c == "1" for c in FROZEN])))
    flags = [str(frozen) if f == "{frozen}" else f for f in flags]
    path = tmp_path / "run.manifest.json"

    assert main(["simulate", *flags, *COMMON, "--manifest-out", str(path)]) == 0
    assert _rows(capsys.readouterr().out) == rows
    assert path.read_text(encoding="utf-8") == json.dumps(manifest, indent=2)

    assert main(["simulate", "--from-manifest", str(path), "--threads", "1"]) == 0
    assert _rows(capsys.readouterr().out) == rows
