"""The short demos run to completion against the package in src/."""

import os
import pathlib
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize("name", ["01_code_construction", "02_automorphisms",
                                  "03_decoding", "04_ensemble_decoding"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert not any(tmp_path.iterdir())
