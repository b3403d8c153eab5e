"""The benchmark's tracer and correctness pass against the package.

bench/tracing.py times the layers of run_mc from outside the package: it
replaces, for the length of a `with` block, the module attributes through
which run_mc, _eval_chunk and decode_branches call the other modules.  If
one of those call sites moves, the tracer either fails to install or,
silently, attributes no work to a decoder kernel.  bench/checks.py checks
every workload's outputs with computations of its own and unpacks what
decode_branches returns; a library change that breaks it makes every
benchmark run incorrect.  These tests turn all of that into failures.
They import the bench/ modules as bench/run.py does, with bench/ on
sys.path, and change nothing in bench/.
"""

import pathlib
import sys

import pytest

import aedcodes as ae
from aedcodes import ChannelConfig, EnsembleConfig, Sc, Scl, rm_code, run_mc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("module,attr", [entry[:2] for entry in
                                         tracing.SPANS + tracing.COUNTERS])
def test_traced_attribute_exists(module, attr):
    assert callable(getattr(getattr(ae, module), attr))


@pytest.mark.parametrize("decoder,counts", [
    (Sc(), {"decoders.sc_rows": 8}),
    (EnsembleConfig(2, "ga", Sc(), resample_per_frame=True, seed=1),
     {"decoders.sc_rows": 16, "automorphisms.kept": 16}),
    (Scl(2), {"decoders.scl_rows": 8}),
    (EnsembleConfig(2, "ga", Scl(2), resample_per_frame=True, seed=1),
     {"decoders.scl_rows": 16, "automorphisms.kept": 16}),
], ids=["sc", "aut2-ga-sc-resampled", "scl2", "aut2-ga-scl2-resampled"])
def test_tracer_counts_kernel_rows(decoder, counts):
    """8 RM(2,5) frames: one SC or SCL row per frame, and M = 2 SC or SCL
    rows and M automorphisms per frame for the resampled ensembles."""
    spec = rm_code(2, 5)
    tracer = tracing.Tracer()
    with tracer.installed(ae):
        rec = run_mc(spec, decoder, ChannelConfig(2.0, spec.rate, seed=3),
                     frames=8, target_errors=None)
    assert rec.frames == 8
    got = tracer.take_counts()
    assert {key: got[key] for key in counts} == counts
    assert ae.simulation.sc_decode_batch is ae.decoders.sc_decode_batch
    assert ae.ensemble.sc_decode_batch is ae.decoders.sc_decode_batch


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_benchmark_correctness_pass(name):
    """Every workload's correctness pass attempts the operations its plan
    names and fails none, and every checker passes its self-test."""
    wl = WORKLOADS[name]
    spec, dec, _ = wl.build(ae, 1)
    tally = checks.Tally()
    checks.correctness_pass(ae, spec, wl, dec, 1, tally)
    _, planned = checks.PASSES[wl.decoder]
    assert (tally.failed, tally.notes) == (0, [])
    assert tally.attempted == planned(wl.check_frames, dec)
    assert checks.self_test(ae, spec) == []
