"""Pinned Monte-Carlo records.

Each case runs a small run_mc point and compares (frames, block errors, bit
errors, repr of the mean iteration count) with literals recorded when the
streams were last declared (manifest 0.2.0).  Manifest 0.3.0 was a schema
bump that only dropped the keys of three ensemble and BP options and
moved no stream, so the literals stand.  Manifest 0.4.0 moved SCL onto
SC's node schedule, which prunes its list per node, not per leaf; no
SCL record here moved.  Manifest 0.5.0 made run_mc decode SC in float32,
as it already did BP; no SC record here moved.  The two cases that had set
one of those options now run with default options, with the records that
0.2.0 gives for them.  A change that is meant to be bit-exact (one that
moves no random stream and no decision bit) must leave every record as it
is; a change that moves one must bump the manifest version, say so in
CHANGES.md and record the new literals here.
"""

import pytest

from aedcodes import Bp, ChannelConfig, EnsembleConfig, Sc, Scl, rm_code, run_mc

RM25, RM36, RM48 = rm_code(2, 5), rm_code(3, 6), rm_code(4, 8)
BIG_SEED = 2**70 + 1

# name: (code, decoder, Eb/N0, channel seed, run_mc keywords, record)
CASES = {
    "sc": (RM25, Sc(), 2.0, 5, dict(frames=2000),
           (2000, 236, 1515, "1.0")),
    "scl4": (RM25, Scl(4), 2.0, 5, dict(frames=1000),
             (1000, 61, 358, "1.0")),
    "bp10": (RM25, Bp(max_iters=10), 2.0, 5, dict(frames=1000),
             (1000, 164, 855, "3.692")),
    "aut4-ga-sc-resampled": (
        RM25, EnsembleConfig(4, "ga", Sc(), resample_per_frame=True, seed=7),
        2.0, BIG_SEED, dict(frames=600), (600, 39, 234, "1.0")),
    "aut3-uta-scl2-fixed": (
        RM36, EnsembleConfig(3, "uta", Scl(2), seed=4), 2.5, 5, dict(frames=600),
        (600, 38, 531, "1.0")),
    "sc-all-zero": (RM25, Sc(), 2.0, 5, dict(frames=2000, all_zero=True),
                    (2000, 241, 1563, "1.0")),
    "sc-target": (RM25, Sc(), 1.0, BIG_SEED, dict(frames=2000, target_errors=37),
                  (123, 37, 228, "1.0")),
    "sc-big-seed": (RM25, Sc(), 2.0, BIG_SEED, dict(frames=2000),
                    (2000, 249, 1614, "1.0")),
    "aut32-ga-sc-resampled-rm48": (
        RM48, EnsembleConfig(32, "ga", Sc(), resample_per_frame=True, seed=11),
        1.0, 9, dict(frames=8), (8, 4, 289, "1.0")),
    "aut4-lta-sc-resampled": (
        RM36, EnsembleConfig(4, "lta", Sc(), resample_per_frame=True, seed=12),
        2.5, 9, dict(frames=300), (300, 54, 802, "1.0")),
    "aut4-pi-sc-resampled": (
        RM25, EnsembleConfig(4, "pi", Sc(), resample_per_frame=True, seed=13),
        2.0, 9, dict(frames=300), (300, 19, 118, "1.0")),
}


@pytest.mark.parametrize("name", CASES)
def test_pinned_record(name):
    spec, decoder, ebn0, seed, kwargs, record = CASES[name]
    kwargs = {"target_errors": None, **kwargs}
    rec = run_mc(spec, decoder, ChannelConfig(ebn0, spec.rate, seed=seed), **kwargs)
    assert (rec.frames, rec.block_errors, rec.bit_errors,
            repr(rec.avg_iterations)) == record
