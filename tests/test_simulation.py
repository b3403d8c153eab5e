"""Channel model, ML oracle and the Monte-Carlo harness."""

import numpy as np
import pytest

import aedcodes.simulation as simulation
from aedcodes import (Bp, CapacityError, ChannelConfig, EnsembleConfig, Sc,
                      Scl, aed_decode, compile_tables, encode,
                      enumerate_codebook, ml_decode_oracle, rm_code, run_mc,
                      saturate, sc_decode, transmit)
from aedcodes.simulation import (CSV_HEADER, _eval_chunk, _frame_stream,
                                 _stream_states, format_csv_row)


# ---------------------------------------------------------------------------
# channel

def test_seed_must_be_a_non_negative_integer():
    for bad, exc in [(-1, ValueError), (1.5, TypeError), (3.0, TypeError),
                     ("3", TypeError), (True, TypeError), (None, TypeError)]:
        with pytest.raises(exc):
            ChannelConfig(2.0, 0.5, seed=bad)
        with pytest.raises(exc):
            EnsembleConfig(2, "ga", Sc(), seed=bad)
        with pytest.raises(exc):
            next(_stream_states(bad, 0, 2))
    assert ChannelConfig(2.0, 0.5, seed=np.int64(3)).seed == 3
    assert EnsembleConfig(2, "ga", Sc(), seed=2**130).seed == 2**130


def test_sigma_formula():
    ch = ChannelConfig(2.0, 163 / 256)
    expect = (1.0 / (2.0 * (163 / 256) * 10 ** 0.2)) ** 0.5
    assert abs(ch.sigma - expect) < 1e-15
    with pytest.raises(ValueError):
        ChannelConfig(2.0, 0.0)
    with pytest.raises(ValueError):
        ChannelConfig(2.0, 1.5)


def test_transmit_noiseless_limit():
    spec = rm_code(2, 4)
    ch = ChannelConfig(60.0, spec.rate, seed=1)  # sigma ~ 1e-3
    rng = np.random.default_rng(0)
    u = rng.integers(0, 2, spec.k, dtype=np.uint8)
    x = encode(spec, u)
    y, llr = transmit(spec, u, ch, rng)
    assert np.array_equal(llr < 0, x == 1)
    assert llr.shape == (spec.n,) and y.shape == (spec.n,)


def test_transmit_llr_mean():
    spec = rm_code(3, 7)
    ch = ChannelConfig(2.0, spec.rate, seed=1)
    rng = np.random.default_rng(1)
    u = np.zeros(spec.k, dtype=np.uint8)
    total, count = 0.0, 0
    for _ in range(8000):
        _, llr = transmit(spec, u, ch, rng)
        total += llr.sum()
        count += llr.size
    expect = 2.0 / ch.sigma ** 2
    assert abs(total / count - expect) / expect < 0.01


def test_transmit_length_check():
    with pytest.raises(ValueError):
        transmit(rm_code(1, 3), np.zeros(3, np.uint8),
                 ChannelConfig(2.0, 0.5), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# ML oracle

def test_oracle_noiseless_and_ties():
    spec = rm_code(1, 3)
    cb = enumerate_codebook(spec)
    assert np.array_equal(ml_decode_oracle(spec, 1.0 - 2.0 * cb[9]), cb[9])
    # all-zero received vector ties every codeword; lexicographic minimum wins
    assert not ml_decode_oracle(spec, np.zeros(spec.n)).any()


def test_oracle_trivial_code_and_capacity():
    from aedcodes import polar_code
    empty = polar_code(2, np.ones(4, bool))
    assert not ml_decode_oracle(empty, np.array([1.0, -1, 1, -1])).any()
    with pytest.raises(CapacityError):
        ml_decode_oracle(rm_code(5, 5), np.zeros(32))


def test_oracle_never_beaten_by_sc_paired():
    spec = rm_code(1, 3)
    ch = ChannelConfig(1.0, spec.rate, seed=3)
    rng = np.random.default_rng(3)
    oracle_err = sc_err = 0
    for _ in range(400):
        u = rng.integers(0, 2, spec.k, dtype=np.uint8)
        x = encode(spec, u)
        y, llr = transmit(spec, u, ch, rng)
        oracle_err += not np.array_equal(ml_decode_oracle(spec, y), x)
        sc_err += not np.array_equal(sc_decode(spec, llr).x_hat, x)
    assert oracle_err <= sc_err


# ---------------------------------------------------------------------------
# Monte-Carlo harness

def test_run_mc_reproducible_and_worker_invariant():
    spec = rm_code(2, 5)
    ch = ChannelConfig(2.0, spec.rate, seed=11)
    a = run_mc(spec, Sc(), ch, frames=600, target_errors=None)
    b = run_mc(spec, Sc(), ch, frames=600, target_errors=None)
    c = run_mc(spec, Sc(), ch, frames=600, target_errors=None, workers=2)
    for other in (b, c):
        assert (a.frames, a.block_errors, a.bit_errors) == \
               (other.frames, other.block_errors, other.bit_errors)


def test_run_mc_error_target_is_frame_exact():
    spec = rm_code(2, 5)
    ch = ChannelConfig(1.0, spec.rate, seed=12)
    rec = run_mc(spec, Sc(), ch, frames=5000, target_errors=25)
    assert rec.block_errors == 25
    # stopping frame equals the position of the 25th error in frame order
    blk, _, _, _ = _eval_chunk(spec, Sc(), ch, 0, rec.frames + 64, False)
    assert blk[:rec.frames].sum() == 25 and blk[rec.frames - 1]
    rec2 = run_mc(spec, Sc(), ch, frames=5000, target_errors=25, workers=2)
    assert rec2.frames == rec.frames and rec2.block_errors == 25


def test_run_mc_zero_noise_has_zero_errors():
    spec = rm_code(2, 4)
    ch = ChannelConfig(40.0, spec.rate, seed=13)
    rec = run_mc(spec, Sc(), ch, frames=200, target_errors=None)
    assert rec.block_errors == 0 and rec.bit_errors == 0 and rec.bler == 0.0


def test_run_mc_bp_iteration_accounting():
    spec = rm_code(2, 5)
    ch = ChannelConfig(3.0, spec.rate, seed=14)
    rec = run_mc(spec, Bp(max_iters=12, stopping=False), ch, frames=100,
                 target_errors=None)
    assert rec.avg_iterations == 12.0
    rec2 = run_mc(spec, Bp(max_iters=12, stopping=True), ch, frames=100,
                  target_errors=None)
    assert 1.0 <= rec2.avg_iterations <= 12.0


def test_run_mc_all_zero_matches_random_within_noise():
    spec = rm_code(2, 5)
    ch = ChannelConfig(1.5, spec.rate, seed=15)
    a = run_mc(spec, Sc(), ch, frames=1500, target_errors=None)
    b = run_mc(spec, Sc(), ch, frames=1500, target_errors=None, all_zero=True)
    # identical noise streams, so the gap is decoder asymmetry only
    sd = np.sqrt(a.block_errors + b.block_errors + 1)
    assert abs(a.block_errors - b.block_errors) <= 2 * sd


def test_run_mc_self_consistency_against_doubled_budget():
    spec = rm_code(2, 5)
    ch = ChannelConfig(2.0, spec.rate, seed=16)
    small = run_mc(spec, Sc(), ch, frames=800, target_errors=None)
    ch2 = ChannelConfig(2.0, spec.rate, seed=17)
    big = run_mc(spec, Sc(), ch2, frames=1600, target_errors=None)
    z99 = 2.576
    se = np.sqrt(small.bler * (1 - small.bler) / small.frames
                 + big.bler * (1 - big.bler) / big.frames)
    assert abs(small.bler - big.bler) <= z99 * se


def test_run_mc_lta_ensemble_equals_plain_sc_paired():
    spec = rm_code(2, 5)
    ch = ChannelConfig(2.0, spec.rate, seed=18)
    plain = run_mc(spec, Sc(), ch, frames=800, target_errors=None)
    for resample in (False, True):
        cfg = EnsembleConfig(4, "lta", Sc(), resample_per_frame=resample, seed=8)
        ens = run_mc(spec, cfg, ch, frames=800, target_errors=None)
        assert ens.block_errors == plain.block_errors
        assert ens.bit_errors == plain.bit_errors


def test_run_mc_draws_a_fixed_ensemble_once(monkeypatch):
    import aedcodes.ensemble as ensemble
    calls = []
    sample_ensemble = ensemble.sample_ensemble

    def counted(*args, **kwargs):
        calls.append(args)
        return sample_ensemble(*args, **kwargs)

    monkeypatch.setattr(ensemble, "sample_ensemble", counted)
    spec = rm_code(2, 5)
    ch = ChannelConfig(2.0, spec.rate, seed=1)
    run_mc(spec, EnsembleConfig(4, "ga", Sc(), seed=1), ch, frames=1024,
           target_errors=None)
    assert len(calls) == 1


def test_aed_decode_agrees_with_run_mc_frame_by_frame():
    # rebuild every frame from its streams: the single-frame decoder and the
    # Monte-Carlo chunk must make the same block error decisions
    spec = rm_code(2, 5)
    ch = ChannelConfig(1.5, spec.rate, seed=20)
    cfg = EnsembleConfig(4, "ga", Scl(2), seed=21)
    perms = cfg.sample_automorphisms(spec.m)
    frames = 200
    blk, _, _, _ = _eval_chunk(spec, cfg, ch, 0, frames, False,
                               compile_tables(perms))
    assert 0 < blk.sum() < frames
    for f in range(frames):
        msg_ss, noise_ss = _frame_stream(ch.seed, f).spawn(2)
        x = encode(spec, np.random.default_rng(msg_ss).integers(
            0, 2, spec.k, dtype=np.uint8))
        y = (1.0 - 2.0 * x) + np.random.default_rng(noise_ss).normal(
            0.0, ch.sigma, spec.n)
        xw, _, _ = aed_decode(spec, y, saturate(2.0 * y / ch.sigma ** 2),
                              cfg, perms)
        assert np.any(xw != x) == blk[f]


# ---------------------------------------------------------------------------
# frame streams: _stream_states against numpy's SeedSequence

def _seedsequence_states(seed, lo, hi, children):
    frames = []
    for f in range(lo, hi):
        root = _frame_stream(seed, f)
        frames.append(tuple(np.random.PCG64(ss).state
                            for ss in (root.spawn(children) if children else [root])))
    return frames


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70 + 1, 2**128,
                                  2**130 + 5, (3 << 32) + 4 + 1])
@pytest.mark.parametrize("lo,hi", [(0, 4), (9, 10), (2**32 - 2, 2**32 + 2),
                                   (2**40 + 7, 2**40 + 9), (2**64 - 2, 2**64)])
def test_stream_states_equal_seedsequence_states(seed, lo, hi):
    for children in (0, 2, 3):
        assert list(_stream_states(seed, lo, hi, children)) == \
            _seedsequence_states(seed, lo, hi, children)


# (channel seed, ensemble seed, lo, hi, all_zero); the fourth channel seed
# has the benchmark's round-seed shape (c << 32) + j + 1
STREAM_CASES = [
    (0, 0, 0, 5, False),
    (2**32, 2**32, 3, 7, False),
    (2**70 + 1, 2**70 + 1, 0, 4, False),
    ((3 << 32) + 4 + 1, 7, 0, 6, False),
    (2**130 + 5, 2**130 + 5, 10, 13, False),
    (5, 6, 2**32 + 10, 2**32 + 14, False),
    (5, 6, 2**32 - 3, 2**32 + 3, False),
    (9, 9, 17, 18, False),
    (9, 9, 0, 5, True),
]


@pytest.mark.parametrize("ch_seed,ens_seed,lo,hi,all_zero", STREAM_CASES)
def test_eval_chunk_draws_equal_seedsequence_draws(monkeypatch, ch_seed, ens_seed,
                                                   lo, hi, all_zero):
    """Messages, noise and resampled automorphisms of every frame equal the
    draws of default_rng on the frame's SeedSequence streams, looped frame
    by frame."""
    spec = rm_code(2, 4)
    ch = ChannelConfig(1.0, spec.rate, seed=ch_seed)
    cfg = EnsembleConfig(3, "ga", Sc(), resample_per_frame=True, seed=ens_seed)
    seen = {}
    encode, decode_branches = simulation.encode, simulation.decode_branches

    def spy_encode(spec, msgs):
        seen.setdefault("msgs", msgs.copy())
        return encode(spec, msgs)

    def spy_decode(spec, llrs, tables, *args, **kwargs):
        seen["llrs"], seen["tables"] = llrs.copy(), tables.copy()
        return decode_branches(spec, llrs, tables, *args, **kwargs)

    monkeypatch.setattr(simulation, "encode", spy_encode)
    monkeypatch.setattr(simulation, "decode_branches", spy_decode)
    _eval_chunk(spec, cfg, ch, lo, hi, all_zero)

    msgs, llrs, auts = [], [], []
    for f in range(lo, hi):
        msg_ss, noise_ss = _frame_stream(ch_seed, f).spawn(2)
        msg = np.zeros(spec.k, dtype=np.uint8) if all_zero else \
            np.random.default_rng(msg_ss).integers(0, 2, spec.k, dtype=np.uint8)
        y = (1.0 - 2.0 * encode(spec, msg)) + np.random.default_rng(noise_ss).normal(
            0.0, ch.sigma, spec.n)
        msgs.append(msg)
        llrs.append(saturate(2.0 * y / ch.sigma ** 2))
        auts += cfg.sample_automorphisms(
            spec.m, np.random.default_rng(_frame_stream(ens_seed, f)))
    assert np.array_equal(seen["msgs"], np.array(msgs))
    assert np.array_equal(seen["llrs"], np.array(llrs))
    assert np.array_equal(seen["tables"],
                          compile_tables(auts).reshape(hi - lo, cfg.size, spec.n))


@pytest.mark.parametrize("decoder", [
    Sc(), Scl(4), Bp(max_iters=10),
    EnsembleConfig(4, "ga", Sc(), resample_per_frame=True, seed=3)],
    ids=["sc", "scl4", "bp10", "aut4-ga-sc"])
def test_eval_chunk_is_independent_of_the_chunk_split(decoder):
    spec = rm_code(2, 5)
    ch = ChannelConfig(1.5, spec.rate, seed=2**32 + 1)
    whole = _eval_chunk(spec, decoder, ch, 0, 300, False)
    parts = [_eval_chunk(spec, decoder, ch, lo, hi, False)
             for lo, hi in ((0, 137), (137, 300))]
    assert 0 < whole[0].sum() < 300
    for a, b, c in zip(whole, *parts):
        assert np.array_equal(a, np.concatenate([b, c]))


def test_run_mc_parameter_validation():
    spec = rm_code(2, 4)
    ch = ChannelConfig(2.0, spec.rate)
    with pytest.raises(ValueError):
        run_mc(spec, Sc(), ch, frames=None, target_errors=None)
    with pytest.raises(ValueError):
        run_mc(spec, Sc(), ch, frames=0)
    with pytest.raises(ValueError, match="target_errors"):
        run_mc(spec, Sc(), ch, frames=200, target_errors=-5)
    from aedcodes import polar_code
    with pytest.raises(ValueError):
        run_mc(polar_code(2, np.ones(4, bool)), Sc(), ChannelConfig(2.0, 0.5))


def test_run_mc_stops_at_the_frame_cap(monkeypatch):
    """Without a frame budget a point that cannot reach its error target
    stops at MAX_FRAMES, and the record says which limit ended it."""
    monkeypatch.setattr(simulation, "MAX_FRAMES", 300)
    spec = rm_code(1, 4)
    ch = ChannelConfig(12.0, spec.rate, seed=1)
    rec = run_mc(spec, Sc(), ch, frames=None, target_errors=5)
    assert (rec.frames, rec.block_errors, rec.stopped_by) == (300, 0, "cap")
    assert run_mc(spec, Sc(), ch, frames=200, target_errors=5).stopped_by == "frames"
    rec = run_mc(spec, Sc(), ChannelConfig(-2.0, spec.rate, seed=1), frames=None,
                 target_errors=5)
    assert rec.block_errors == 5 and rec.frames < 300 and rec.stopped_by == "target"


# ---------------------------------------------------------------------------
# result rows

def test_decoder_descriptors():
    assert Sc().descriptor == ("sc", "-", 0, 1)
    assert Scl(32).descriptor == ("scl", "-", 0, 32)
    assert Bp().descriptor == ("bp", "-", 0, 0)
    cfg = EnsembleConfig(8, "uta", Scl(2))
    assert cfg.descriptor == ("scl", "uta", 8, 2)
    assert cfg.kind == "scl"


def test_csv_row_shape_and_determinism():
    import csv
    import io
    spec = rm_code(2, 4)
    ch = ChannelConfig(2.0, spec.rate, seed=19)
    rec1 = run_mc(spec, Sc(), ch, frames=300, target_errors=None)
    rec2 = run_mc(spec, Sc(), ch, frames=300, target_errors=None, workers=2)
    row1 = next(csv.reader(io.StringIO(format_csv_row(spec, Sc(), ch, rec1))))
    row2 = next(csv.reader(io.StringIO(format_csv_row(spec, Sc(), ch, rec2))))
    assert len(row1) == len(CSV_HEADER.split(","))
    assert row1[0] == "RM(2,4)"
    assert row1[:-1] == row2[:-1]  # identical apart from wall time
