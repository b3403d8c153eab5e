"""Channel model, ML oracle and the Monte-Carlo harness."""

import concurrent.futures
import os
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest

import aedcodes.simulation as simulation
from aedcodes import (AffineAutomorphism, Bp, CapacityError, ChannelConfig,
                      EnsembleConfig, Sc, Scl, build_frames, compile_tables,
                      decode_branches, encode, enumerate_codebook,
                      ml_decode_oracle, polar_transform, rm_code, run_mc,
                      saturate, sc_decode_batch, select_winners)
from aedcodes.simulation import (CSV_HEADER, _eval_chunk, _frame_stream,
                                 _pcg64_state, _stream_words, format_csv_row)
from test_automorphisms import compile_brute, sample_ensemble_scalar


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
            _stream_words(bad, 0, 2)
    assert ChannelConfig(2.0, 0.5, seed=np.int64(3)).seed == 3
    assert EnsembleConfig(2, "ga", Sc(), seed=2**130).seed == 2**130


@pytest.mark.parametrize("ebn0", [float("nan"), float("inf"), -float("inf"),
                                  4000.0, -4000.0, 3080.0, -3100.0, 1e308])
def test_channel_refuses_a_non_finite_ebn0(ebn0):
    # a finite Eb/N0 far from 0 dB is refused too: there sigma (an
    # OverflowError at 4000 dB, inf at -4000 dB) or 2/sigma^2 leaves the
    # positive floats
    with pytest.raises(ValueError, match="Eb/N0.*finite"):
        ChannelConfig(ebn0, 0.5)


def test_sigma_formula():
    ch = ChannelConfig(2.0, 163 / 256)
    expect = (1.0 / (2.0 * (163 / 256) * 10 ** 0.2)) ** 0.5
    assert abs(ch.sigma - expect) < 1e-15
    with pytest.raises(ValueError):
        ChannelConfig(2.0, 0.0)
    with pytest.raises(ValueError):
        ChannelConfig(2.0, 1.5)
    # the extreme points that still have a usable noise level
    assert ChannelConfig(3000.0, 0.5).sigma == 1e-150
    assert ChannelConfig(-3000.0, 0.5).sigma == 1e150


def test_build_frames_noiseless_limit():
    spec = rm_code(2, 4)
    ch = ChannelConfig(60.0, spec.rate, seed=1)  # sigma ~ 1e-3
    msgs, x, _, llr = build_frames(spec, ch, 0, 50)
    assert np.array_equal(x, encode(spec, msgs)) and msgs.any()
    assert np.array_equal(llr < 0, x == 1)


def test_build_frames_llr_mean():
    spec = rm_code(3, 7)
    ch = ChannelConfig(2.0, spec.rate, seed=1)
    msgs, x, _, llr = build_frames(spec, ch, 0, 8000, all_zero=True)
    assert not msgs.any() and not x.any()
    expect = 2.0 / ch.sigma ** 2
    assert abs(llr.mean() - expect) / expect < 0.01


@pytest.mark.parametrize("all_zero", [False, True])
def test_build_frames_shapes_and_dtypes(all_zero):
    spec = rm_code(1, 3)
    ch = ChannelConfig(2.0, spec.rate, seed=4)
    msgs, x, y, llr = build_frames(spec, ch, 7, 12, all_zero)
    assert (msgs.shape, msgs.dtype) == ((5, spec.k), np.uint8)
    assert (x.shape, x.dtype) == ((5, spec.n), np.uint8)
    for a in (y, llr):
        assert (a.shape, a.dtype) == ((5, spec.n), np.float64)
    for out in build_frames(spec, ch, 3, 3, all_zero):
        assert out.shape[0] == 0


@pytest.mark.parametrize("lo,hi", [(-1, 2), (3, 2), (0, 2**64 + 1),
                                   (2**64, 2**64 + 1), (-5, -1)])
def test_build_frames_refuses_a_range_outside_the_frame_indices(lo, hi):
    spec = rm_code(1, 3)
    with pytest.raises(ValueError, match=f"frame range {lo}..{hi} "):
        build_frames(spec, ChannelConfig(2.0, spec.rate), lo, hi)


def test_build_frames_takes_integer_bounds_only():
    spec = rm_code(1, 3)
    ch = ChannelConfig(2.0, spec.rate)
    for lo, hi in [(0.0, 2), (0, 2.5), ("0", 2), (None, 2)]:
        with pytest.raises(TypeError):
            build_frames(spec, ch, lo, hi)
    for a, b in zip(build_frames(spec, ch, np.int64(1), np.uint64(3)),
                    build_frames(spec, ch, 1, 3)):
        assert np.array_equal(a, b)


def test_build_frames_is_independent_of_the_range_split():
    spec = rm_code(2, 5)
    ch = ChannelConfig(1.5, spec.rate, seed=2**32 + 1)
    whole = build_frames(spec, ch, 0, 300)
    parts = [build_frames(spec, ch, lo, hi) for lo, hi in ((0, 137), (137, 300))]
    for a, b, c in zip(whole, *parts):
        assert np.array_equal(a, np.concatenate([b, c]))
    # the last frame indices are valid frames too
    assert build_frames(spec, ch, 2**64 - 1, 2**64)[0].shape == (1, spec.k)


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
        y = (1.0 - 2.0 * x) + rng.normal(0.0, ch.sigma, spec.n)
        llr = saturate(2.0 * y / ch.sigma ** 2)
        oracle_err += not np.array_equal(ml_decode_oracle(spec, y), x)
        sc_err += not np.array_equal(sc_decode_batch(spec, llr[None])[1][0], x)
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


_IMPORT_THEN_RUN = """
import sys
import aedcodes as ae
assert "concurrent.futures.process" not in sys.modules
spec = ae.rm_code(2, 5)
ch = ae.ChannelConfig(2.0, spec.rate, seed=5)
for workers in (1, 2):
    rec = ae.run_mc(spec, ae.Sc(), ch, frames=600, target_errors=None, workers=workers)
    print(rec.frames, rec.block_errors, rec.bit_errors, rec.stopped_by)
"""


def test_import_loads_no_process_pool_and_workers_still_agree():
    """A plain import of the package leaves the process pool's modules
    (multiprocessing, socket, subprocess) unloaded; run_mc imports them
    only for workers > 1, and such a run still equals workers=1."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_THEN_RUN], capture_output=True,
                          text=True, env=dict(os.environ), timeout=120)
    assert proc.returncode == 0, proc.stderr
    one, two = proc.stdout.splitlines()
    assert one == two and one.startswith("600 ")


def test_run_mc_starts_no_more_workers_than_chunks(monkeypatch):
    """workers=10_000 on a two-chunk run asks the pool for at most two
    processes.  The fake pool runs every chunk inline and starts none."""
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    spec = rm_code(2, 5)
    rec = run_mc(spec, Sc(), ChannelConfig(2.0, spec.rate, seed=5), frames=512,
                 target_errors=None, workers=10_000)
    assert all(w <= 2 for w in started)
    assert (rec.frames, rec.block_errors, rec.bit_errors) == (512, 64, 379)


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


def test_ensemble_decode_agrees_with_run_mc_frame_by_frame():
    # decode_branches and select_winners on the run's frames, from
    # build_frames, and the Monte-Carlo chunk must make the same block
    # error decisions
    spec = rm_code(2, 5)
    ch = ChannelConfig(1.5, spec.rate, seed=20)
    cfg = EnsembleConfig(4, "ga", Scl(2), seed=21)
    tables = compile_tables(cfg.sample_automorphisms(spec.m))
    frames = 200
    blk, _, _, _ = _eval_chunk(spec, cfg, ch, 0, frames, False, tables)
    assert 0 < blk.sum() < frames
    _, x, y, llr = build_frames(spec, ch, 0, frames)
    x_de, _, _, valid = decode_branches(spec, llr, tables, cfg.constituent)
    win, _ = select_winners(x_de, valid, y)
    assert np.array_equal(np.any(x_de[np.arange(frames), win] != x, axis=1), blk)


@pytest.mark.parametrize("decoder", [Sc(), Scl(4), Bp(10)], ids=["sc", "scl4", "bp10"])
def test_plain_decoder_is_an_ensemble_of_one(decoder):
    """A plain decoder's chunk decides as the one-branch ensemble with the
    identity table does: its best-correlation codeword candidate, whose
    message is that codeword transformed back.  The block-error flags and
    bit-error counts of _eval_chunk must equal those of decode_branches,
    select_winners and polar_transform on the run's frames, from
    build_frames."""
    spec = rm_code(2, 5)
    ch = ChannelConfig(1.5, spec.rate, seed=22)
    frames = 200
    blk, bits, _, _ = _eval_chunk(spec, decoder, ch, 0, frames, False)
    assert 0 < blk.sum() < frames
    msgs, x, y, llr = build_frames(spec, ch, 0, frames)
    x_de, _, _, valid = decode_branches(spec, llr, np.arange(spec.n)[None], decoder,
                                        dtype=simulation._MC_DTYPE)
    win, _ = select_winners(x_de, valid, y)
    x_hat = x_de[np.arange(frames), win]
    assert np.array_equal(blk, np.any(x_hat != x, axis=1))
    u_hat = polar_transform(x_hat)[:, spec.info_indices]
    assert np.array_equal(bits, np.count_nonzero(u_hat != msgs, axis=1))


# ---------------------------------------------------------------------------
# frame streams: _stream_words against numpy's SeedSequence


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70 + 1, 2**128,
                                  2**130 + 5, (3 << 32) + 4 + 1])
@pytest.mark.parametrize("lo,hi", [(0, 4), (9, 10), (2**32 - 2, 2**32 + 2),
                                   (2**40 + 7, 2**40 + 9), (2**64 - 2, 2**64)])
def test_stream_states_equal_seedsequence_states(seed, lo, hi):
    """The generate_state words of every frame's root stream, or of its
    first spawned children, and the PCG64 states default_rng seeds from
    them."""
    for children in (0, 2, 3):
        words = _stream_words(seed, lo, hi, children)
        assert words.shape == (hi - lo, max(children, 1), 4)
        for f, frame in zip(range(lo, hi), words.tolist()):
            root = _frame_stream(seed, f)
            streams = root.spawn(children) if children else [root]
            assert frame == [ss.generate_state(4, np.uint64).tolist() for ss in streams]
            assert [_pcg64_state(*w) for w in frame] == \
                [np.random.PCG64(ss).state for ss in streams]


class _FixedWords(np.random.bit_generator.ISeedSequence):
    """A seed that hands PCG64 the given generate_state words unchanged."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, np.dtype(dtype)) == (4, np.dtype(np.uint64))
        return self.words.copy()


_M64, _M128 = 2**64 - 1, 2**128 - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's LCG multiplier


def _words_at_state(state, i0, i1, draws):
    """Seed words (s0, s1, i0, i1) of a PCG64 whose LCG state is `state`
    after `draws` raw words: s solves A s + G c = state, with A = MULT**(j+1)
    and G = 1 + MULT + ... + MULT**(j+1) for j draws and c = 2 (i0, i1) + 1."""
    c = ((i0 << 64 | i1) << 1 | 1) & _M128
    a = pow(_MULT, draws + 1, 2**128)
    g = sum(pow(_MULT, e, 2**128) for e in range(draws + 2)) & _M128
    s = (state - g * c) * pow(a, -1, 2**128) & _M128
    return [s >> 64, s & _M64, i0, i1]


@pytest.mark.parametrize("count", [1, 2, 21, 80])
def test_raw_words_equal_pcg64_random_raw(count):
    """_raw_words, the message words by jump-ahead, equal numpy's
    random_raw(count) for word counts of k <= 8, of RM(4,8) and of RM(5,10)
    (k = 638): on PCG64s seeded with edge and random generate_state words,
    on one whose last word is drawn at rotation 0, and on the message
    streams of frames across 2**32 and at 2**64 - 2."""
    top = _M64
    words = [[0, 0, 0, 0], [top] * 4, [0, top, 0, 2**63], [top, 0, 2**63, top],
             [1, 2**63, 2**32 - 1, 2**32]]
    words += np.random.default_rng(count).integers(0, top, (8, 4), dtype=np.uint64,
                                                   endpoint=True).tolist()
    words.append(_words_at_state((5 << 64) | 7, 3, 9, count))  # top six bits 0
    want = []
    for w in words:
        bitgen = np.random.PCG64(_FixedWords(w))
        want.append(bitgen.random_raw(count))
    assert bitgen.state["state"]["state"] >> 122 == 0  # the rotation-0 case
    assert np.array_equal(simulation._raw_words(np.array(words, dtype=np.uint64), count),
                          np.array(want))
    # the data carry across the 64-bit halves: the increment 2 i + 1 takes
    # bit 63 of i1 into its high half, and the low halves of A s and G c
    # overflow when they are added
    carries = [(pow(_MULT, j + 1, 2**128) * (s0 << 64 | s1) & _M64)
               + (sum(pow(_MULT, e, 2**128) for e in range(j + 2))
                  * ((i0 << 64 | i1) << 1 | 1) & _M64) >= 2**64
               for s0, s1, i0, i1 in words[:6] for j in (1, count)]
    assert any(carries) and any(w[3] >> 63 for w in words)
    for lo, hi in [(2**32 - 2, 2**32 + 2), (2**64 - 2, 2**64)]:
        got = simulation._raw_words(
            simulation._stream_words(11, lo, hi, children=2)[:, 0], count)
        want = [np.random.default_rng(_frame_stream(11, f).spawn(2)[0])
                .bit_generator.random_raw(count) for f in range(lo, hi)]
        assert np.array_equal(got, np.array(want))


def test_raw_words_equal_python_int_jump_ahead():
    """_raw_words equals the jump-ahead in Python ints, the XSL-RR output of
    A s + G c mod 2**128, on seed words whose s and i take the edge values
    0, 1, 2**64 - 1, 2**64, 2**127 and 2**128 - 1 (all-ones words give every
    float64 limb sum in _raw_words its largest value)."""
    edges = [0, 1, _M64, 2**64, 2**127, _M128]
    words = [[s >> 64, s & _M64, i >> 64, i & _M64] for s in edges for i in edges]
    count = 21
    consts = [(pow(_MULT, j + 1, 2**128),
               sum(pow(_MULT, e, 2**128) for e in range(j + 2)) & _M128)
              for j in range(1, count + 1)]
    want = []
    for s0, s1, i0, i1 in words:
        s, c = s0 << 64 | s1, ((i0 << 64 | i1) << 1 | 1) & _M128
        want.append([])
        for a, g in consts:
            state = (a * s + g * c) & _M128
            x, rot = (state >> 64 ^ state) & _M64, state >> 122
            want[-1].append((x >> rot | x << 64 - rot) & _M64)
    assert simulation._raw_words(np.array(words, dtype=np.uint64), count).tolist() == want


def _seedsequence_message(spec, seed, frame, all_zero=False):
    """The definition of frame `frame`'s message: integers(0, 2, k) drawn by
    default_rng on the first child of its root stream."""
    if all_zero:
        return np.zeros(spec.k, dtype=np.uint8)
    msg_ss = _frame_stream(seed, frame).spawn(2)[0]
    return np.random.default_rng(msg_ss).integers(0, 2, spec.k, dtype=np.uint8)


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


def _spy_chunk(monkeypatch, spec, decoder, ch, lo, hi, all_zero=False) -> dict:
    """Run _eval_chunk and return the LLRs and tables it passes to
    decode_branches."""
    seen = {}
    decode_branches = simulation.decode_branches

    def spy_decode(spec, llrs, tables, *args, **kwargs):
        seen["llrs"], seen["tables"] = llrs.copy(), tables.copy()
        return decode_branches(spec, llrs, tables, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(simulation, "decode_branches", spy_decode)
        _eval_chunk(spec, decoder, ch, lo, hi, all_zero)
    return seen


def _oracle_tables(spec, cfg: EnsembleConfig, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, M, N) tables of a resampled ensemble from the one-by-one
    reference sampler on each frame's root stream, compiled bit by bit."""
    return np.array([
        [compile_brute(a) for a in sample_ensemble_scalar(
            spec.m, cfg.subgroup, cfg.size,
            np.random.default_rng(_frame_stream(cfg.seed, f)))]
        for f in range(lo, hi)])


@pytest.mark.parametrize("ch_seed,ens_seed,lo,hi,all_zero", STREAM_CASES)
def test_eval_chunk_draws_equal_seedsequence_draws(monkeypatch, ch_seed, ens_seed,
                                                   lo, hi, all_zero):
    """build_frames' messages, codewords, received vectors and LLRs, and a
    chunk's resampled automorphisms, equal the draws of default_rng on every
    frame's SeedSequence streams, looped frame by frame; the automorphisms
    are those of the reference sampler, for every subgroup, and the chunk
    decodes the builder's LLRs."""
    for spec in (rm_code(2, 4), rm_code(4, 8)):  # messages of 2 and 21 raw words
        ch = ChannelConfig(1.0, spec.rate, seed=ch_seed)
        msgs, xs, ys = [], [], []
        for f in range(lo, hi):
            msgs.append(_seedsequence_message(spec, ch_seed, f, all_zero))
            xs.append(encode(spec, msgs[-1]))
            noise_ss = _frame_stream(ch_seed, f).spawn(2)[1]
            ys.append((1.0 - 2.0 * xs[-1]) + np.random.default_rng(
                noise_ss).normal(0.0, ch.sigma, spec.n))
        want = (msgs, xs, ys, saturate(2.0 * np.array(ys) / ch.sigma ** 2))
        frames = build_frames(spec, ch, lo, hi, all_zero)
        for got, expect in zip(frames, want):
            assert np.array_equal(got, np.array(expect))
        for subgroup in ("ga", "lta", "uta", "pi"):
            cfg = EnsembleConfig(3, subgroup, Sc(), resample_per_frame=True,
                                 seed=ens_seed)
            seen = _spy_chunk(monkeypatch, spec, cfg, ch, lo, hi, all_zero)
            assert np.array_equal(seen["llrs"], frames[3])
            assert np.array_equal(seen["tables"], _oracle_tables(spec, cfg, lo, hi))


@pytest.mark.parametrize("r,m,size,subgroup,lo,hi", [
    (4, 8, 32, "ga", 5, 8),                           # the benchmark's shape
    (2, 5, 4, "lta", 0, 6),
    (2, 5, 4, "uta", 0, 6),
    (2, 5, 4, "pi", 0, 6),
    (1, 1, 2, "ga", 0, 20),  # all of ga(1): dropped duplicates, extended draws
], ids=["rm48-aut32-ga", "lta", "uta", "pi", "ga-m1-whole-group"])
def test_eval_chunk_ensembles_equal_scalar_oracle(monkeypatch, r, m, size, subgroup,
                                                  lo, hi):
    """The tables one chunk compiles for a resampled ensemble are those of
    the reference sampler run frame by frame, for every subgroup."""
    spec = rm_code(r, m)
    cfg = EnsembleConfig(size, subgroup, Sc(), resample_per_frame=True, seed=23)
    seen = _spy_chunk(monkeypatch, spec, cfg, ChannelConfig(1.0, spec.rate, seed=3),
                      lo, hi)
    assert np.array_equal(seen["tables"], _oracle_tables(spec, cfg, lo, hi))


@pytest.mark.parametrize("decoder", [
    EnsembleConfig(4, "ga", Sc(), resample_per_frame=True, seed=1),
    EnsembleConfig(3, "lta", Sc(), resample_per_frame=True, seed=2),
    EnsembleConfig(4, "ga", Scl(2), seed=3),
    EnsembleConfig(3, "pi", Bp(5), seed=4),
], ids=["ga-resampled", "lta-resampled", "ga-fixed-scl2", "pi-fixed"])
def test_run_mc_builds_no_automorphism_objects(monkeypatch, decoder):
    """Ensembles stay arrays from the draw through the compile: a run_mc
    over two chunks completes with AffineAutomorphism construction made to
    fail."""
    def refuse(self):
        raise AssertionError("AffineAutomorphism built on the Monte-Carlo path")

    monkeypatch.setattr(AffineAutomorphism, "__post_init__", refuse)
    spec = rm_code(2, 5)
    rec = run_mc(spec, decoder, ChannelConfig(2.0, spec.rate, seed=1),
                 frames=300, target_errors=None)
    assert rec.frames == 300


@pytest.mark.parametrize("r,m,lo,hi,all_zero", [
    (0, 4, 0, 5, False),                 # k = 1
    (1, 6, 3, 9, False),                 # k = 7, less than a byte
    (3, 7, 0, 4, False),                 # k = 64, a whole 64-bit word
    (4, 8, 254, 259, False),             # k = 163
    (4, 4, 0, 4, False),                 # k = N
    (4, 8, 0, 3, True),
    (2, 5, 2**32 - 2, 2**32 + 2, False),  # across frame 2**32
], ids=["k1", "k7", "k64", "k163", "kN", "all-zero", "frame-2^32"])
def test_eval_chunk_messages_equal_integers_draws(r, m, lo, hi, all_zero):
    """build_frames' messages, read from raw PCG64 words, equal
    integers(0, 2, k, dtype=uint8) on every frame's message stream, for
    message lengths across byte and word boundaries."""
    spec = rm_code(r, m)
    seed = (5 << 32) + 3
    msgs = build_frames(spec, ChannelConfig(1.0, spec.rate, seed=seed), lo, hi,
                        all_zero)[0]
    want = [_seedsequence_message(spec, seed, f, all_zero) for f in range(lo, hi)]
    assert msgs.dtype == np.uint8
    assert np.array_equal(msgs, np.array(want))


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


@pytest.mark.parametrize("r,m,size,subgroup,message", [
    (1, 2, 40, "lta", "cannot draw 40 distinct elements from lta"),
    (0, 0, 2, "ga", "m must be >= 1")], ids=["larger-than-group", "m0"])
def test_run_mc_refuses_an_undrawable_ensemble_before_any_chunk(
        monkeypatch, r, m, size, subgroup, message):
    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(simulation, "_eval_chunk", no_chunk)
    spec = rm_code(r, m)
    for resample in (True, False):
        cfg = EnsembleConfig(size, subgroup, Sc(), resample_per_frame=resample)
        with pytest.raises(ValueError, match=message):
            run_mc(spec, cfg, ChannelConfig(1.0, spec.rate), frames=20)


def test_run_mc_refuses_a_foreign_decoder_before_any_chunk(monkeypatch):
    """A decoder that is not Sc, Scl, Bp or EnsembleConfig is a TypeError
    before any chunk runs or any worker process starts."""
    spec = rm_code(2, 5)
    ch = ChannelConfig(2.0, spec.rate)
    with pytest.raises(TypeError, match="decoder must be"):
        run_mc(spec, "sc", ch, frames=4, target_errors=None)

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(TypeError, match="decoder must be"):
        run_mc(spec, "sc", ch, frames=512, target_errors=None, workers=2)
    with pytest.raises(TypeError, match="unsupported decoder"):
        decode_branches(spec, np.zeros((1, spec.n)), np.arange(spec.n)[None], "sc")


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
# chunk rule: a chunk holds min(BATCH_FRAMES, max(1, CHUNK_ROWS // M)) frames

def _counts(rec):
    return rec.frames, rec.block_errors, rec.bit_errors, rec.avg_iterations, rec.stopped_by


def _spy_chunks(monkeypatch) -> list:
    """Record the (lo, hi) of every _eval_chunk call that run_mc makes."""
    chunks = []
    orig = simulation._eval_chunk

    def spy(spec, decoder, ch, lo, hi, *rest):
        chunks.append((lo, hi))
        return orig(spec, decoder, ch, lo, hi, *rest)

    monkeypatch.setattr(simulation, "_eval_chunk", spy)
    return chunks


def test_run_mc_chunks_hold_at_most_chunk_rows_branch_rows(monkeypatch):
    """A resampled Aut-32 run of 256 frames hands the kernels at most
    CHUNK_ROWS branch rows per chunk, and its chunks cover frames 0..255 in
    order."""
    chunks = _spy_chunks(monkeypatch)
    spec = rm_code(2, 5)
    cfg = EnsembleConfig(32, "ga", Sc(), resample_per_frame=True, seed=4)
    rec = run_mc(spec, cfg, ChannelConfig(2.0, spec.rate, seed=4), frames=256,
                 target_errors=None)
    assert rec.frames == 256 and len(chunks) > 1
    assert all(32 * (hi - lo) <= simulation.CHUNK_ROWS for lo, hi in chunks)
    assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]
    assert chunks[-1][1] == 256


@pytest.mark.parametrize("decoder", [Sc(), Scl(4)], ids=["sc", "scl4"])
def test_run_mc_plain_decoders_take_full_chunks(monkeypatch, decoder):
    """A plain decoder counts one row per frame, SCL's list paths included,
    so it decodes BATCH_FRAMES frames per chunk."""
    chunks = _spy_chunks(monkeypatch)
    spec = rm_code(2, 5)
    run_mc(spec, decoder, ChannelConfig(2.0, spec.rate, seed=4), frames=600,
           target_errors=None)
    assert chunks == [(0, 256), (256, 512), (512, 600)]


def test_run_mc_numpy_integer_ensemble_size():
    """An np.int64 size, which EnsembleConfig accepts, runs the same chunks
    as the int: frame indices stay Python ints."""
    spec = rm_code(2, 5)
    ch = ChannelConfig(2.0, spec.rate, seed=6)
    frames = 3 * simulation.CHUNK_ROWS // 32 + 5  # four chunks
    recs = [run_mc(spec, EnsembleConfig(size, "ga", Sc(), resample_per_frame=True,
                                        seed=6), ch, frames=frames, target_errors=None)
            for size in (np.int64(32), 32)]
    assert _counts(recs[0]) == _counts(recs[1])


def test_run_mc_resampled_bp_ensemble_is_worker_invariant():
    """A resampled Aut-8-BP run reaching its error target inside a chunk
    gives the same record at one and at two workers."""
    spec = rm_code(2, 5)
    ch = ChannelConfig(1.0, spec.rate, seed=8)
    cfg = EnsembleConfig(8, "ga", Bp(20, True), resample_per_frame=True, seed=8)
    step = simulation.CHUNK_ROWS // 8
    recs = [run_mc(spec, cfg, ch, frames=4 * step, target_errors=40, workers=w)
            for w in (1, 2)]
    assert recs[0].stopped_by == "target" and recs[0].block_errors == 40
    assert recs[0].frames > step and recs[0].frames % step
    assert _counts(recs[0]) == _counts(recs[1])


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
