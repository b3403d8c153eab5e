"""BPSK/AWGN channel, Monte-Carlo error-rate harness and brute-force ML
oracle, with the package's one decoder dispatch, _decode_rows.  Every
chunk decodes through decode_branches, a plain decoder as an ensemble of
one branch with no table, and every frame's decision is its
best-correlation codeword candidate (select_winners; with one candidate,
that one).

build_frames is the one frame path: it draws the messages and the noise
of a range of frames, encodes them and forms the received vectors and
LLRs, and _eval_chunk decodes what it returns.  Every frame draws its
message and noise from streams derived from (channel seed, frame index),
so runs are reproducible bit-for-bit, results never depend on batching or
worker count, and different decoder configurations under the same channel
seed see identical noise (paired comparisons).  Frame f's root stream is
`np.random.SeedSequence(seed, spawn_key=(f,))` (_frame_stream); its first
two spawned children seed `default_rng` for the message and the noise, and
a resampled ensemble draws frame f's automorphisms from the root stream
under its own seed.  _stream_words computes the generate_state words of a
whole chunk of such streams at once, reproducing numpy's hashing bit for
bit.  A frame's message is the top bit of each byte of its message
stream's first ceil(k / 8) raw PCG64 words, bit-identical to
`Generator.integers(0, 2, k, dtype=uint8)`; _raw_words computes those
words for every frame of the chunk at once by jumping the 128-bit LCG ahead
(see there).  The noise streams are read one frame at a time, by loading
each state (_pcg64_state) into one reused generator, and a resampled
ensemble hands sample_ensemble its chunk's automorphism states, loaded the
same way, as a list.  _frame_stream, Generator.integers and random_raw
remain the definition and the test oracle.
Monte-Carlo SC and BP decoding run in float32 for throughput (_MC_DTYPE);
SCL runs in float64, and the decoder APIs themselves default to float64.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import time
from dataclasses import dataclass

import numpy as np

from .automorphisms import compile_tables
from .codes import (CODEBOOK_K_MAX, CapacityError, CodeSpec, _codebook_chunks,
                    encode, polar_transform)
from .decoders import (CHUNK_ROWS, L_MAX, Bp, Sc, Scl, bp_decode_batch,
                       sc_decode_batch, scl_decode_batch)
from .ensemble import DecoderConfig, EnsembleConfig, check_seed, select_winners

# The one bound on the kernels' working set: a chunk holds
# min(BATCH_FRAMES, max(1, CHUNK_ROWS // M)) frames of an ensemble of M
# branches (M = 1 for a plain decoder; SCL list paths are not counted), with
# CHUNK_ROWS from decoders.  Results are independent of both constants.
BATCH_FRAMES = 256
# Frame budget of a run given only an error target: 100 errors at BLER 1e-4.
# A point that does not reach its target by then stops there, and its record
# says so (SimRecord.stopped_by == "cap"); pass a frame budget to go further.
MAX_FRAMES = 1_000_000
# The precision of Monte-Carlo SC and BP decoding (SCL runs in float64).
_MC_DTYPE = np.float32


@dataclass(frozen=True)
class ChannelConfig:
    """BI-AWGN channel at Eb/N0 `ebn0_db` for a code of rate `rate`; `seed`,
    a non-negative integer, names the frames' message and noise streams."""

    ebn0_db: float
    rate: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} outside (0, 1]")
        check_seed(self.seed)
        # an Eb/N0 that is not finite, or is finite but beyond about
        # +-3,080 dB, puts sigma or 2/sigma^2 outside the positive floats
        try:
            with np.errstate(divide="ignore"):
                sigma = self.sigma
            usable = 0.0 < sigma < math.inf and 0.0 < 2.0 / sigma ** 2 < math.inf
        except (OverflowError, ZeroDivisionError):
            usable = False
        if not usable:
            raise ValueError(f"Eb/N0 must be finite and give a noise level sigma "
                             f"and an LLR scale 2/sigma^2 that are finite and "
                             f"positive, got {self.ebn0_db} dB")

    @property
    def sigma(self) -> float:
        """Noise standard deviation: sigma^2 = 1 / (2 R 10^(Eb/N0 / 10))."""
        return float(1.0 / np.sqrt(2.0 * self.rate * 10.0 ** (self.ebn0_db / 10.0)))


@dataclass
class SimRecord:
    """Accumulated statistics of one Monte-Carlo run.  stopped_by is
    "target" when the run reached its block-error target, "frames" when it
    used up its frame budget and "cap" when it had no budget and stopped at
    MAX_FRAMES."""

    frames: int
    block_errors: int
    bit_errors: int
    info_bits: int
    avg_iterations: float
    wall_seconds: float
    stopped_by: str

    @property
    def bler(self) -> float:
        return self.block_errors / self.frames if self.frames else 0.0

    @property
    def ber(self) -> float:
        total = self.frames * self.info_bits
        return self.bit_errors / total if total else 0.0


def ml_decode_oracle(spec: CodeSpec, y) -> np.ndarray:
    """Exhaustive maximum-likelihood decision: the codeword maximising
    sum_i (-1)^x_i y_i; ties resolved to the lexicographically smallest
    codeword.  Only feasible for k <= CODEBOOK_K_MAX."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (spec.n,):
        raise ValueError(f"received vector length {y.shape} != N={spec.n}")
    if spec.k > CODEBOOK_K_MAX:
        raise CapacityError(f"k={spec.k} exceeds ML enumeration cap {CODEBOOK_K_MAX}")
    best_score = -np.inf
    best = None
    for _, cws in _codebook_chunks(spec):
        scores = (1.0 - 2.0 * cws) @ y
        mx = scores.max()
        if mx < best_score:
            continue
        cand = min(cws[scores == mx], key=lambda c: c.tobytes())
        if mx > best_score or cand.tobytes() < best.tobytes():
            best_score = mx
            best = cand.copy()
    return best


# ---------------------------------------------------------------------------
# Monte-Carlo loop

def _frame_stream(seed: int, frame: int) -> np.random.SeedSequence:
    """Root stream of one frame.  Under the channel seed its two children are
    the frame's message and noise streams; under an ensemble seed it draws
    the frame's automorphisms.  This is the definition of a stream;
    _stream_words computes the same streams' seed words in bulk."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(frame,))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and PCG64's
# LCG multiplier, which _stream_words and _raw_words reproduce
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hashing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # output hashing
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list[int]:
    """n as SeedSequence reads it: little-endian 32-bit words, at least one."""
    return [n >> s & _M32 for s in range(0, max(n.bit_length(), 1), 32)]


def _hash_consts(hc: int, mult: int, count: int) -> np.ndarray:
    """hc and the `count` hash constants after it, each the previous one
    times mult, as a (count + 1, 1, 1) uint32 array."""
    out = [hc]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, None, None]


def _hashmix(value, pre, post):
    """SeedSequence's hashmix of 32-bit `value` under hash constant `pre`,
    whose successor is `post`; Python ints or uint32 arrays (which wrap)."""
    value = (value ^ pre) * post & _M32
    return value ^ value >> _XSHIFT


def _mix(x, y):
    """SeedSequence's mix of two 32-bit pool words."""
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return value ^ value >> _XSHIFT


_OUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
# generate_state's eight output words hash pool words 0-3, 0-3 under
# consecutive constants: (2, 4, 1, 1), broadcast against the pool
_OUT_PRE = _OUT_CONSTS[:-1].reshape(2, _POOL_SIZE, 1, 1)
_OUT_POST = _OUT_CONSTS[1:].reshape(2, _POOL_SIZE, 1, 1)
# a stream's spawn key adds at most three entropy words: a frame index below
# 2**64 and a child index
_KEY_WORDS = 3


@functools.lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Pool of SeedSequence(seed, spawn_key=...) once the seed's words are
    mixed in, as a (4, 1, 1) uint32 array, and the entropy hash constants
    under which the key words are mixed: key word i, hashed under constant
    4 i + j, is mixed into pool word j.  numpy pads the seed's words with
    zeros to the pool size because a spawn key follows.  Memoised: a run
    derives every chunk's streams from the same channel and ensemble seeds;
    the arrays are read-only."""
    ent = _words(seed)
    ent += [0] * (_POOL_SIZE - len(ent))
    hc = _INIT_A

    def hashmix(value):
        nonlocal hc
        pre, hc = hc, hc * _MULT_A & _M32
        return _hashmix(value, pre, hc)

    pool = [hashmix(w) for w in ent[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in ent[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))
    pool = np.array(pool, dtype=np.uint32)[:, None, None]
    consts = _hash_consts(hc, _MULT_A, _KEY_WORDS * _POOL_SIZE)
    pool.setflags(write=False)
    consts.setflags(write=False)
    return pool, consts


def _pcg64_state(s0: int, s1: int, i0: int, i1: int) -> dict:
    """`bit_generator.state` of a PCG64 seeded with the four words of
    generate_state(4, uint64): inc = 2 (i0, i1) + 1, then from state 0 one
    LCG step, add (s0, s1) and take another step."""
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _stream_words(seed: int, lo: int, hi: int, children: int = 0) -> np.ndarray:
    """generate_state(4, uint64) words, the words default_rng seeds PCG64
    with, of the streams of frames lo..hi-1 under `seed`, as a
    (hi - lo, max(children, 1), 4) uint64 array: with children == 0 the
    words of the root stream _frame_stream(seed, f), else those of the first
    `children` streams that _frame_stream(seed, f).spawn() gives.

    The stream of child c is SeedSequence(seed, spawn_key=(f, c)): its
    entropy is the seed's words, zero-padded to the pool size, then f's
    words, then c.  The seed's part of the pool is mixed once per seed, in
    Python ints; the frame and child words are mixed as uint32 arrays over
    the whole chunk, split where f's word count changes (at 2**32; frame
    indices stay below 2**64)."""
    check_seed(seed)
    pool0, consts = _seed_pool(int(seed))
    pieces = [np.empty((0, max(children, 1), 4), dtype=np.uint64)]
    while lo < hi:
        nwords = len(_words(lo))
        end = min(hi, 1 << 32 * nwords)
        frames = np.arange(lo, end, dtype=np.uint64)
        # pool (4, kinds, frames): frame words along the last axis, child
        # words along the middle one
        words = [(frames >> 32 * i).astype(np.uint32) for i in range(nwords)]
        if children:
            words.append(np.arange(children, dtype=np.uint32)[:, None])
        pool = pool0
        for i, w in enumerate(words):
            ha = consts[_POOL_SIZE * i:_POOL_SIZE * (i + 1) + 1]
            pool = _mix(pool, _hashmix(w, ha[:-1], ha[1:]))
        # generate_state(4, uint64): 8 words, cycling through the pool
        state = _hashmix(pool, _OUT_PRE, _OUT_POST).reshape(-1, *pool.shape[1:])
        state = state.astype(np.uint64)
        pieces.append((state[0::2] | state[1::2] << 32).transpose(2, 1, 0))
        lo = end
    return np.concatenate(pieces)


@functools.lru_cache(maxsize=8)
def _jump_consts(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Limbs of the constants that take a PCG64's generate_state words to
    its LCG states after raw words 1..count: state j is
    A s + 2 G i + G mod 2**128, with s = (s0, s1), i = (i0, i1),
    A = MULT**(j+1) and G = 1 + MULT + ... + MULT**(j+1) (see _raw_words).

    Returns a (16, 4 count) float64 matrix, whose entry (r, p count + j) is
    32-bit limb p of the multiplier of 16-bit limb r of a row (s0, s1, i0,
    i1) of little-endian words in state j, and G's 32-bit limbs as a
    (4, count) uint64 array, limb p in row p.  Both are read-only."""
    a, g = _PCG_MULT, 1 + _PCG_MULT  # A_1 and G_2
    cols = []
    for _ in range(count):
        a, g = a * _PCG_MULT & _M128, (g * _PCG_MULT + 1) & _M128
        # limb r weighs 2**(16 (r % 4)) in its word, and the high halves s0
        # and i0 weigh 2**64
        cols.append([(a if r < 8 else 2 * g) << 16 * (r % 4) + 64 * (r // 4 % 2 == 0)
                     & _M128 for r in range(16)] + [g])
    limbs = np.array([[[x >> 32 * p & _M32 for x in col] for p in range(4)]
                      for col in cols], dtype=np.uint64).reshape(count, 4, 17)
    mult = limbs[..., :16].transpose(2, 1, 0).reshape(16, 4 * count).astype(np.float64)
    add = limbs[..., 16].T.copy()
    mult.setflags(write=False)
    add.setflags(write=False)
    return mult, add


# uint64 scalars for the shifts and masks below: numpy shifts a uint64
# array by a Python int about a third more slowly
_U26, _U32, _U63 = np.uint64(26), np.uint64(32), np.uint64(63)
_LOW32 = np.uint64(_M32)


def _raw_words(words: np.ndarray, count: int) -> np.ndarray:
    """random_raw(count) of each PCG64 stream seeded with generate_state
    words (s0, s1, i0, i1), the rows of `words`: an (F, count)
    little-endian uint64 array, computed for all rows and words at once.

    default_rng's PCG64 starts at state MULT s + (MULT + 1) c with
    s = (s0, s1) and increment c = 2 (i0, i1) + 1 (see _pcg64_state), and
    every draw takes an LCG step, state -> MULT state + c, and returns the
    XSL-RR output of the new state: its two halves XORed and rotated right
    by its top six bits.  Raw word j is therefore the output of
    A_(j+1) s + G_(j+2) c mod 2**128 (Brown's jump-ahead for LCGs).

    The states come from one matrix product of the words' 16-bit limbs
    with _jump_consts' 32-bit ones, in float64: a sum of 16 products of a
    16-bit and a 32-bit limb, plus a 32-bit limb of G, stays below 2**53,
    so it is exact in any order of summation.  The four sums of a state,
    at 32-bit positions, are then carried into each other."""
    mult, add = _jump_consts(count)
    limbs = words.astype("<u8", copy=False).view("<u2")
    t = (limbs @ mult).astype(np.uint64).reshape(len(words), 4, count)
    t += add
    v0, v1, v2, v3 = t.transpose(1, 0, 2)
    v1 += v0 >> _U32
    v2 += v1 >> _U32
    v3 += v2 >> _U32
    rot = v3 >> _U26 & _U63  # the state's top six bits
    x = (v3 ^ v1) << _U32  # high half ^ low half
    x |= (v2 ^ v0) & _LOW32
    out = np.empty(x.shape, dtype="<u8")
    np.bitwise_or(x >> rot, x << (-rot & _U63), out=out)
    return out


def build_frames(spec: CodeSpec, ch: ChannelConfig, lo: int, hi: int,
                 all_zero: bool = False
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Frames lo..hi-1 of a Monte-Carlo run on channel ch, exactly as run_mc
    transmits them: (F, k) uint8 messages (all zero with `all_zero`), their
    (F, N) uint8 codewords, BPSK-mapped (bit 0 -> +1) received vectors y and
    channel LLRs 2 y / sigma^2 saturated to +-L_MAX, both (F, N) float64.
    Frame f depends only on (spec, ch, f); frame indices run from 0 to
    2**64 - 1; a bound that is not an integer is a TypeError."""
    lo, hi = operator.index(lo), operator.index(hi)
    if not 0 <= lo <= hi <= 1 << 64:
        raise ValueError(f"frame range {lo}..{hi} is not within 0 <= lo <= hi <= 2**64")
    fsz = hi - lo
    n, k = spec.n, spec.k
    sigma = ch.sigma
    words = _stream_words(ch.seed, lo, hi, children=2)
    if all_zero:
        msgs = np.zeros((fsz, k), dtype=np.uint8)
    else:
        # integers(0, 2, k, dtype=uint8) returns the top bit of byte j of the
        # little-endian stream of raw 64-bit words as message bit j (numpy's
        # bounded uint8 method never rejects for a range of 2), so a message
        # is its stream's first ceil(k / 8) raw words
        msgs = _raw_words(words[:, 0], -(-k // 8)).view(np.uint8)[:, :k] >> 7
    # normal(0, sigma) is 0.0 + sigma z, which differs from sigma z only in
    # the sign of a zero; y = (1 - 2x) + noise below erases that sign
    noise = np.empty((fsz, n))
    rng = np.random.Generator(np.random.PCG64(0))  # reseeded for every stream
    bitgen = rng.bit_generator
    for t, noise_words in enumerate(words[:, 1].tolist()):
        bitgen.state = _pcg64_state(*noise_words)
        rng.standard_normal(out=noise[t])
    noise *= sigma
    x = encode(spec, msgs)
    # y = (1 - 2x) + noise and llr = saturate(2y / sigma^2), in place and
    # rounded in the same order (-2x + 1 is exactly 1 - 2x); y takes over
    # the noise buffer
    llr = np.multiply(x, -2.0, out=np.empty((fsz, n)))
    llr += 1.0
    y = np.add(llr, noise, out=noise)
    np.multiply(y, 2.0, out=llr)
    llr /= sigma ** 2
    np.clip(llr, -L_MAX, L_MAX, out=llr)
    return msgs, x, y, llr


def _decode_rows(spec: CodeSpec, llrs: np.ndarray, config: DecoderConfig,
                 dtype=np.float64) -> tuple[np.ndarray, ...]:
    """The package's one Sc/Scl/Bp dispatch: decode (R, N) LLR rows with a
    plain config, SC and BP in dtype and SCL in float64; any other config
    is a TypeError.  Returns codeword candidates (R, L, N), BP's as its
    message estimate re-encoded, iteration counts (1 but for BP) and
    validity (R, L), where L is 1 but for SCL: its slots in metric order,
    unused ones invalid."""
    if isinstance(config, Scl):
        _, x, pm = scl_decode_batch(spec, llrs, config.list_size)
        return x, np.ones(pm.shape, np.int64), np.isfinite(pm)
    if isinstance(config, Sc):
        x, iters = sc_decode_batch(spec, llrs, dtype)[1], np.ones(len(llrs), np.int64)
    elif isinstance(config, Bp):
        u, _, iters, _ = bp_decode_batch(spec, llrs, config.max_iters,
                                         config.stopping, dtype=dtype)
        x = polar_transform(u)
    else:
        raise TypeError(f"unsupported decoder {config!r}")
    return x[:, None], iters[:, None], np.ones((len(llrs), 1), bool)


def decode_branches(spec: CodeSpec, llrs: np.ndarray, tables: np.ndarray | None,
                    constituent: DecoderConfig, dtype=np.float64
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run every ensemble branch of a batch of frames, SC and BP in dtype
    and SCL in float64 (see _decode_rows).

    llrs is (F, N).  tables holds compiled index tables t, either (M, N)
    shared by all frames or (F, M, N) per frame, or is None for a plain
    decoder: one branch that decodes llrs as they are, with no gather and
    no scatter.  Branch j interleaves by gathering, llr[t_j], and
    de-interleaves its estimates by scattering through the same table,
    out[t_j[i]] = x[i]; no inverse table is built.  Returns codeword
    candidates (F, C, N), de-interleaved, and their branch indices,
    iteration counts and validity (see _decode_rows), each (F, C).
    C = M*L, ordered by branch, then list slot: candidate c came from
    branch c // L.

    One flat index, t_j + f*N for frame f's branch j, gathers all R = F*M
    branch rows and, moved to candidate row (f*M + j)*L + l, scatters their
    estimates.  SC and BP get the rows batch-last, as the transpose of one
    C-contiguous (N, R) array in dtype, which SC reads as its channel stage
    in place and BP copies contiguously; SCL gets them batch-first.  The
    tables must be compiled permutations (compile_tables): an entry outside
    0..N-1 is not caught and would read another frame's LLRs.
    """
    if tables is None:
        x, iters, valid = _decode_rows(spec, llrs, constituent, dtype)
        return x, np.zeros(valid.shape, np.int64), iters, valid
    fsz, n = llrs.shape
    msz = tables.shape[-2]
    index = (tables + np.arange(0, fsz * n, n)[:, None, None]).reshape(fsz * msz, n)
    if isinstance(constituent, Scl):
        rows = llrs.reshape(-1)[index]
    else:  # a gather and then a transposing copy beat any transposed index
        rows = np.ascontiguousarray(np.asarray(llrs, dtype).reshape(-1)[index].T).T
    x, iters, valid = _decode_rows(spec, rows, constituent, dtype)
    lsz = x.shape[1]
    out = np.empty((fsz, msz, lsz, n), dtype=x.dtype)
    # branch row r = f*M + j: t_j + f*N becomes t_j + r*L*N, and slot l
    # scatters into the flat output from l*N on
    index += ((np.arange(fsz * msz) * lsz - np.arange(fsz).repeat(msz)) * n)[:, None]
    flat = out.reshape(-1)
    for slot in range(lsz):
        flat[slot * n:][index] = x[:, slot]
    csz = msz * lsz
    branch = np.broadcast_to(np.arange(msz).repeat(lsz), (fsz, csz))
    return (out.reshape(fsz, csz, n), branch, iters.reshape(fsz, csz),
            valid.reshape(fsz, csz))


def _eval_chunk(spec: CodeSpec, decoder, ch: ChannelConfig, lo: int, hi: int,
                all_zero: bool, tables: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Transmit and decode frames lo..hi-1; returns per-frame block-error
    flags, bit-error counts, summed branch iterations and branch-run counts.

    A fixed ensemble comes with its compiled `tables`, which run_mc draws
    once per run; a resampled one is drawn here, each frame from its own
    stream, as arrays in one sampler call, and compiled in one call.
    Results for a frame depend only on (spec, decoder, ch, frame index)."""
    msgs, x_true, y, llr = build_frames(spec, ch, lo, hi, all_zero)
    fsz = hi - lo
    constituent = decoder  # a plain decoder is an ensemble of one, with no table
    if isinstance(decoder, EnsembleConfig):
        constituent = decoder.constituent
        if decoder.resample_per_frame:
            # one sampler call and one compile for every frame of the chunk
            states = [_pcg64_state(*w)
                      for w in _stream_words(decoder.seed, lo, hi)[:, 0].tolist()]
            tables = compile_tables(decoder.sample_automorphisms(spec.m, states))
            tables = tables.reshape(fsz, decoder.size, spec.n)
    cands, _, iters, valid = decode_branches(spec, llr, tables, constituent,
                                             dtype=_MC_DTYPE)
    # the one winner rule: a frame's best-correlation candidate
    if cands.shape[1] == 1:
        x_hat = cands[:, 0]
    else:
        x_hat = cands[np.arange(fsz), select_winners(cands, valid, y)[0]]
    # every candidate is one constituent run (1 iteration for SC/SCL)
    iters_sum = iters.sum(axis=1).astype(np.float64)
    runs = np.full(fsz, iters.shape[1], dtype=np.int64)

    blk = np.any(x_hat != x_true, axis=1)
    # a frame whose codeword is right has its message right, so only the
    # block-error frames are transformed back to their messages (the
    # transform costs about 20 us even on no rows)
    bits = np.zeros(fsz, np.int64)
    if blk.any():
        u_hat = polar_transform(x_hat[blk])
        bits[blk] = np.count_nonzero(u_hat[:, spec.info_indices] != msgs[blk], axis=1)
    return blk, bits, iters_sum, runs


def run_mc(spec: CodeSpec, decoder, ch: ChannelConfig, frames: int | None = None,
           target_errors: int | None = 100, all_zero: bool = False,
           workers: int = 1) -> SimRecord:
    """Monte-Carlo block/bit error rates for one decoder at one SNR point.

    Stops at the frame budget (MAX_FRAMES when `frames` is None) or as soon
    as the cumulative block-error count (scanned in frame order) reaches
    target_errors, whichever comes first; the record's stopped_by says
    which.  The stopping frame is a pure function of the configuration, so
    records are reproducible and independent of `workers`, the number of
    worker processes, which is capped at the CPU and chunk counts.
    """
    if target_errors is not None and target_errors < 0:
        raise ValueError(f"target_errors must be >= 0, got {target_errors}")
    if frames is None and not target_errors:
        raise ValueError("need a frame budget or a block-error target")
    if frames is not None and frames < 1:
        raise ValueError("frame budget must be >= 1")
    if spec.k == 0:
        raise ValueError("cannot simulate a dimension-0 code")
    if not isinstance(decoder, (DecoderConfig, EnsembleConfig)):
        raise TypeError(f"decoder must be Sc, Scl, Bp or EnsembleConfig, got {decoder!r}")
    budget = frames if frames is not None else MAX_FRAMES
    target = target_errors if target_errors else None
    t0 = time.perf_counter()
    step = BATCH_FRAMES  # frames per chunk
    tables = None
    if isinstance(decoder, EnsembleConfig):
        decoder.check_drawable(spec.m)  # a resampled one draws only in the chunks
        # int(): an np.integer size would make the frame indices np.integer
        step = min(BATCH_FRAMES, max(1, CHUNK_ROWS // int(decoder.size)))
        if not decoder.resample_per_frame:
            # a fixed ensemble is drawn and compiled once, for every chunk
            tables = compile_tables(decoder.sample_automorphisms(spec.m))
    workers = min(workers, os.cpu_count() or 1, -(-budget // step))

    tot = {"frames": 0, "blk": 0, "bits": 0, "iters": 0.0, "runs": 0,
           "stopped_by": "frames" if frames is not None else "cap"}

    def consume(res) -> bool:
        blk, bits, iters, runs = res
        stop = False
        if target is not None:
            cum = tot["blk"] + np.cumsum(blk)
            hit = np.flatnonzero(cum >= target)
            if hit.size:
                end = int(hit[0]) + 1
                blk, bits, iters, runs = blk[:end], bits[:end], iters[:end], runs[:end]
                stop = True
                tot["stopped_by"] = "target"
        tot["frames"] += blk.size
        tot["blk"] += int(np.count_nonzero(blk))
        tot["bits"] += int(bits.sum())
        tot["iters"] += float(iters.sum())
        tot["runs"] += int(runs.sum())
        return stop

    if workers <= 1:
        lo = 0
        while lo < budget:
            hi = min(lo + step, budget)
            if consume(_eval_chunk(spec, decoder, ch, lo, hi, all_zero, tables)):
                break
            lo = hi
    else:
        # imported only here: the pool's modules (multiprocessing, socket,
        # subprocess) would add about 20 ms to every import of the package
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = {}
            next_submit = 0
            next_take = 0
            stopped = False
            while next_take < budget and not stopped:
                while next_submit < budget and len(pending) < workers + 2:
                    hi = min(next_submit + step, budget)
                    pending[next_submit] = pool.submit(
                        _eval_chunk, spec, decoder, ch, next_submit, hi, all_zero,
                        tables)
                    next_submit = hi
                stopped = consume(pending.pop(next_take).result())
                next_take = min(next_take + step, budget)
            for fut in pending.values():
                fut.cancel()

    return SimRecord(frames=tot["frames"], block_errors=tot["blk"],
                     bit_errors=tot["bits"], info_bits=spec.k,
                     avg_iterations=tot["iters"] / max(tot["runs"], 1),
                     wall_seconds=time.perf_counter() - t0,
                     stopped_by=tot["stopped_by"])


# ---------------------------------------------------------------------------
# result rows

CSV_HEADER = "code,decoder,subgroup,M,L,ebn0_db,frames,block_errors,bler,ber,avg_iters,seconds"


def format_csv_row(spec: CodeSpec, decoder, ch: ChannelConfig, rec: SimRecord) -> str:
    kind, subgroup, msz, lsz = decoder.descriptor
    label = f'"{spec.label}"' if "," in spec.label else spec.label
    fields = [label, kind, subgroup, str(msz), str(lsz),
              repr(float(ch.ebn0_db)), str(rec.frames), str(rec.block_errors),
              repr(rec.bler), repr(rec.ber), repr(rec.avg_iterations),
              f"{rec.wall_seconds:.3f}"]
    return ",".join(fields)
