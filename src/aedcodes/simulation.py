"""BPSK/AWGN channel, Monte-Carlo error-rate harness and brute-force ML
oracle, with the package's one decoder dispatch, _decode_rows, through
which plain chunks and ensemble branches (decode_branches) run.

Every frame draws its message and noise from streams derived from
(channel seed, frame index), so runs are reproducible bit-for-bit, results
never depend on batching or worker count, and different decoder
configurations under the same channel seed see identical noise (paired
comparisons).  Frame f's root stream is
`np.random.SeedSequence(seed, spawn_key=(f,))` (_frame_stream); its first
two spawned children seed `default_rng` for the message and the noise, and
a resampled ensemble draws frame f's automorphisms from the root stream
under its own seed.  _stream_states computes the PCG64 states of a whole
chunk of such streams at once, reproducing numpy's hashing and seeding bit
for bit; a stream is read by loading its state into a reused generator
(sample_ensemble takes a chunk's automorphism states as a list).  Message
bits are read from raw PCG64 words, bit-identical to
`Generator.integers(0, 2, k, dtype=uint8)` (see _eval_chunk);
_frame_stream and Generator.integers remain the definition and the test
oracle.
Monte-Carlo SC and BP decoding run in float32 for throughput (_MC_DTYPE);
SCL runs in float64, and the decoder APIs themselves default to float64.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .automorphisms import compile_tables
from .codes import (CODEBOOK_K_MAX, CapacityError, CodeSpec, _codebook_chunks,
                    encode, polar_transform)
from .decoders import (CHUNK_ROWS, L_MAX, Bp, Sc, Scl, bp_decode_batch,
                       saturate, sc_decode_batch, scl_decode_batch)
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


def transmit(spec: CodeSpec, u, ch: ChannelConfig, rng: np.random.Generator
             ) -> tuple[np.ndarray, np.ndarray]:
    """Encode, BPSK-map (bit 0 -> +1) and add white Gaussian noise.

    Returns the received vector y and the channel LLRs 2 y / sigma^2,
    saturated to +-L_MAX.
    """
    u = np.asarray(u, dtype=np.uint8)
    if u.shape != (spec.k,):
        raise ValueError(f"message length {u.shape} != k={spec.k}")
    x = encode(spec, u)
    y = (1.0 - 2.0 * x) + rng.normal(0.0, ch.sigma, spec.n)
    return y, saturate(2.0 * y / ch.sigma ** 2)


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
    _stream_states computes the same generator states in bulk."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(frame,))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and PCG64's
# LCG multiplier, which _stream_states reproduces
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


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """Pool and entropy hash constant of SeedSequence(seed, spawn_key=...)
    once the seed's words are mixed in; numpy pads them with zeros to the
    pool size because a spawn key follows."""
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
    return pool, hc


def _pcg64_state(s0: int, s1: int, i0: int, i1: int) -> dict:
    """`bit_generator.state` of a PCG64 seeded with the four words of
    generate_state(4, uint64): inc = 2 (i0, i1) + 1, then from state 0 one
    LCG step, add (s0, s1) and take another step."""
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _stream_states(seed: int, lo: int, hi: int, children: int = 0):
    """PCG64 states, as default_rng seeds them, of the streams of frames
    lo..hi-1 under `seed`.  Yields one tuple per frame f: with children == 0
    the state of the root stream _frame_stream(seed, f), else those of the
    first `children` streams that _frame_stream(seed, f).spawn() gives.

    The stream of child c is SeedSequence(seed, spawn_key=(f, c)): its
    entropy is the seed's words, zero-padded to the pool size, then f's
    words, then c.  The seed's part of the pool is mixed once, in Python
    ints; the frame and child words are mixed as uint32 arrays over the
    whole chunk, split where f's word count changes (at 2**32; frame
    indices stay below 2**64)."""
    check_seed(seed)
    pool0, hc0 = _seed_pool(int(seed))
    while lo < hi:
        nwords = len(_words(lo))
        end = min(hi, 1 << 32 * nwords)
        frames = np.arange(lo, end, dtype=np.uint64)
        # pool (4, kinds, frames): frame words along the last axis, child
        # words along the middle one
        words = [(frames >> 32 * i & _M32).astype(np.uint32) for i in range(nwords)]
        if children:
            words.append(np.arange(children, dtype=np.uint32)[:, None])
        pool, hc = np.array(pool0, dtype=np.uint32)[:, None, None], hc0
        for w in words:  # pool word j is mixed with w hashed under constant j
            ha = _hash_consts(hc, _MULT_A, _POOL_SIZE)
            pool, hc = _mix(pool, _hashmix(w, ha[:-1], ha[1:])), int(ha[-1, 0, 0])
        # generate_state(4, uint64): 8 words, cycling through the pool
        state = _hashmix(np.concatenate([pool, pool]), _OUT_CONSTS[:-1], _OUT_CONSTS[1:])
        state = state.astype(np.uint64)
        state = (state[0::2] | state[1::2] << 32).transpose(2, 1, 0)
        for frame in state:  # (kinds, 4) words
            yield tuple(_pcg64_state(*kind) for kind in frame.tolist())
        lo = end


def _decode_rows(spec: CodeSpec, llrs: np.ndarray, config: DecoderConfig,
                 dtype=np.float64) -> tuple[np.ndarray, ...]:
    """The package's one Sc/Scl/Bp dispatch: decode (R, N) LLR rows with a
    plain config, SC and BP in dtype and SCL in float64; any other config
    is a TypeError.  Returns u and x (R, L, N), iteration counts (1 but for
    BP) and validity (R, L), where L is 1 but for SCL: its slots in metric
    order, unused ones invalid."""
    if isinstance(config, Scl):
        u, x, pm = scl_decode_batch(spec, llrs, config.list_size)
        return u, x, np.ones(pm.shape, np.int64), np.isfinite(pm)
    if isinstance(config, Sc):
        (u, x), iters = sc_decode_batch(spec, llrs, dtype), np.ones(len(llrs), np.int64)
    elif isinstance(config, Bp):
        u, x, iters, _ = bp_decode_batch(spec, llrs, config.max_iters,
                                         config.stopping, dtype=dtype)
    else:
        raise TypeError(f"unsupported decoder {config!r}")
    return u[:, None], x[:, None], iters[:, None], np.ones((len(llrs), 1), bool)


def decode_branches(spec: CodeSpec, llrs: np.ndarray, tables: np.ndarray,
                    constituent: DecoderConfig, dtype=np.float64
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run every ensemble branch of a batch of frames, SC and BP in dtype
    and SCL in float64 (see _decode_rows).

    llrs is (F, N).  tables holds compiled index tables t, either (M, N)
    shared by all frames or (F, M, N) per frame.  Branch j interleaves by
    gathering, llr[t_j], and de-interleaves its estimates by scattering
    through the same table, out[t_j[i]] = x[i]; no inverse table is built.
    Returns candidates (F, C, N), de-interleaved, and their branch indices,
    iteration counts and validity (see _decode_rows), each (F, C).  C = M*L,
    ordered by branch, then list slot: candidate c came from branch c // L.

    One flat index, t_j + f*N for frame f's branch j, gathers all R = F*M
    branch rows and, moved to candidate row (f*M + j)*L + l, scatters their
    estimates.  SC and BP get the rows batch-last, as the transpose of one
    C-contiguous (N, R) array in dtype, which SC reads as its channel stage
    in place and BP copies contiguously; SCL gets them batch-first.  The
    tables must be compiled permutations (compile_tables): an entry outside
    0..N-1 is not caught and would read another frame's LLRs.
    """
    fsz, n = llrs.shape
    msz = tables.shape[-2]
    index = (tables + np.arange(0, fsz * n, n)[:, None, None]).reshape(fsz * msz, n)
    if isinstance(constituent, Scl):
        rows = llrs.reshape(-1)[index]
    else:  # a gather and then a transposing copy beat any transposed index
        rows = np.ascontiguousarray(np.asarray(llrs, dtype).reshape(-1)[index].T).T
    u, x, iters, valid = _decode_rows(spec, rows, constituent, dtype)
    if isinstance(constituent, Bp):
        # candidates must be codewords for the correlation selection to be
        # meaningful: re-encode the message estimate (equal to the codeword
        # hard decision whenever the branch converged)
        x = polar_transform(u)
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
    fsz = hi - lo
    n, k = spec.n, spec.k
    sigma = ch.sigma
    # integers(0, 2, k, dtype=uint8) returns the top bit of byte j of the
    # little-endian stream of raw 64-bit words as message bit j (numpy's
    # bounded uint8 method never rejects for a range of 2), so a message
    # takes ceil(k / 8) raw words
    raw = np.zeros((fsz, -(-k // 8)), dtype="<u8")
    noise = np.empty((fsz, n))
    rng = np.random.Generator(np.random.PCG64(0))  # reseeded for every stream
    bitgen = rng.bit_generator
    for t, (msg_state, noise_state) in enumerate(
            _stream_states(ch.seed, lo, hi, children=2)):
        if not all_zero:
            bitgen.state = msg_state
            raw[t] = bitgen.random_raw(raw.shape[1])
        bitgen.state = noise_state
        noise[t] = rng.normal(0.0, sigma, n)
    msgs = raw.view(np.uint8)[:, :k] >> 7
    x_true = encode(spec, msgs)
    # y = (1 - 2x) + noise and llr = saturate(2y / sigma^2), in place and
    # rounded in the same order (-2x + 1 is exactly 1 - 2x); y takes over
    # the noise buffer
    llr = np.multiply(x_true, -2.0, out=np.empty((fsz, n)))
    llr += 1.0
    y = np.add(llr, noise, out=noise)
    np.multiply(y, 2.0, out=llr)
    llr /= sigma ** 2
    np.clip(llr, -L_MAX, L_MAX, out=llr)

    if isinstance(decoder, EnsembleConfig):
        if decoder.resample_per_frame:
            # one sampler call and one compile for every frame of the chunk
            states = [state for (state,) in _stream_states(decoder.seed, lo, hi)]
            tables = compile_tables(decoder.sample_automorphisms(spec.m, states))
            tables = tables.reshape(fsz, decoder.size, n)
        x_de, _, iters, valid = decode_branches(spec, llr, tables,
                                                decoder.constituent,
                                                dtype=_MC_DTYPE)
        x_hat = x_de[np.arange(fsz), select_winners(x_de, valid, y)[0]]
        u_hat = polar_transform(x_hat)
    else:  # SCL's slot 0 is its best metric; BP keeps its own hard decision
        u, x, iters, _ = _decode_rows(spec, llr, decoder, dtype=_MC_DTYPE)
        u_hat, x_hat, iters = u[:, 0], x[:, 0], iters[:, :1]
    # every candidate is one constituent run (1 iteration for SC/SCL)
    iters_sum = iters.sum(axis=1).astype(np.float64)
    runs = np.full(fsz, iters.shape[1], dtype=np.int64)

    blk = np.any(x_hat != x_true, axis=1)
    bits = np.count_nonzero(u_hat[:, spec.info_indices] != msgs, axis=1)
    return blk, bits.astype(np.int64), iters_sum, runs


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
