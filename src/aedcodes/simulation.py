"""BPSK/AWGN channel, Monte-Carlo error-rate harness and brute-force ML
oracle.

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
for bit, and the frame's draws run on one reseeded generator.
Monte-Carlo BP decoding runs with float32 messages for throughput; the
decoder APIs themselves default to float64.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .automorphisms import compile_tables
from .codes import (CODEBOOK_K_MAX, CapacityError, CodeSpec, _codebook_chunks,
                    encode, polar_transform)
from .decoders import (Bp, L_MAX, Sc, Scl, bp_decode_batch, saturate,
                       sc_decode_batch, scl_decode_batch)
from .ensemble import (EnsembleConfig, check_seed, decode_branches,
                       select_winners)

BATCH_FRAMES = 256  # fixed evaluation granularity; results are independent of it
# Frame budget of a run given only an error target: 100 errors at BLER 1e-4.
# A point that does not reach its target by then stops there, and its record
# says so (SimRecord.stopped_by == "cap"); pass a frame budget to go further.
MAX_FRAMES = 1_000_000
_BP_MC_DTYPE = np.float32


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


def _eval_chunk(spec: CodeSpec, decoder, ch: ChannelConfig, lo: int, hi: int,
                all_zero: bool, tables: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Transmit and decode frames lo..hi-1; returns per-frame block-error
    flags, bit-error counts, summed branch iterations and branch-run counts.

    A fixed ensemble comes with its compiled `tables`, which run_mc draws
    once per run; a resampled one is drawn here, frame by frame.  Results
    for a frame depend only on (spec, decoder, ch, frame index)."""
    fsz = hi - lo
    n, k = spec.n, spec.k
    sigma = ch.sigma
    msgs = np.zeros((fsz, k), dtype=np.uint8)
    noise = np.empty((fsz, n))
    rng = np.random.Generator(np.random.PCG64(0))  # reseeded for every stream
    for t, (msg_state, noise_state) in enumerate(
            _stream_states(ch.seed, lo, hi, children=2)):
        if not all_zero:
            rng.bit_generator.state = msg_state
            msgs[t] = rng.integers(0, 2, k, dtype=np.uint8)
        rng.bit_generator.state = noise_state
        noise[t] = rng.normal(0.0, sigma, n)
    x_true = encode(spec, msgs)
    y = (1.0 - 2.0 * x_true) + noise
    llr = saturate(2.0 * y / sigma ** 2)

    iters_sum = np.ones(fsz)
    runs = np.ones(fsz, dtype=np.int64)
    if isinstance(decoder, Sc):
        u_hat, x_hat = sc_decode_batch(spec, llr)
    elif isinstance(decoder, Scl):
        u3, x3, _ = scl_decode_batch(spec, llr, decoder.list_size)
        u_hat, x_hat = u3[:, 0], x3[:, 0]
    elif isinstance(decoder, Bp):
        u_hat, x_hat, iters, _ = bp_decode_batch(
            spec, llr, decoder.max_iters, decoder.stopping, decoder.reduce_graph,
            dtype=_BP_MC_DTYPE)
        iters_sum = iters.astype(np.float64)
    else:  # EnsembleConfig
        if decoder.resample_per_frame:
            # one compile for the automorphisms of every frame of the chunk
            auts = []
            for (state,) in _stream_states(decoder.seed, lo, hi):
                rng.bit_generator.state = state
                auts += decoder.sample_automorphisms(spec.m, rng)
            tables = compile_tables(auts).reshape(fsz, decoder.size, n)
        x_de, _, iters, valid = decode_branches(spec, llr, tables,
                                                decoder.constituent,
                                                bp_dtype=_BP_MC_DTYPE)
        x_hat = x_de[np.arange(fsz), select_winners(x_de, valid, y)[0]]
        u_hat = polar_transform(x_hat)
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
    records are reproducible and independent of `workers`.
    """
    if target_errors is not None and target_errors < 0:
        raise ValueError(f"target_errors must be >= 0, got {target_errors}")
    if frames is None and not target_errors:
        raise ValueError("need a frame budget or a block-error target")
    if frames is not None and frames < 1:
        raise ValueError("frame budget must be >= 1")
    if spec.k == 0:
        raise ValueError("cannot simulate a dimension-0 code")
    budget = frames if frames is not None else MAX_FRAMES
    target = target_errors if target_errors else None
    t0 = time.perf_counter()
    tables = None
    if isinstance(decoder, EnsembleConfig) and not decoder.resample_per_frame:
        # a fixed ensemble is drawn and compiled once, for every chunk
        tables = compile_tables(decoder.sample_automorphisms(spec.m))

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
            hi = min(lo + BATCH_FRAMES, budget)
            if consume(_eval_chunk(spec, decoder, ch, lo, hi, all_zero, tables)):
                break
            lo = hi
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = {}
            next_submit = 0
            next_take = 0
            stopped = False
            while next_take < budget and not stopped:
                while next_submit < budget and len(pending) < workers + 2:
                    hi = min(next_submit + BATCH_FRAMES, budget)
                    pending[next_submit] = pool.submit(
                        _eval_chunk, spec, decoder, ch, next_submit, hi, all_zero,
                        tables)
                    next_submit = hi
                stopped = consume(pending.pop(next_take).result())
                next_take = min(next_take + BATCH_FRAMES, budget)
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
