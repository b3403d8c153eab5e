"""BPSK/AWGN channel, Monte-Carlo error-rate harness and brute-force ML
oracle.

Every frame draws its message and noise from streams derived from
(channel seed, frame index), so runs are reproducible bit-for-bit, results
never depend on batching or worker count, and different decoder
configurations under the same channel seed see identical noise (paired
comparisons).  Monte-Carlo BP decoding runs with float32 messages for
throughput; the decoder APIs themselves default to float64.
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
from .ensemble import EnsembleConfig, decode_branches, select_winners

BATCH_FRAMES = 256  # fixed evaluation granularity; results are independent of it
# Frame budget of a run given only an error target: 100 errors at BLER 1e-4.
# A point that does not reach its target by then stops there, and its record
# says so (SimRecord.stopped_by == "cap"); pass a frame budget to go further.
MAX_FRAMES = 1_000_000
_BP_MC_DTYPE = np.float32


@dataclass(frozen=True)
class ChannelConfig:
    """BI-AWGN channel at Eb/N0 `ebn0_db` for a code of rate `rate`."""

    ebn0_db: float
    rate: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} outside (0, 1]")

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
    the frame's automorphisms."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(frame,))


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
    for t in range(fsz):
        msg_ss, noise_ss = _frame_stream(ch.seed, lo + t).spawn(2)
        if not all_zero:
            msgs[t] = np.random.default_rng(msg_ss).integers(0, 2, k, dtype=np.uint8)
        noise[t] = np.random.default_rng(noise_ss).normal(0.0, sigma, n)
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
            tables = compile_tables([
                aut for t in range(fsz)
                for aut in decoder.sample_automorphisms(
                    spec.m, np.random.default_rng(_frame_stream(decoder.seed, lo + t)))
            ]).reshape(fsz, decoder.size, n)
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
