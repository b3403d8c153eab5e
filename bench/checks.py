"""Correctness pass of the benchmark.

The checkers compare the library's outputs with computations of the
benchmark's own (a parity-check matrix of the dual code, affine index maps
in plain Python) or with properties the method must have (LTA absorption,
published error rates).
They run outside the timed rounds, on frames the benchmark draws itself.

An operation is one checked frame or table here, or one timed round in
run.py; it fails when it breaks a check or raises.  Block errors are
channel outcomes, not failures.  The self-test feeds every checker a
corrupted input; a checker that accepts one makes the run incorrect.
"""

from __future__ import annotations

import math
import traceback
from itertools import combinations

import numpy as np

from workloads import CODE

BLER_TOLERANCE = 0.15  # relative tolerance of the published references
BLER_SIGMAS = 4.0      # binomial slack, in standard deviations
TABLE_FRAMES = 8       # frames whose tables are recomputed in plain Python
LTA_SIZE = 8           # Aut-LTA-SC ensemble size of the absorption check


# ---------------------------------------------------------------------------
# independent reference computations

def rm_parity_check(r: int, m: int) -> np.ndarray:
    """Parity-check matrix of RM(r, m): the generator of the dual code
    RM(m - r - 1, m), i.e. every monomial of degree <= m - r - 1 evaluated
    at the points binary(i), i = 0 .. 2**m - 1."""
    idx = np.arange(1 << m)
    rows = []
    for deg in range(m - r):
        for var in combinations(range(m), deg):
            mask = sum(1 << j for j in var)
            rows.append((idx & mask) == mask)
    return np.array(rows, dtype=np.int64)


def is_codeword(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-row syndrome test on the last axis."""
    return ~np.any((np.asarray(x, dtype=np.int64) @ h.T) & 1, axis=-1)


def affine_table(rows, b: int, m: int) -> list[int]:
    """binary(pi(i)) = A binary(i) + b with bit k of rows[j] = A[j, k]."""
    out = []
    for i in range(1 << m):
        z = b
        for j in range(m):
            if bin(rows[j] & i).count("1") & 1:
                z ^= 1 << j
        out.append(z)
    return out


def table_matches(table, aut) -> bool:
    return list(table) == affine_table(aut.rows, aut.b, aut.m)


def is_bijection(table) -> bool:
    return sorted(table) == list(range(len(table)))


def pairwise_distinct(tables: np.ndarray) -> bool:
    return len({t.tobytes() for t in np.asarray(tables)}) == len(tables)


def bler_bound(reference: float, frames: int) -> float:
    """Largest |BLER - reference| accepted for `frames` frames: the
    criterion's relative tolerance plus BLER_SIGMAS binomial standard
    deviations at the tolerance edge."""
    p = min(1.0, reference * (1.0 + BLER_TOLERANCE))
    return BLER_TOLERANCE * reference + BLER_SIGMAS * math.sqrt(p * (1.0 - p) / frames)


def bler_ok(block_errors: int, frames: int, reference: float) -> bool:
    return abs(block_errors / frames - reference) <= bler_bound(reference, frames)


# ---------------------------------------------------------------------------
# bookkeeping

class Tally:
    """Operations attempted and failed, with a short log of failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, what: str, ok) -> None:
        ok = np.atleast_1d(np.asarray(ok, dtype=bool))
        self.attempted += ok.size
        bad = int(ok.size - np.count_nonzero(ok))
        self.failed += bad
        if bad:
            self.notes.append(f"{what}: {bad}/{ok.size} failed")

    def guarded(self, what: str, planned: int, fn) -> None:
        """Run fn(), which attempts `planned` operations; if it raises,
        all of them count as failed."""
        attempted, failed = self.attempted, self.failed
        try:
            fn()
        except Exception:  # any exception is a failed operation
            self.attempted = attempted + planned
            self.failed = failed + planned
            self.notes.append(f"{what}: raised\n{traceback.format_exc()}")


def channel_frames(ae, spec, ebn0_db: float, count: int, rng):
    """(codewords, received y, channel LLRs) of `count` random frames."""
    sigma = 1.0 / math.sqrt(2.0 * spec.rate * 10.0 ** (ebn0_db / 10.0))
    u = rng.integers(0, 2, (count, spec.k), dtype=np.uint8)
    x = ae.encode(spec, u)
    y = (1.0 - 2.0 * x) + rng.normal(0.0, sigma, x.shape)
    return x, y, ae.saturate(2.0 * y / sigma ** 2)


def winners(x_cand: np.ndarray, y: np.ndarray, valid=None) -> np.ndarray:
    """Best-correlation candidate per frame from (F, C, N) candidates."""
    scores = np.einsum("fcn,fn->fc", 1.0 - 2.0 * x_cand, y)
    if valid is not None:
        scores[~valid] = -np.inf
    return x_cand[np.arange(len(y)), np.argmax(scores, axis=1)]


# ---------------------------------------------------------------------------
# per-workload passes

def check_sc(ae, spec, h, wl, dec, rng, tally: Tally) -> None:
    """SC outputs are codewords; Aut-LTA-SC makes the same block errors as
    plain SC on the same noise (LTA absorption)."""
    x, y, llr = channel_frames(ae, spec, wl.ebn0_db, wl.check_frames, rng)
    _, x_sc = ae.sc_decode_batch(spec, llr)
    tally.add("sc output is a codeword", is_codeword(h, x_sc))

    cfg = ae.EnsembleConfig(LTA_SIZE, "lta", ae.Sc())
    tables = np.stack([ae.compile_tables(cfg.sample_automorphisms(spec.m, rng))
                       for _ in range(len(llr))])
    x_de, _, _, _ = ae.decode_branches(spec, llr, tables, cfg.constituent)
    x_lta = winners(x_de, y)
    tally.add("aut-lta-sc block error equals sc block error",
              np.any(x_lta != x, axis=1) == np.any(x_sc != x, axis=1))


def check_aut(ae, spec, h, wl, dec, rng, tally: Tally) -> None:
    """Compiled tables equal the affine map, are bijections and pairwise
    distinct per frame; every candidate and winner is a codeword."""
    auts = [dec.sample_automorphisms(spec.m, rng) for _ in range(wl.check_frames)]
    tables = np.stack([ae.compile_tables(a) for a in auts])
    for f in range(TABLE_FRAMES):
        tally.add("table equals A binary(i) + b",
                  [table_matches(t.tolist(), a) for t, a in zip(tables[f], auts[f])])
    tally.add("tables are bijections",
              [all(is_bijection(t.tolist()) for t in frame) for frame in tables])
    tally.add("tables of a frame are pairwise distinct",
              [pairwise_distinct(frame) for frame in tables])

    _, y, llr = channel_frames(ae, spec, wl.ebn0_db, wl.check_frames, rng)
    x_de, _, _, valid = ae.decode_branches(spec, llr, tables, dec.constituent)
    win = winners(x_de, y, valid)
    tally.add("ensemble candidates and winner are codewords",
              np.all(is_codeword(h, x_de), axis=1) & is_codeword(h, win))


def check_scl(ae, spec, h, wl, dec, rng, tally: Tally) -> None:
    """Every filled list entry, and the entry run_mc takes, is a codeword."""
    _, _, llr = channel_frames(ae, spec, wl.ebn0_db, wl.check_frames, rng)
    _, x3, pm = ae.scl_decode_batch(spec, llr, dec.list_size)
    filled = np.isfinite(pm)
    ok = np.all(is_codeword(h, x3) | ~filled, axis=1) & filled[:, 0]
    tally.add("scl list entries are codewords", ok)


# decoder -> (pass, operations it attempts for n check frames)
PASSES = {
    "sc": (check_sc, lambda n, dec: 2 * n),
    "aut32ga-sc": (check_aut, lambda n, dec: dec.size * TABLE_FRAMES + 3 * n),
    "scl32": (check_scl, lambda n, dec: n),
}


def correctness_pass(ae, spec, wl, dec, seed: int, tally: Tally) -> None:
    check, planned = PASSES[wl.decoder]
    h = rm_parity_check(CODE[0], spec.m)
    rng = np.random.default_rng([seed, 7919])
    tally.guarded(f"{wl.name} correctness pass", planned(wl.check_frames, dec),
                  lambda: check(ae, spec, h, wl, dec, rng, tally))


# ---------------------------------------------------------------------------
# self-test: each checker rejects a corrupted input

def self_test(ae, spec) -> list[str]:
    """Names of checkers that accepted a corrupted input or rejected a
    clean one (empty when all behave)."""
    bad = []
    h = rm_parity_check(CODE[0], spec.m)
    rng = np.random.default_rng(1)

    x = ae.encode(spec, rng.integers(0, 2, spec.k, dtype=np.uint8))
    flipped = x.copy()
    flipped[17] ^= 1
    if not is_codeword(h, x) or is_codeword(h, flipped):
        bad.append("parity check")

    aut = ae.sample(spec.m, "ga", rng)
    table = ae.compile_tables([aut])[0].tolist()
    swapped = list(table)
    swapped[3], swapped[200] = swapped[200], swapped[3]
    if not table_matches(table, aut) or table_matches(swapped, aut):
        bad.append("affine table")
    dup = list(table)
    dup[5] = dup[6]
    if not is_bijection(table) or is_bijection(dup):
        bad.append("bijection")
    other = ae.compile_tables([ae.sample(spec.m, "ga", rng)])[0]
    if (not pairwise_distinct(np.stack([table, other]))
            or pairwise_distinct(np.stack([table, table]))):
        bad.append("pairwise distinct")

    if not bler_ok(372, 1000, 3.725e-1) or bler_ok(2 * 372, 1000, 3.725e-1):
        bad.append("bler bound")
    return bad
