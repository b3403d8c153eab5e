"""SC, SCL and BP decoding of monomial codes on the m-stage butterfly graph.

All three decoders share the same LLR kernel primitives and the same graph
layout: stage ``s`` pairs indices ``i`` and ``i + 2**s`` inside blocks of
``2**(s+1)``, so a length-N vector reshaped to ``(-1, 2, 2**s)`` exposes the
upper/lower ports of every processing element as contiguous views.

SC decodes a node of the decoding tree directly when the frozen pattern
allows: a rate-0 node (all leaves frozen) gives x = 0, a rate-1 node (no
leaf frozen) gives the hard decision x = (L < 0), and a repetition node
(only its last leaf unfrozen) folds its LLRs by halving sums and repeats
the sign of the result.  Only mixed nodes are split into f- and g-updates.
This equals leaf-order SC except on LLR ties inside rate-1 nodes (see
sc_decode_batch).  SCL keeps the leaf-order schedule, because its path
metric needs every leaf LLR, frozen or not.

Decoders are deterministic pure functions; batched kernels process rows
independently, so per-row results never depend on how calls are batched.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from .codes import CodeSpec, polar_transform

L_MAX = 40.0  # saturation magnitude standing in for certain (infinite) LLRs
_BP_ROW_SLAB = 2048  # cache-friendly upper bound on rows per BP workspace


# ---------------------------------------------------------------------------
# decoder configurations (used by the ensemble and simulation layers)

class _PlainConfig:
    """Members the plain decoder configurations share with EnsembleConfig.

    descriptor is the (kind, subgroup, M, L) of a result row: plain decoders
    carry subgroup "-" and M = 0, and L is the list size (1 for SC, 0 for
    BP).  to_dict(m) is the manifest form that decoder_from_dict rebuilds;
    m, the code's log-length, matters only to fixed ensembles.
    """

    def to_dict(self, m: int) -> dict:
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class Sc(_PlainConfig):
    """Plain successive cancellation."""

    kind = "sc"
    descriptor = (kind, "-", 0, 1)


@dataclass(frozen=True)
class Scl(_PlainConfig):
    """Successive cancellation list decoding with `list_size` paths."""

    list_size: int = 8
    kind = "scl"

    def __post_init__(self):
        if self.list_size < 1:
            raise ValueError("list_size must be >= 1")

    @property
    def descriptor(self) -> tuple[str, str, int, int]:
        return self.kind, "-", 0, self.list_size


@dataclass(frozen=True)
class Bp(_PlainConfig):
    """Iterative decoding with an optional generator-matrix stopping test."""

    max_iters: int = 200
    stopping: bool = True
    reduce_graph: bool = False
    kind = "bp"
    descriptor = (kind, "-", 0, 0)

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class DecodeOutput:
    """Message and codeword estimates of one decode.

    u_hat is the full-length message with frozen positions zeroed; restrict
    it to spec.info_indices for the k information bits.  iterations_used is
    1 for SC/SCL.  metric is the path metric for SCL candidates.
    """

    u_hat: np.ndarray
    x_hat: np.ndarray
    iterations_used: int = 1
    converged: bool = True
    metric: float | None = None


# ---------------------------------------------------------------------------
# LLR kernels

def boxplus(a, b):
    """Check-node combining rule log((e^(a+b)+1) / (e^a+e^b)).

    Stable form: sign(a)sign(b)min(|a|,|b|) + log1p(e^-|a+b|) - log1p(e^-|a-b|),
    with the first term computed as (|a+b| - |a-b|)/2.  Exactly symmetric and
    exactly odd under sign flips of either argument, which the permutation
    commutation checks rely on.
    """
    arr_a = np.asarray(a, dtype=np.float64)
    arr_b = np.asarray(b, dtype=np.float64)
    scalar = arr_a.ndim == 0 and arr_b.ndim == 0
    arr_a = np.atleast_1d(arr_a)
    arr_b = np.atleast_1d(arr_b)
    out = np.empty(np.broadcast(arr_a, arr_b).shape)
    _boxplus_into(arr_a, arr_b, out)
    return float(out[0]) if scalar else out


def _boxplus_into(a, b, out):
    s = a + b
    d = a - b
    np.abs(s, out=s)
    np.abs(d, out=d)
    np.subtract(s, d, out=out)
    out *= 0.5
    np.negative(s, out=s)
    np.exp(s, out=s)
    np.log1p(s, out=s)
    np.negative(d, out=d)
    np.exp(d, out=d)
    np.log1p(d, out=d)
    # single rounded subtraction keeps the kernel exactly odd: flipping the
    # sign of either input negates s/d roles, and both the min term and this
    # correction difference negate without extra rounding
    s -= d
    out += s
    return out


def saturate(llr, limit: float = L_MAX) -> np.ndarray:
    return np.clip(llr, -limit, limit)


# ---------------------------------------------------------------------------
# successive cancellation

def _check_llr(spec: CodeSpec, llr) -> np.ndarray:
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (spec.n,):
        raise ValueError(f"LLR length {llr.shape} != N={spec.n}")
    return llr


def sc_decode(spec: CodeSpec, llr) -> DecodeOutput:
    """Depth-first SC decode of one LLR vector."""
    u, x = sc_decode_batch(spec, _check_llr(spec, llr)[None, :])
    return DecodeOutput(u_hat=u[0], x_hat=x[0])


def sc_decode_batch(spec: CodeSpec, llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SC-decode a (B, N) batch of LLR rows; returns (u_hat, x_hat) bits.

    Runs the node schedule of spec's frozen pattern (see _sc_schedule):
    f- and g-updates only inside mixed nodes, and one direct decision per
    rate-0, rate-1 or repetition node.  There is one LLR workspace per
    stage, the codeword is assembled in place, and u_hat is
    polar_transform(x_hat), since G_N is an involution.

    The result equals leaf-order SC except on a tie inside a rate-1 node,
    which takes the hard decision x = (L < 0).  Leaf order differs from it
    only when an LLR inside the node is exactly zero (node LLRs (0.0, -5.0)
    give x = (1, 1) in leaf order and (0, 1) here), or when a boxplus
    loses its sign because its inputs differ in magnitude by a factor of
    about 1e12 or more.
    """
    llrs = np.ascontiguousarray(llrs, dtype=np.float64)
    bsz, n = llrs.shape
    m = spec.m
    llr_ws = [np.empty((bsz, 1 << s)) for s in range(m)] + [llrs]
    x_out = np.zeros((bsz, n), np.uint8)
    for op, s, lo, mid, hi in _sc_schedule(spec.frozen.tobytes()):
        node = llr_ws[s]
        h = mid - lo
        if op == _F:
            _boxplus_into(node[:, :h], node[:, h:], llr_ws[s - 1])
        elif op == _G:
            _g_update(node, x_out[:, lo:mid], llr_ws[s - 1])
        elif op == _COMBINE:
            x_out[:, lo:mid] ^= x_out[:, mid:hi]
        elif op == _RATE1:
            np.less(node, 0.0, out=x_out[:, lo:hi])
        else:  # _REP: the halving sums that g-updates make over zero left bits
            while node.shape[1] > 1:
                h = node.shape[1] >> 1
                node = node[:, :h] + node[:, h:]
            x_out[:, lo:hi] = node < 0.0
    return polar_transform(x_out), x_out


def _g_update(parent, left_bits, out):
    """out = (-1)^left_bits * parent_upper + parent_lower."""
    h = parent.shape[1] // 2
    np.multiply(1.0 - 2.0 * left_bits, parent[:, :h], out=out)
    out += parent[:, h:]


# SC schedule ops, and the two node kinds that are not ops: a rate-0 node
# needs none, as the codeword starts at zero, and a mixed node is split
_F, _G, _COMBINE, _RATE1, _REP = range(5)
_RATE0, _MIXED = -1, -2


@functools.lru_cache(maxsize=64)
def _sc_schedule(frozen: bytes) -> tuple[tuple[int, int, int, int, int], ...]:
    """Node schedule of SC for a frozen pattern, as (op, s, lo, mid, hi).

    The node at stage s covers leaves lo..hi-1, holds its LLRs in workspace
    s and splits at mid.  Only mixed nodes are descended into.  A mixed node
    runs an f-update before a left child that is not rate-0, and a g-update
    before a right child that is not rate-0.  After the right child,
    COMBINE xors the right half of x into the left half.  Keyed by
    frozen.tobytes(), so each pattern's schedule is built on its first
    decode.
    """
    mask = np.frombuffer(frozen, dtype=bool)
    info_before = np.concatenate([[0], np.cumsum(~mask)])
    ops = []

    def kind(lo, hi):
        info = int(info_before[hi] - info_before[lo])
        if info == 0:
            return _RATE0
        if info == hi - lo:
            return _RATE1
        if info == 1 and not mask[hi - 1]:
            return _REP
        return _MIXED

    def visit(s, lo, hi):
        node = kind(lo, hi)
        if node != _MIXED:
            if node != _RATE0:
                ops.append((node, s, lo, lo, hi))
            return
        mid = (lo + hi) >> 1
        if kind(lo, mid) != _RATE0:
            ops.append((_F, s, lo, mid, hi))
            visit(s - 1, lo, mid)
        if kind(mid, hi) != _RATE0:
            ops.append((_G, s, lo, mid, hi))
            visit(s - 1, mid, hi)
            ops.append((_COMBINE, s, lo, mid, hi))

    visit(len(mask).bit_length() - 1, 0, len(mask))
    return tuple(ops)


# ---------------------------------------------------------------------------
# successive cancellation list

def scl_decode(spec: CodeSpec, llr, list_size: int) -> list[DecodeOutput]:
    """SCL decode; returns up to `list_size` candidates sorted by path metric.

    The metric is the exact log-likelihood penalty, accumulated at every
    leaf: pm += log(1 + exp(-(1-2u) * L)).  list_size=1 reproduces
    sc_decode bit-exactly, away from the LLR ties that sc_decode_batch
    describes.
    """
    if list_size < 1:
        raise ValueError("list_size must be >= 1")
    u, x, pm = scl_decode_batch(spec, _check_llr(spec, llr)[None, :], list_size)
    return [DecodeOutput(u_hat=u[0, j], x_hat=x[0, j], metric=float(pm[0, j]))
            for j in range(u.shape[1])]


def scl_decode_batch(spec: CodeSpec, llrs: np.ndarray, list_size: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SCL-decode a (F, N) batch; returns (u, x, pm) shaped (F, L, N) twice
    and (F, L), metric-sorted per frame.

    Leaf-order SC on F*L path rows.  Stage s < m has an LLR workspace and
    a partial-sum workspace of 2**s columns; the channel stage keeps one
    row per frame.  Each workspace has its own row map from path to stored
    row, so a fork only composes the maps and copies no data.  A stage is
    gathered through its map when it is read, and a write replaces all of
    its rows.  Path bits are not stored: u = polar_transform(x).  Unused
    path slots start at metric +inf and are displaced as soon as real
    forks appear.
    """
    llrs = np.ascontiguousarray(llrs, dtype=np.float64)
    fsz, n = llrs.shape
    m, lsize = spec.m, list_size
    rows = fsz * lsize
    frame_rows = np.arange(fsz)[:, None]
    frame_base = frame_rows * lsize
    llr_ws = [np.empty((rows, 1 << s)) for s in range(m)] + [llrs]
    bits = [np.zeros((rows, 1 << s), np.uint8) for s in range(m)]
    work = [np.empty((rows, 1 << s), np.uint8) for s in range(m + 1)]
    # row maps, None where path row i is stored row i
    llr_map = [None] * m + [np.repeat(np.arange(fsz), lsize)]
    bits_map = [None] * m

    def read(ws, maps, s):
        if maps[s] is None:
            return ws[s]
        rows_s = ws[s][maps[s]]
        if s < m:  # the channel stage stays one row per frame
            ws[s], maps[s] = rows_s, None
        return rows_s

    pm = np.full((fsz, lsize), np.inf)
    pm[:, 0] = 0.0
    x_final = None
    for phi in range(n):
        if phi == 0:
            top = m
        else:
            low = (phi & -phi).bit_length() - 1
            _g_update(read(llr_ws, llr_map, low + 1), read(bits, bits_map, low),
                      llr_ws[low])
            llr_map[low] = None
            top = low
        for s in range(top, 0, -1):
            h = 1 << (s - 1)
            node = read(llr_ws, llr_map, s)
            _boxplus_into(node[:, :h], node[:, h:], llr_ws[s - 1])
            llr_map[s - 1] = None
        leaf = read(llr_ws, llr_map, 0)[:, 0].reshape(fsz, lsize)
        # log(1 + exp(-+leaf)) split into max(...) plus a shared correction;
        # each fork's penalty is formed independently so that a large leaf
        # magnitude cannot swallow the accumulated metric by cancellation
        corr = np.log1p(np.exp(-np.abs(leaf)))
        pen0 = corr + np.maximum(-leaf, 0.0)
        if spec.frozen[phi]:
            pm = pm + pen0
            u = np.zeros((rows, 1), np.uint8)
        else:
            pen1 = corr + np.maximum(leaf, 0.0)
            cand = np.concatenate([pm + pen0, pm + pen1], axis=1)
            order = np.argsort(cand, axis=1, kind="stable")[:, :lsize]
            pm = cand[frame_rows, order]
            sel = (frame_base + order % lsize).ravel()
            for maps in (llr_map, bits_map):
                for s, rows_s in enumerate(maps):
                    maps[s] = sel if rows_s is None else rows_s[sel]
            u = (order >= lsize).astype(np.uint8).reshape(rows, 1)
        x, s, t = u, 0, phi
        while t & 1:
            buf = work[s + 1]
            np.bitwise_xor(read(bits, bits_map, s), x, out=buf[:, : 1 << s])
            buf[:, 1 << s:] = x
            x, s, t = buf, s + 1, t >> 1
        if s == m:
            x_final = x.copy()
        else:
            np.copyto(bits[s], x)
            bits_map[s] = None

    order = np.argsort(pm, axis=1, kind="stable")
    sel = (frame_base + order).reshape(-1)
    x_srt = x_final[sel].reshape(fsz, lsize, n)
    return polar_transform(x_srt), x_srt, np.take_along_axis(pm, order, axis=1)


# ---------------------------------------------------------------------------
# belief propagation on the stage graph

def bp_ffg_decode(spec: CodeSpec, llr, max_iters: int = 200, stopping: bool = True,
                  reduce_graph: bool = False) -> DecodeOutput:
    """Flooding BP over the m-stage factor graph.

    One iteration is a full right-to-left then left-to-right pass, stages
    updated sequentially within each pass.  Frozen leaf priors are +L_MAX.
    With `stopping`, the decode returns as soon as the codeword-side hard
    decision equals the re-encoded message-side hard decision.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    u, x, iters, conv = bp_decode_batch(spec, _check_llr(spec, llr)[None, :],
                                        max_iters, stopping, reduce_graph)
    return DecodeOutput(u_hat=u[0], x_hat=x[0], iterations_used=int(iters[0]),
                        converged=bool(conv[0]))


def bp_decode_batch(spec: CodeSpec, llrs: np.ndarray, max_iters: int,
                    stopping: bool, reduce_graph: bool = False,
                    dtype=np.float64) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """BP-decode a (B, N) batch; returns (u_hat, x_hat, iterations, converged).

    Messages are stored batch-last as (stage, N, B) so every update runs on
    contiguous batch-length runs.  Rows are dropped from the working set
    once converged (their outputs are frozen at the converging iteration),
    so mixed-difficulty batches only pay for the rows still running.
    """
    llrs = np.asarray(llrs)
    bsz, n = llrs.shape
    if bsz > _BP_ROW_SLAB:
        parts = [bp_decode_batch(spec, llrs[lo:lo + _BP_ROW_SLAB], max_iters,
                                 stopping, reduce_graph, dtype)
                 for lo in range(0, bsz, _BP_ROW_SLAB)]
        return tuple(np.concatenate(field) for field in zip(*parts))
    m = spec.m
    frozen = spec.frozen
    u_out = np.zeros((bsz, n), np.uint8)
    x_out = np.zeros((bsz, n), np.uint8)
    iters_out = np.full(bsz, max_iters, dtype=np.int64)
    conv_out = np.zeros(bsz, dtype=bool)

    lmsg = np.zeros((m + 1, n, bsz), dtype)
    rmsg = np.zeros((m + 1, n, bsz), dtype)
    lmsg[m] = llrs.T
    rmsg[0][frozen, :] = dtype(L_MAX)
    pinned = _known_columns(spec) if reduce_graph else None
    if pinned is not None:
        for s in range(1, m + 1):
            rmsg[s][pinned[s], :] = dtype(L_MAX)

    def view(col, s):
        return col.reshape(n >> (s + 1), 2, 1 << s, col.shape[-1])

    active = np.arange(bsz)
    alive = np.ones(bsz, dtype=bool)  # rows of the workspace still running
    for it in range(1, max_iters + 1):
        for s in range(m - 1, -1, -1):
            nxt = view(lmsg[s + 1], s)
            cur = view(lmsg[s], s)
            rcur = view(rmsg[s], s)
            t = nxt[:, 1] + rcur[:, 1]
            _boxplus_into(nxt[:, 0], t, cur[:, 0])
            _boxplus_into(rcur[:, 0], nxt[:, 0], t)
            np.add(t, nxt[:, 1], out=cur[:, 1])
        for s in range(m):
            nxt = view(lmsg[s + 1], s)
            rcur = view(rmsg[s], s)
            rnxt = view(rmsg[s + 1], s)
            t = nxt[:, 1] + rcur[:, 1]
            _boxplus_into(rcur[:, 0], t, rnxt[:, 0])
            _boxplus_into(rcur[:, 0], nxt[:, 0], t)
            np.add(t, rcur[:, 1], out=rnxt[:, 1])
            if pinned is not None:
                rmsg[s + 1][pinned[s + 1], :] = dtype(L_MAX)
        if not stopping:
            continue
        u_hd = ((lmsg[0] + rmsg[0]) < 0).T
        u_hd[:, frozen] = False
        x_hd = (((lmsg[m] + rmsg[m]) < 0).T).astype(np.uint8)
        hit = np.flatnonzero(alive & np.all(polar_transform(u_hd) == x_hd, axis=1))
        if hit.size:
            done = active[hit]
            u_out[done] = u_hd[hit]
            x_out[done] = x_hd[hit]
            iters_out[done] = it
            conv_out[done] = True
            alive[hit] = False
            live = int(np.count_nonzero(alive))
            if live == 0:
                return u_out, x_out, iters_out, conv_out
            # compact lazily: the workspace copy is expensive, so finished
            # rows ride along until they are a sizeable fraction
            if alive.size - live >= max(64, alive.size // 4):
                active = active[alive]
                lmsg = np.ascontiguousarray(lmsg[:, :, alive])
                rmsg = np.ascontiguousarray(rmsg[:, :, alive])
                alive = np.ones(live, dtype=bool)
    if alive.any():
        u_hd = ((lmsg[0] + rmsg[0]) < 0).T
        u_hd[:, frozen] = False
        x_hd = (((lmsg[m] + rmsg[m]) < 0).T).astype(np.uint8)
        rest = active[alive]
        u_out[rest] = u_hd[alive]
        x_out[rest] = x_hd[alive]
    return u_out, x_out, iters_out, conv_out


def _known_columns(spec: CodeSpec) -> list[np.ndarray]:
    """Per-column masks of rightward messages pinned by all-frozen wedges.

    Column 0 is the frozen indicator itself; a stage output is pinned when
    every leaf feeding it is frozen (upper port needs both inputs pinned,
    lower port only the lower input).
    """
    known = [np.array(spec.frozen, dtype=bool)]
    for s in range(spec.m):
        prev = known[s].reshape(-1, 2, 1 << s)
        nxt = np.empty_like(prev)
        nxt[:, 0, :] = prev[:, 0, :] & prev[:, 1, :]
        nxt[:, 1, :] = prev[:, 1, :]
        known.append(nxt.reshape(-1))
    return known
