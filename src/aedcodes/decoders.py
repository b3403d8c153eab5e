"""SC, SCL and BP decoding of monomial codes on the m-stage butterfly graph.

All three decoders share the same LLR kernel primitives and the same graph
layout: stage ``s`` pairs indices ``i`` and ``i + 2**s`` inside blocks of
``2**(s+1)``, so a length-N vector reshaped to ``(-1, 2, 2**s)`` exposes the
upper/lower ports of every processing element as contiguous views.

Decoders are deterministic pure functions; batched kernels process rows
independently, so per-row results never depend on how calls are batched.
"""

from __future__ import annotations

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


def _stage_view(flat, s):
    """(B, N) -> (B, blocks, 2, 2**s); axis 2 separates upper/lower ports."""
    b, n = flat.shape
    return flat.reshape(b, n >> (s + 1), 2, 1 << s)


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

    Iterative leaf-order schedule with one LLR / partial-sum workspace per
    stage, so the recursion depth never exceeds m.
    """
    llrs = np.ascontiguousarray(llrs, dtype=np.float64)
    bsz, n = llrs.shape
    m = spec.m
    frozen = spec.frozen
    llr_ws = [np.empty((bsz, 1 << s)) for s in range(m)] + [llrs]
    bits_left = [np.empty((bsz, 1 << s), np.uint8) for s in range(m + 1)]
    work = [np.empty((bsz, 1 << s), np.uint8) for s in range(m + 1)]
    u_out = np.empty((bsz, n), np.uint8)
    x_out = None
    for phi in range(n):
        if phi == 0:
            top = m
        else:
            low = (phi & -phi).bit_length() - 1
            _g_update(llr_ws[low + 1], bits_left[low], llr_ws[low])
            top = low
        for s in range(top, 0, -1):
            h = 1 << (s - 1)
            _boxplus_into(llr_ws[s][:, :h], llr_ws[s][:, h:], llr_ws[s - 1])
        if frozen[phi]:
            u = np.zeros((bsz, 1), np.uint8)
        else:
            u = (llr_ws[0] < 0).astype(np.uint8)
        u_out[:, phi] = u[:, 0]
        x, s, t = u, 0, phi
        while t & 1:
            buf = work[s + 1]
            np.bitwise_xor(bits_left[s], x, out=buf[:, : 1 << s])
            buf[:, 1 << s:] = x
            x, s, t = buf, s + 1, t >> 1
        if s == m:
            x_out = x.copy()
        else:
            np.copyto(bits_left[s], x)
    return u_out, x_out


def _g_update(parent, left_bits, out):
    """out = (-1)^left_bits * parent_upper + parent_lower."""
    h = parent.shape[1] // 2
    np.multiply(1.0 - 2.0 * left_bits, parent[:, :h], out=out)
    out += parent[:, h:]


# ---------------------------------------------------------------------------
# successive cancellation list

def scl_decode(spec: CodeSpec, llr, list_size: int) -> list[DecodeOutput]:
    """SCL decode; returns up to `list_size` candidates sorted by path metric.

    The metric is the exact log-likelihood penalty, accumulated at every
    leaf: pm += log(1 + exp(-(1-2u) * L)).  list_size=1 reproduces
    sc_decode bit-exactly.
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

    Paths live as F*L rows of flat per-stage workspaces (stage s occupies
    columns 2**s - 1 .. 2**(s+1) - 2).  Unused path slots start at metric
    +inf and are displaced as soon as real forks appear.
    """
    llrs = np.ascontiguousarray(llrs, dtype=np.float64)
    fsz, n = llrs.shape
    m, lsize = spec.m, list_size
    rows = fsz * lsize
    off = [(1 << s) - 1 for s in range(m + 1)]

    def sl(arr, s):
        return arr[:, off[s]: off[s] + (1 << s)]

    llr_ws = np.empty((rows, 2 * n - 1))
    sl(llr_ws, m)[:] = np.repeat(llrs, lsize, axis=0)
    bits = np.zeros((rows, 2 * n - 1), np.uint8)
    work = np.zeros((rows, 2 * n - 1), np.uint8)
    u_path = np.zeros((rows, n), np.uint8)
    pm = np.full((fsz, lsize), np.inf)
    pm[:, 0] = 0.0
    x_final = None
    frame_base = (np.arange(fsz, dtype=np.int64) * lsize)[:, None]

    for phi in range(n):
        if phi == 0:
            top = m
        else:
            low = (phi & -phi).bit_length() - 1
            _g_update(sl(llr_ws, low + 1), sl(bits, low), sl(llr_ws, low))
            top = low
        for s in range(top, 0, -1):
            h = 1 << (s - 1)
            _boxplus_into(sl(llr_ws, s)[:, :h], sl(llr_ws, s)[:, h:], sl(llr_ws, s - 1))
        leaf = sl(llr_ws, 0)[:, 0].reshape(fsz, lsize)
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
            pm = np.take_along_axis(cand, order, axis=1)
            parent = order % lsize
            sel = (frame_base + parent).ravel()
            llr_ws = llr_ws[sel]
            bits = bits[sel]
            u_path = u_path[sel]
            u = (order >= lsize).astype(np.uint8).reshape(rows, 1)
        u_path[:, phi] = u[:, 0]
        x, s, t = u, 0, phi
        while t & 1:
            buf = sl(work, s + 1)
            np.bitwise_xor(sl(bits, s), x, out=buf[:, : 1 << s])
            buf[:, 1 << s:] = x
            x, s, t = buf, s + 1, t >> 1
        if s == m:
            x_final = x.copy()
        else:
            np.copyto(sl(bits, s), x)

    order = np.argsort(pm, axis=1, kind="stable")
    sel = (frame_base + order).reshape(-1)
    u_srt = u_path[sel].reshape(fsz, lsize, n)
    x_srt = x_final[sel].reshape(fsz, lsize, n)
    return u_srt, x_srt, np.take_along_axis(pm, order, axis=1)


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
