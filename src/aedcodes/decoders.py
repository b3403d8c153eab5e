"""SC, SCL and BP decoding of monomial codes on the m-stage butterfly graph.

All three decoders share the same LLR kernel primitives and the same graph
layout: stage ``s`` pairs indices ``i`` and ``i + 2**s`` inside blocks of
``2**(s+1)``, so a length-N vector reshaped to ``(-1, 2, 2**s)`` exposes the
upper/lower ports of every processing element as contiguous views.
SC and BP keep their LLR workspaces batch-last, index by row, so that a
node half or a stage slice is one contiguous run of batch values, and SC
reads its channel stage as the view llrs.T of the caller's rows, with no
copy.  SCL keeps its workspaces batch-first, one row per path, because it
gathers paths by row; a frame's paths stay in its block of L rows, so SCL
reads the channel stage per frame and never copies it per path.  The
g-update looks its signs up from a two-entry table straight into its
output, not as float sign arrays.

SC decodes a node of the decoding tree directly when the frozen pattern
allows: a rate-0 node (all leaves frozen) gives x = 0, a rate-1 node (no
leaf frozen) gives the hard decision x = (L < 0), and a repetition node
(only its last leaf unfrozen) folds its LLRs by halving sums and repeats
the sign of the result.  Only mixed nodes are split into f- and g-updates.
This equals leaf-order SC except on LLR ties inside rate-1 nodes (see
sc_decode_batch).  SCL keeps the leaf-order schedule, because its path
metric needs every leaf LLR, frozen or not.

SC compiles its node schedule once per (frozen pattern, rows) into a plan,
a flat list of ufunc calls on workspaces the plan owns, since at the few
hundred rows of an ensemble chunk the cost of numpy's calls, not their
arithmetic, bounds it.  The plan of the last call is kept for the next
when it has at most CHUNK_ROWS rows, which holds about 17 bytes per row and
code bit (2.2 MB for RM(4,8) at 512 rows); a call takes it out while it
runs, so concurrent and re-entrant calls build their own.  Boxplus and
the g-update each have one listing of calls (_boxplus_steps, _g_steps):
SC's plans keep them, and SCL, BP and boxplus run them at once.

Decoders are deterministic pure functions; batched kernels process rows
independently, so per-row results never depend on how calls are batched
or on which plan SC ran.  No kernel splits its rows: a call's workspaces
hold all of them, and run_mc bounds the rows per call (CHUNK_ROWS).  BP
compacts its workspace in each iteration where rows converge.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec, polar_transform

L_MAX = 40.0  # saturation magnitude standing in for certain (infinite) LLRs
# The rows a kernel call is sized for: run_mc holds an ensemble chunk to at
# most this many decoder rows (see simulation), and sc_decode_batch keeps
# its compiled plan only for calls of at most this many rows.
CHUNK_ROWS = 512


# ---------------------------------------------------------------------------
# decoder configurations (used by the ensemble and simulation layers)
#
# descriptor is the (kind, subgroup, M, L) of a result row, shared with
# EnsembleConfig: plain decoders carry subgroup "-" and M = 0, and L is the
# list size (1 for SC, 0 for BP).

def check_count(name: str, value) -> None:
    """Refuse a count no run can use: TypeError unless `value` is an
    integer (bool excluded), ValueError unless it is >= 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer >= 1, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class Sc:
    """Plain successive cancellation."""

    kind = "sc"
    descriptor = (kind, "-", 0, 1)


@dataclass(frozen=True)
class Scl:
    """Successive cancellation list decoding with `list_size` paths."""

    list_size: int = 8
    kind = "scl"

    def __post_init__(self):
        check_count("list_size", self.list_size)

    @property
    def descriptor(self) -> tuple[str, str, int, int]:
        return self.kind, "-", 0, self.list_size


@dataclass(frozen=True)
class Bp:
    """Iterative decoding with an optional generator-matrix stopping test."""

    max_iters: int = 200
    stopping: bool = True
    kind = "bp"
    descriptor = (kind, "-", 0, 0)

    def __post_init__(self):
        check_count("max_iters", self.max_iters)
        if not isinstance(self.stopping, bool):
            raise TypeError(f"stopping must be a bool, got {self.stopping!r}")


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
    """out = boxplus(a, b), by the calls of _boxplus_steps on a fresh
    scratch of twice out's size."""
    _run(_boxplus_steps(a, b, out, np.empty((2 * len(out),) + out.shape[1:],
                                            out.dtype)))
    return out


def _boxplus_steps(a, b, out, sd):
    """The calls of boxplus(a, b) into out, as (ufunc, args) pairs, which
    _boxplus_into runs at once and SC's plans keep.  The two temporaries
    s = |a+b| and d = |a-b| are the halves of sd, which has twice out's
    rows and out's dtype and is contiguous, so each of the four passes
    that apply to both (abs, negative, exp, log1p) is one call.  The
    constant is a 0-d array, which a ufunc takes in about half the time of
    a Python float."""
    s, d = sd[:len(out)], sd[len(out):]
    # the last subtraction, one rounding, keeps the kernel exactly odd:
    # flipping the sign of either input swaps the roles of s and d, and
    # both the min term (s - d)/2 and this correction difference negate
    # without extra rounding
    return [(np.add, (a, b, s)), (np.subtract, (a, b, d)), (np.abs, (sd, sd)),
            (np.subtract, (s, d, out)),
            (np.multiply, (out, np.array(0.5, out.dtype), out)),
            (np.negative, (sd, sd)), (np.exp, (sd, sd)), (np.log1p, (sd, sd)),
            (np.subtract, (s, d, s)), (np.add, (out, s, out))]


def _run(steps):
    for func, args in steps:
        func(*args)


def saturate(llr) -> np.ndarray:
    return np.clip(llr, -L_MAX, L_MAX)


def _check_rows(spec: CodeSpec, llrs: np.ndarray) -> None:
    """Every decoder takes a 2-D batch of LLR rows, one row per frame."""
    if llrs.ndim != 2 or llrs.shape[1] != spec.n:
        raise ValueError(f"llrs must have shape (rows, N={spec.n}), "
                         f"got {llrs.shape}")


# ---------------------------------------------------------------------------
# successive cancellation

def sc_decode_batch(spec: CodeSpec, llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SC-decode a (B, N) batch of LLR rows; returns (u_hat, x_hat) bits.

    u_hat is the full-length message with frozen positions zeroed; restrict
    it to spec.info_indices for the k information bits.

    Runs the node schedule of spec's frozen pattern (see _sc_schedule):
    f- and g-updates only inside mixed nodes, and one direct decision per
    rate-0, rate-1 or repetition node.  The schedule is compiled, per
    frozen pattern and row count B, into a plan (_ScPlan): a flat list of
    ufunc calls on workspaces the plan owns, one LLR workspace per stage
    stored batch-last as (2**s, B), so every node half and every codeword
    slice is one contiguous run.  The channel stage is read as the view
    llrs.T, bound to the plan's calls anew on every call, never copied.
    The codeword is assembled in place as (N, B) and copied out transposed,
    so both results are fresh C-contiguous (B, N) uint8 arrays, and u_hat
    is polar_transform(x_hat), since G_N is an involution.

    The plan of the most recent call is kept for the next one when B is at
    most CHUNK_ROWS, and built again otherwise; it holds about 17 N B
    bytes (2.2 MB for RM(4,8) at 512 rows).  A call takes the kept plan out
    while it runs, so concurrent and re-entrant calls build their own.

    The result equals leaf-order SC except on a tie inside a rate-1 node,
    which takes the hard decision x = (L < 0).  Leaf order differs from it
    only when an LLR inside the node is exactly zero (node LLRs (0.0, -5.0)
    give x = (1, 1) in leaf order and (0, 1) here), or when a boxplus
    loses its sign because its inputs differ in magnitude by a factor of
    about 1e12 or more.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    _check_rows(spec, llrs)
    x_hat = _sc_codewords(spec.frozen.tobytes(), llrs.T)
    return polar_transform(x_hat), x_hat


_plan_lock = threading.Lock()
_kept_plan = None  # (key, plan) of the last call of at most CHUNK_ROWS rows


def _sc_codewords(frozen: bytes, channel: np.ndarray) -> np.ndarray:
    """SC codewords, (B, N), of the (N, B) channel stage, through the kept
    plan when its key is (frozen, B) and a new one otherwise."""
    global _kept_plan
    key = frozen, channel.shape[1]
    with _plan_lock:
        kept, _kept_plan = _kept_plan, None
    plan = kept[1] if kept is not None and kept[0] == key else _ScPlan(*key)
    x_hat = plan.run(channel).T.copy()  # a copy even when B = 1
    if key[1] <= CHUNK_ROWS:
        _kept_plan = key, plan
    return x_hat


class _Channel:
    """Stand-in for the channel-stage rows `rows` in a plan's calls,
    replaced by that view of the caller's LLRs on every run.  Only the
    whole stage, _Channel(), is sliced."""

    __slots__ = ("rows",)

    def __init__(self, rows=slice(None)):
        self.rows = rows

    def __getitem__(self, rows):
        return _Channel(rows)


_ZERO = np.array(0.0)  # as a 0-d array, like boxplus's 0.5


class _ScPlan:
    """SC's node schedule for one frozen pattern and row count, compiled
    once into the ufunc calls that run it.

    Owns the stage workspaces (2**s, rows) for s < m, an (N, rows)
    scratch for boxplus, the g-update's sign indices and the repetition
    folds, and the (N, rows) codeword: 17 N rows bytes.  Calls that read
    the channel stage hold _Channel stand-ins, bound to the caller's rows
    by run()."""

    __slots__ = ("steps", "bound", "x")

    def __init__(self, frozen: bytes, rows: int):
        n = len(frozen)
        m = n.bit_length() - 1
        stages = [np.empty((1 << s, rows)) for s in range(m)] + [_Channel()]
        scratch = np.empty((n, rows))
        x = np.zeros((n, rows), np.uint8)
        decide = x.view(np.bool_)  # hard decisions need no cast to uint8
        steps = []
        for op, s, lo, mid, hi in _sc_schedule(frozen):
            node = stages[s]
            h = mid - lo
            if op == _F:
                steps += _boxplus_steps(node[:h], node[h:], stages[s - 1],
                                        scratch[:2 * h])
            elif op == _G:
                # the sign indices first copied to intp in the scratch, so
                # that take converts nothing
                index = scratch[:h].view(np.intp)
                steps.append((np.copyto, (index, x[lo:mid])))
                steps += _g_steps(node[:h], node[h:], index, stages[s - 1])
            elif op == _COMBINE:
                steps.append((np.bitwise_xor, (x[lo:mid], x[mid:hi], x[lo:mid])))
            elif op == _RATE1:
                steps.append((np.less, (node, _ZERO, decide[lo:hi])))
            else:  # _REP: the halving sums that g-updates make over zero left bits
                h = hi - lo
                while h > 1:
                    h >>= 1
                    steps.append((np.add, (node[:h], node[h:2 * h], scratch[:h])))
                    node = scratch[:h]
                steps.append((np.less, (node, _ZERO, decide[lo:hi])))
        self.steps = steps
        self.bound = [(i, func, args) for i, (func, args) in enumerate(steps)
                      if any(isinstance(a, _Channel) for a in args)]
        self.x = x

    def run(self, channel: np.ndarray) -> np.ndarray:
        """Decode the (N, rows) channel stage; returns the plan's own
        (N, rows) codeword buffer, valid until the plan runs again."""
        steps = self.steps.copy()  # so no call keeps the caller's rows
        for i, func, args in self.bound:
            steps[i] = func, tuple(channel[a.rows] if isinstance(a, _Channel) else a
                                   for a in args)
        self.x.fill(0)  # rate-0 ranges read zero, but a COMBINE xors into some
        _run(steps)
        return self.x


_SIGNS = np.array([1.0, -1.0])


def _g_update(upper, lower, left_bits, out):
    """out = (-1)^left_bits * upper + lower; upper and lower broadcast
    against left_bits, which has out's shape.

    The signs are looked up from a two-entry table straight into out
    (mode="clip" keeps take from buffering out), not built as float
    arrays.  Products and sums of +-1.0 are exact and commute, so the
    result equals (1.0 - 2.0*left_bits) * upper + lower bit for bit.
    """
    _run(_g_steps(upper, lower, left_bits, out))


def _g_steps(upper, lower, left_bits, out):
    """The calls of _g_update, as (ufunc, args) pairs for SC's plans."""
    return [(_SIGNS.take, (left_bits, None, out, "clip")),
            (np.multiply, (out, upper, out)), (np.add, (out, lower, out))]


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

def scl_decode_batch(spec: CodeSpec, llrs: np.ndarray, list_size: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SCL-decode a (F, N) batch; returns (u, x, pm) shaped (F, L, N) twice
    and (F, L), metric-sorted per frame.

    The metric is the exact log-likelihood penalty, accumulated at every
    leaf: pm += log(1 + exp(-(1-2u) * L)).  list_size=1 reproduces
    sc_decode_batch bit-exactly, away from the rate-1 LLR ties that its
    docstring describes.

    Leaf-order SC on F*L path rows, the L paths of frame f in rows
    f*L .. f*L+L-1.  Stage s < m has an LLR workspace and a partial-sum
    workspace of 2**s columns.  Each workspace has its own row map from
    path to stored row, so a fork only composes the maps and copies no
    data.  A stage is gathered through its map when it is read, and a write
    replaces all of its rows.  The channel stage is the caller's (F, N)
    rows, read per frame and never copied per path: at phi = 0 its f-update
    runs once per frame and is broadcast to the frame's paths, and at
    phi = N/2 its halves are broadcast against each path's partial sums.
    Path bits are not stored: u = polar_transform(x).  Unused path slots
    start at metric +inf and are displaced as soon as real forks appear.
    """
    if list_size < 1:
        raise ValueError(f"list_size must be >= 1, got {list_size}")
    llrs = np.ascontiguousarray(llrs, dtype=np.float64)
    _check_rows(spec, llrs)
    fsz, n = llrs.shape
    m, lsize = spec.m, list_size
    rows = fsz * lsize
    frame_rows = np.arange(fsz)[:, None]
    frame_base = frame_rows * lsize
    llr_ws = [np.empty((rows, 1 << s)) for s in range(m)]
    bits = [np.zeros((rows, 1 << s), np.uint8) for s in range(m)]
    work = [np.empty((rows, 1 << s), np.uint8) for s in range(m + 1)]
    # row maps, None where path row i is stored row i.  A fork only
    # permutes rows within a frame, so path row r always belongs to frame
    # r // L, and a stage reshaped to (F, L, 2**s) lines up with llrs[:, None]
    llr_map = [None] * m
    bits_map = [None] * m

    def read(ws, maps, s):
        if maps[s] is not None:
            ws[s], maps[s] = ws[s][maps[s]], None
        return ws[s]

    def by_frame(stage):
        return stage.reshape(fsz, lsize, -1)

    pm = np.full((fsz, lsize), np.inf)
    pm[:, 0] = 0.0
    x_final = None
    for phi in range(n):
        if phi == 0:
            top = m - 1
            if m:  # a frame's paths are all one path: f-update its row once
                half = boxplus(llrs[:, : n >> 1], llrs[:, n >> 1:])
                by_frame(llr_ws[m - 1])[:] = half[:, None]
        else:
            low = (phi & -phi).bit_length() - 1
            h = 1 << low
            if low == m - 1:
                _g_update(llrs[:, None, :h], llrs[:, None, h:],
                          by_frame(read(bits, bits_map, low)), by_frame(llr_ws[low]))
            else:
                node = read(llr_ws, llr_map, low + 1)
                _g_update(node[:, :h], node[:, h:], read(bits, bits_map, low),
                          llr_ws[low])
            llr_map[low] = None
            top = low
        for s in range(top, 0, -1):
            h = 1 << (s - 1)
            node = read(llr_ws, llr_map, s)
            _boxplus_into(node[:, :h], node[:, h:], llr_ws[s - 1])
            llr_map[s - 1] = None
        if m:
            leaf = read(llr_ws, llr_map, 0)[:, 0].reshape(fsz, lsize)
        else:  # N = 1: the leaf is the channel itself
            leaf = np.broadcast_to(llrs, (fsz, lsize))
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

def bp_decode_batch(spec: CodeSpec, llrs: np.ndarray, max_iters: int,
                    stopping: bool, dtype=np.float64
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """BP-decode a (B, N) batch; returns (u_hat, x_hat, iterations, converged).

    Flooding BP over the m-stage factor graph.  One iteration is a full
    right-to-left then left-to-right pass, stages updated sequentially
    within each pass.  Frozen leaf priors are +L_MAX.  With `stopping`, a
    row stops as soon as its codeword-side hard decision equals the
    re-encoded message-side hard decision; a row that never does, or any
    row without `stopping`, runs all max_iters iterations and returns
    converged False.

    Messages are stored batch-last as (stage, N, B) so every update runs on
    contiguous batch-length runs.  In every iteration where rows converge,
    their outputs are frozen and the workspace is compacted to the rows
    still running, so mixed-difficulty batches only pay for those.  The
    workspace holds all B rows at first; run_mc bounds the rows of a call
    (CHUNK_ROWS).
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    llrs = np.asarray(llrs)
    _check_rows(spec, llrs)
    bsz, n = llrs.shape
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

    def view(col, s):
        return col.reshape(n >> (s + 1), 2, 1 << s, col.shape[-1])

    def hard_decisions():
        u_hd = ((lmsg[0] + rmsg[0]) < 0).T
        u_hd[:, frozen] = False
        return u_hd, (((lmsg[m] + rmsg[m]) < 0).T).astype(np.uint8)

    active = np.arange(bsz)  # the caller's row of each workspace column
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
        if not stopping:
            continue
        u_hd, x_hd = hard_decisions()
        hit = np.all(polar_transform(u_hd) == x_hd, axis=1)
        if hit.any():
            done = active[hit]
            u_out[done] = u_hd[hit]
            x_out[done] = x_hd[hit]
            iters_out[done] = it
            conv_out[done] = True
            running = ~hit
            active = active[running]
            if not active.size:
                return u_out, x_out, iters_out, conv_out
            # one copy into C order; lmsg[:, :, running] would come out
            # strided and need a second one
            lmsg = lmsg.compress(running, axis=2)
            rmsg = rmsg.compress(running, axis=2)
    u_out[active], x_out[active] = hard_decisions()
    return u_out, x_out, iters_out, conv_out
