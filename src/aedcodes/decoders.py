"""SC, SCL and BP decoding of monomial codes on the m-stage butterfly graph.

All three decoders share the same LLR kernel primitives and the same graph
layout: stage ``s`` pairs indices ``i`` and ``i + 2**s`` inside blocks of
``2**(s+1)``, so a length-N vector reshaped to ``(-1, 2, 2**s)`` exposes the
upper/lower ports of every processing element as contiguous views.
SC and BP keep their LLR workspaces batch-last, so that a node half or a
stage slice is one contiguous run of batch values, and SC reads its
channel stage as the view llrs.T of the caller's rows when they have its
dtype (float64, or float32 in run_mc; see sc_decode_batch).  SCL keeps its
workspaces batch-first, one row per path, because it gathers paths by
row, and reads the channel stage per frame, never copied per path.

SC and SCL walk the same node schedule (_sc_schedule): a rate-0 node (all
leaves frozen), a rate-1 node (no leaf frozen) and a repetition node (only
its last leaf unfrozen) are decided whole, and only mixed nodes are split
into f- and g-updates.  SC takes x = 0, the hard decision x = (L < 0), or
repeats the sign of the node's LLRs folded by halving sums; this equals
leaf-order SC except on LLR ties inside rate-1 nodes (see
sc_decode_batch).  SCL scores whole nodes by its exact path metric and
forks at repetition and rate-1 nodes (see _decide).

SC compiles its node schedule once per (frozen pattern, rows, dtype) into
a plan, a flat list of ufunc calls on workspaces the plan owns, since at
the few hundred rows of an ensemble chunk the cost of numpy's calls bounds
it as much as their arithmetic.  The plan of the last call is kept for the
next when it has at most CHUNK_ROWS rows, which holds about 17 bytes per
row and code bit in float64 and 9 in float32 (2.2 and 1.2 MB for RM(4,8)
at 512 rows); a call takes it out while it runs, so concurrent and
re-entrant calls build their own.  Boxplus and the g-update each have one
listing of calls (_boxplus_steps, _g_steps): SC's plans keep them, and
SCL, BP and boxplus run them at once.

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

def sc_decode_batch(spec: CodeSpec, llrs: np.ndarray, dtype=np.float64
                    ) -> tuple[np.ndarray, np.ndarray]:
    """SC-decode a (B, N) batch of LLR rows in `dtype` (float64 or float32);
    returns (u_hat, x_hat) bits.

    u_hat is the full-length message with frozen positions zeroed; restrict
    it to spec.info_indices for the k information bits.

    Runs the node schedule of spec's frozen pattern (see _sc_schedule):
    f- and g-updates only inside mixed nodes, and one direct decision per
    rate-0, rate-1 or repetition node.  The schedule is compiled, per
    frozen pattern, row count B and dtype, into a plan (_ScPlan): a flat
    list of ufunc calls on workspaces the plan owns, one LLR workspace per
    stage stored batch-last as (2**s, B), so every node half and every
    codeword slice is one contiguous run.  The channel stage is the view
    llrs.T when llrs has the dtype already, and otherwise one C-contiguous
    (N, B) copy in it; either way it is bound to the plan's calls anew on
    every call.  A caller that holds its rows batch-last, as an (N, B)
    array c, passes c.T and SC reads c itself.  The codeword is assembled
    in place as (N, B) and copied out transposed, so both results are fresh
    C-contiguous (B, N) uint8 arrays, and u_hat is polar_transform(x_hat),
    since G_N is an involution.

    The plan of the most recent call is kept for the next one when B is at
    most CHUNK_ROWS, and built again otherwise; it holds about
    (2 itemsize + 1) N B bytes: 17 N B in float64 (2.2 MB for RM(4,8) at
    512 rows) and 9 N B in float32.  A call takes the kept plan out while
    it runs, so concurrent and re-entrant calls build their own.

    float32, which run_mc uses, rounds every boxplus and g-update to single
    precision, so its decisions can differ from float64's on noisy rows; the
    exact identities (symmetry, oddness, commutation with the lower-
    triangular affine automorphisms, sign-flip linearity) hold in both.
    The result equals leaf-order SC in the same dtype except on a tie
    inside a rate-1 node, which takes the hard decision x = (L < 0).  Leaf
    order differs from it only when an LLR inside the node is exactly zero
    (node LLRs (0.0, -5.0) give x = (1, 1) in leaf order and (0, 1) here),
    or when a boxplus loses its sign because its inputs differ in magnitude
    by a factor of about 1e12 or more (about 1e7 or more in float32).
    """
    llrs = np.asarray(llrs)
    _check_rows(spec, llrs)
    dtype = np.dtype(dtype)
    channel = llrs.T if llrs.dtype == dtype else np.ascontiguousarray(llrs.T, dtype)
    x_hat = _sc_codewords(spec.frozen.tobytes(), channel)
    return polar_transform(x_hat), x_hat


_plan_lock = threading.Lock()
_kept_plan = None  # (key, plan) of the last call of at most CHUNK_ROWS rows


def _sc_codewords(frozen: bytes, channel: np.ndarray) -> np.ndarray:
    """SC codewords, (B, N), of the (N, B) channel stage, through the kept
    plan when its key is (frozen, B, channel.dtype) and a new one
    otherwise."""
    global _kept_plan
    key = frozen, channel.shape[1], channel.dtype
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


class _ScPlan:
    """SC's node schedule for one frozen pattern, row count and dtype,
    compiled once into the ufunc calls that run it.

    Owns, in its dtype, the stage workspaces (2**s, rows) for s < m and an
    (N, rows) scratch for boxplus, the g-update's sign indices and the
    repetition folds, and the (N, rows) uint8 codeword: (2 itemsize + 1)
    N rows bytes.  Its constants (boxplus's 0.5, the zero of the hard
    decisions, the g-update's sign table) are 0-d or 1-d arrays in its
    dtype too, so no call converts the workspaces.  Calls that read the
    channel stage hold _Channel stand-ins, bound to the caller's rows by
    run()."""

    __slots__ = ("steps", "bound", "x")

    def __init__(self, frozen: bytes, rows: int, dtype: np.dtype):
        n = len(frozen)
        m = n.bit_length() - 1
        stages = [np.empty((1 << s, rows), dtype) for s in range(m)] + [_Channel()]
        scratch = np.empty((n, rows), dtype)
        zero = np.zeros((), dtype)  # a 0-d array, like boxplus's 0.5
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
                # the sign indices first copied to intp in the bytes of
                # the scratch's first 2h rows, so that take converts
                # nothing; h rows would be too short in float32
                index = scratch[:2 * h].reshape(-1).view(np.intp)[:h * rows]
                index = index.reshape(h, rows)
                steps.append((np.copyto, (index, x[lo:mid])))
                steps += _g_steps(node[:h], node[h:], index, stages[s - 1])
            elif op == _COMBINE:
                steps.append((np.bitwise_xor, (x[lo:mid], x[mid:hi], x[lo:mid])))
            elif op == _RATE1:
                steps.append((np.less, (node, zero, decide[lo:hi])))
            else:  # _REP: the halving sums that g-updates make over zero left bits
                h = hi - lo
                while h > 1:
                    h >>= 1
                    steps.append((np.add, (node[:h], node[h:2 * h], scratch[:h])))
                    node = scratch[:h]
                steps.append((np.less, (node, zero, decide[lo:hi])))
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

    The signs are looked up from a two-entry table in out's dtype
    straight into out (mode="clip" keeps take from buffering out), not
    built as float arrays.  Products and sums of +-1.0 are exact and
    commute, so the result equals (1.0 - 2.0*left_bits) * upper + lower
    bit for bit.
    """
    _run(_g_steps(upper, lower, left_bits, out))


def _g_steps(upper, lower, left_bits, out):
    """The calls of _g_update, as (ufunc, args) pairs for SC's plans."""
    # SCL calls this 69 times per RM(4,8) decode, so float64, its dtype,
    # takes the table as it is; a float32 SC plan converts it once
    signs = _SIGNS if out.dtype == _SIGNS.dtype else _SIGNS.astype(out.dtype)
    return [(signs.take, (left_bits, None, out, "clip")),
            (np.multiply, (out, upper, out)), (np.add, (out, lower, out))]


# schedule ops, and the node kind that is not one: a mixed node is split
_F, _G, _COMBINE, _RATE1, _REP, _RATE0 = range(6)
_MIXED = -1


@functools.lru_cache(maxsize=64)
def _sc_schedule(frozen: bytes, rate0: bool = False
                 ) -> tuple[tuple[int, int, int, int, int], ...]:
    """Node schedule of SC for a frozen pattern, as (op, s, lo, mid, hi).

    The node at stage s covers leaves lo..hi-1, holds its LLRs in workspace
    s and splits at mid.  Only mixed nodes are descended into.  A mixed node
    runs an f-update before a left child that is not rate-0, and a g-update
    before a right child that is not rate-0.  After the right child,
    COMBINE xors the right half of x into the left half.  SC needs no
    rate-0 node, as its codeword starts at zero; with `rate0`, for SCL's
    path metric, rate-0 nodes are ops too and are updated into like any
    child.  Keyed by frozen.tobytes(), so each pattern's schedule is built
    on its first decode.
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
            if rate0 or node != _RATE0:
                ops.append((node, s, lo, lo, hi))
            return
        mid = (lo + hi) >> 1
        if rate0 or kind(lo, mid) != _RATE0:
            ops.append((_F, s, lo, mid, hi))
            visit(s - 1, lo, mid)
        if rate0 or kind(mid, hi) != _RATE0:
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

    The metric is the exact log-likelihood penalty of a path's codeword x,
    sum_i ln(1 + exp(-(1 - 2x_i) lambda_i)) over the channel LLRs lambda,
    accumulated node by node on SC's schedule with its rate-0 nodes: a node
    with LLRs alpha and codeword x_v adds that sum over alpha and x_v.
    Mixed nodes run f- and g-updates; the others are decided whole
    (_decide).  list_size=1 reproduces sc_decode_batch, away from ties of a
    repetition node's two metrics.

    Runs on F*L path rows, frame f's L paths in rows f*L .. f*L+L-1.
    Stage s < m has an LLR workspace of 2**s columns, and the last left
    child decoded at stage s leaves its codeword in bits[s].  Each has a
    row map from path to stored row: a node's forks compose the maps once
    and copy no data, a read gathers a stage through its map, and a write
    replaces all of its rows.  The channel stage is the caller's (F, N)
    rows, read per frame and never copied per path (its f-update runs per
    frame, its g-update broadcasts against each path's bits), unless the
    whole code is one rate-0, rate-1 or repetition node.  Path bits
    are not stored: u = polar_transform(x).  Unused slots start at metric
    +inf and are displaced as soon as real forks appear.
    """
    check_count("list_size", list_size)
    llrs = np.ascontiguousarray(llrs, dtype=np.float64)
    _check_rows(spec, llrs)
    fsz, n = llrs.shape
    m, lsize = spec.m, list_size
    rows = fsz * lsize
    forks = _Forks(fsz, lsize)
    llr_ws = [np.empty((rows, 1 << s)) for s in range(m)]
    bits = [None] * m
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
        return stage.reshape(fsz, lsize, stage.shape[1])

    pm = np.full((fsz, lsize), np.inf)
    pm[:, 0] = 0.0
    for op, s, lo, mid, hi in _sc_schedule(spec.frozen.tobytes(), True):
        h = mid - lo
        if op == _F or op == _G:
            # the channel stage is one row per frame, broadcast to its paths
            node = llrs[:, None] if s == m else by_frame(read(llr_ws, llr_map, s))
            out, llr_map[s - 1] = by_frame(llr_ws[s - 1]), None
            if op == _G:
                _g_update(node[..., :h], node[..., h:],
                          by_frame(read(bits, bits_map, s - 1)), out)
            elif s == m:  # a frame's paths are all one path here
                _boxplus_into(node[..., :h], node[..., h:], out[:, :1])
                out[:, 1:] = out[:, :1]
            else:
                _boxplus_into(node[..., :h], node[..., h:], out)
            continue
        if op == _COMBINE:
            x = np.empty((rows, 2 * h), np.uint8)
            np.bitwise_xor(read(bits, bits_map, s - 1), right, out=x[:, :h])
            x[:, h:] = right
        else:  # a code that is one such node repeats its channel per path
            alpha = np.repeat(llrs, lsize, axis=0) if s == m else read(llr_ws, llr_map, s)
            pm, x, sel = _decide(op, alpha, pm, forks)
            for t in range(s, m) if sel is not None else ():
                # compose the maps of what is read again: from stage s up,
                # the bits of a left sibling at stage t, or the LLRs of a
                # node at stage t + 1 whose right child is still to come
                maps, t = (bits_map, t) if lo >> t & 1 else (llr_map, t + 1)
                if t < m:
                    maps[t] = sel if maps[t] is None else maps[t][sel]
        if s < m and lo >> s & 1:
            right = x
        elif s < m:
            bits[s], bits_map[s] = x, None

    order = np.argsort(pm, axis=1, kind="stable")
    x_srt = x[(forks.base + order).ravel()].reshape(fsz, lsize, n)
    return polar_transform(x_srt), x_srt, np.take_along_axis(pm, order, axis=1)


def _fold(v):
    """Sum over the last axis, of power-of-two length, by halving sums."""
    while v.shape[-1] > 1:
        h = v.shape[-1] >> 1
        v = v[..., :h] + v[..., h:]
    return v[..., 0]


class _Forks:
    """The 2L candidates of each of F frames' L paths: path i's first and
    second in columns i and L + i of (F, 2L)."""

    def __init__(self, fsz: int, lsize: int):
        paths = np.arange(fsz * lsize).reshape(fsz, lsize)
        self.base = paths[:, :1]  # each frame's first path row
        self.row = np.concatenate([paths, paths], axis=1).ravel()
        self.second = np.arange(2 * fsz * lsize) % (2 * lsize) >= lsize

    def keep(self, first, second):
        """Keep the best L candidates of each frame, by metrics first and
        second (F, L) in a stable sort (a tie keeps the first).  Returns
        their metrics in order, the row each extends and whether it is
        that row's second."""
        cand = np.concatenate([first, second], axis=1)
        taken = cand.argsort(axis=1, kind="stable")[:, :first.shape[1]] + 2 * self.base
        flat = taken.ravel()
        return cand.ravel()[taken], self.row[flat], self.second[flat]


_NEG_POS = np.array([-1.0, 1.0])[:, None, None]


def _decide(op, alpha, pm, forks):
    """Decide a node whole from its path LLRs alpha (F*L, N_v) and path
    metrics pm (F, L); returns the new metrics, the path codewords and, if
    it forked, the row each path extends.  Sums over a node are halving
    folds.  A rate-0 node adds sum_j ln(1 + e^-alpha_j); a repetition node
    gives each path its two codewords; a rate-1 node adds
    sum_j ln(1 + e^-|alpha_j|), takes the hard decision and forks
    min(L - 1, N_v) times on its least reliable bits in turn, a flip of
    bit j costing |alpha_j| more, as ln(1 + e^a) - ln(1 + e^-a) = a
    (Hashemi, Condo and Gross, IEEE TSP 2017)."""
    shape, (rows, nv) = pm.shape, alpha.shape
    mag = np.abs(alpha)
    corr = np.log1p(np.exp(-mag))  # ln(1 + e^-|alpha|)
    if op != _RATE1:  # the penalties of x = 0 and x = 1, folded at once
        pen = np.maximum(alpha * _NEG_POS, 0.0)
        pen += corr
        pen = _fold(pen).reshape((2,) + shape)
        if op == _RATE0:
            return pm + pen[0], np.zeros((rows, nv), np.uint8), None
        pm, row, one = forks.keep(pm + pen[0], pm + pen[1])
        return pm, np.repeat(one.view(np.uint8)[:, None], nv, axis=1), row
    pm = pm + _fold(corr).reshape(shape)
    x = alpha < 0
    nflips = min(shape[1] - 1, nv)
    if not nflips:
        return pm, x.view(np.uint8), None
    pos = np.argsort(mag, axis=1, kind="stable")[:, :nflips]
    cost = np.sort(mag, axis=1)[:, :nflips].T.copy()  # cost[t] of each row
    origin = np.arange(rows)  # the row of alpha each path extends
    flips = np.zeros((rows, nflips), bool)
    for t in range(nflips):
        pm, row, flip = forks.keep(pm, pm + cost[t][origin].reshape(shape))
        origin, flips = origin[row], flips[row]
        flips[:, t] = flip
        if not flip.any():  # then no later fork is taken: its flips cost no less
            break
    x = x[origin]
    x[np.arange(rows)[:, None], pos[origin]] ^= flips
    return pm, x.view(np.uint8), origin


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
    check_count("max_iters", max_iters)
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
