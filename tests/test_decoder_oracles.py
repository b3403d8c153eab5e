"""The SC and SCL kernels against reference decoders.

leaf_order_sc and leaf_order_scl are the leaf-order kernels the library
used before SC pruned its tree at rate-0, rate-1 and repetition nodes and
SCL moved onto SC's node schedule.  node_order_scl is an independent,
recursive statement of the node rules the SCL kernel follows, on per-path
copies that every fork gathers at once.  The references compute the
g-update inline with the float sign formula (1 - 2*bits) * upper + lower,
independently of the library's sign lookup.

SCL must match node_order_scl bit for bit everywhere.  Leaf order prunes
a node's paths on the partial metrics of its leaves, node order on the
node's whole codewords, so their lower slots differ and, rarely, their
best paths do too; on a fixed set of noisy frames the best paths match.
SC must match leaf order everywhere except on ties inside rate-1 nodes,
where the pruned kernel takes the hard decision; the SC reference flags
the rows on which such a tie occurred.
"""

import numpy as np
import pytest

from aedcodes import (L_MAX, boxplus, encode, index_to_monomial_mask,
                      is_decreasing, monomial_leq, polar_code, polar_transform,
                      rm_code, saturate, sc_decode_batch, scl_decode_batch)
from aedcodes.decoders import _F, _G, _RATE1, _REP, _boxplus_into, _sc_schedule


# ---------------------------------------------------------------------------
# leaf-order references

def _all_info(frozen, s, phi):
    """True iff the stage-s node above leaf phi holds information bits only."""
    lo = (phi >> s) << s
    return not frozen[lo: lo + (1 << s)].any()


def leaf_order_sc(spec, llrs):
    """Leaf-order SC; returns (u_hat, x_hat, tie).

    tie[b] is set when, inside a node whose leaves are all information bits,
    an f-update of row b returned zero or a sign other than the product of
    its inputs' signs.  Without such an event, leaf-order SC on a rate-1
    node equals the hard decision on the node's LLRs.
    """
    llrs = np.ascontiguousarray(llrs, dtype=np.float64)
    bsz, n = llrs.shape
    m = spec.m
    frozen = spec.frozen
    tie = np.zeros(bsz, bool)
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
            h = 1 << low
            up, lo = llr_ws[low + 1][:, :h], llr_ws[low + 1][:, h:]
            llr_ws[low][:] = (1.0 - 2.0 * bits_left[low]) * up + lo
            top = low
        for s in range(top, 0, -1):
            h = 1 << (s - 1)
            a, b = llr_ws[s][:, :h], llr_ws[s][:, h:]
            _boxplus_into(a, b, llr_ws[s - 1])
            if _all_info(frozen, s, phi):
                out = llr_ws[s - 1]
                tie |= np.any((out == 0) | (np.sign(out) != np.sign(a) * np.sign(b)),
                              axis=1)
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
    return u_out, x_out, tie


def leaf_order_scl(spec, llrs, list_size):
    """Leaf-order SCL on flat per-path workspaces (stage s in columns
    2**s - 1 .. 2**(s+1) - 2), gathered whole at every information bit."""
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
            h = 1 << low
            up, lo = sl(llr_ws, low + 1)[:, :h], sl(llr_ws, low + 1)[:, h:]
            sl(llr_ws, low)[:] = (1.0 - 2.0 * sl(bits, low)) * up + lo
            top = low
        for s in range(top, 0, -1):
            h = 1 << (s - 1)
            _boxplus_into(sl(llr_ws, s)[:, :h], sl(llr_ws, s)[:, h:], sl(llr_ws, s - 1))
        leaf = sl(llr_ws, 0)[:, 0].reshape(fsz, lsize)
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


def node_kind(frozen, lo, hi):
    info = int(np.count_nonzero(~frozen[lo:hi]))
    if info == 0:
        return "rate-0"
    if info == hi - lo:
        return "rate-1"
    if info == 1 and not frozen[hi - 1]:
        return "repetition"
    return "mixed"


def halving_sum(v):
    """Row sums of v (rows, 2**s): v[:, :h] + v[:, h:] until one column is
    left."""
    while v.shape[1] > 1:
        h = v.shape[1] // 2
        v = v[:, :h] + v[:, h:]
    return v[:, 0]


def softplus(v):
    """ln(1 + e^v), as ln(1 + e^-|v|) + max(v, 0)."""
    return np.log1p(np.exp(-np.abs(v))) + np.maximum(v, 0.0)


def node_order_scl(spec, llrs, list_size):
    """SCL on the decoding tree, node by node, recursively.

    A mixed node is split by an f- and a g-update; rate-0, repetition and
    rate-1 nodes are decided whole.  A node with path LLRs alpha adds
    sum_j ln(1 + exp(-(1 - 2x_j) alpha_j)) of its codeword x to the path
    metric, summed by halving.  A repetition node gives each path its two
    codewords.  A rate-1 node adds sum_j ln(1 + e^-|alpha_j|), takes the
    hard decision and then, for t < min(L - 1, N_v), gives each path a
    second candidate with its t-th least reliable bit flipped, at |alpha|
    of that bit more.  Every fork keeps the L best of the 2L candidates
    (stable sort, the unflipped first) and gathers every per-path array at
    once.  The channel LLRs are repeated per path.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    fsz, n = llrs.shape
    rows = fsz * list_size
    base = np.arange(fsz)[:, None] * list_size
    pm = np.full((fsz, list_size), np.inf)
    pm[:, 0] = 0.0
    state = {"pm": pm}

    def fork(first, second):
        cand = np.concatenate([first, second], axis=1)
        order = np.argsort(cand, axis=1, kind="stable")[:, :list_size]
        state["pm"] = np.take_along_axis(cand, order, axis=1)
        return (base + order % list_size).ravel(), (order >= list_size).ravel()

    def metric(v):
        return halving_sum(v).reshape(fsz, list_size)

    def decode(alpha, lo):
        """(codewords, extended rows) of the node at leaves lo.. with path
        LLRs alpha (rows, N_v)."""
        nv = alpha.shape[1]
        kind = node_kind(spec.frozen, lo, lo + nv)
        pm = state["pm"]
        if kind == "mixed":
            h = nv // 2
            x_left, sel = decode(boxplus(alpha[:, :h], alpha[:, h:]), lo)
            alpha = alpha[sel]
            x_right, sel_right = decode(
                (1.0 - 2.0 * x_left) * alpha[:, :h] + alpha[:, h:], lo + h)
            x_left = x_left[sel_right]
            return np.concatenate([x_left ^ x_right, x_right], axis=1), sel[sel_right]
        if kind == "rate-0":
            state["pm"] = pm + metric(softplus(-alpha))
            return np.zeros((rows, nv), np.uint8), np.arange(rows)
        if kind == "repetition":
            sel, one = fork(pm + metric(softplus(-alpha)), pm + metric(softplus(alpha)))
            return np.repeat(one[:, None], nv, axis=1).astype(np.uint8), sel
        state["pm"] = pm + metric(np.log1p(np.exp(-np.abs(alpha))))
        x = (alpha < 0).astype(np.uint8)
        mag = np.abs(alpha)
        least = np.argsort(mag, axis=1, kind="stable")
        sel = np.arange(rows)
        for t in range(min(list_size - 1, nv)):
            flip_cost = mag[np.arange(rows), least[:, t]].reshape(fsz, list_size)
            parent, flip = fork(state["pm"], state["pm"] + flip_cost)
            x, mag, least, sel = x[parent], mag[parent], least[parent], sel[parent]
            x[np.arange(rows), least[:, t]] ^= flip
        return x, sel

    x, _ = decode(np.repeat(llrs, list_size, axis=0), 0)
    order = np.argsort(state["pm"], axis=1, kind="stable")
    x = x[(base + order).ravel()].reshape(fsz, list_size, n)
    return polar_transform(x), x, np.take_along_axis(state["pm"], order, axis=1)


# ---------------------------------------------------------------------------
# codes and inputs

def random_decreasing(m, rng):
    """Code whose information set is the down-set of a few random monomials."""
    tops = rng.integers(0, 1 << m, size=int(rng.integers(1, 4)))
    info = [any(monomial_leq(index_to_monomial_mask(i, m), int(t), m) for t in tops)
            for i in range(1 << m)]
    return polar_code(m, ~np.array(info))


def random_pattern(m, rng):
    return polar_code(m, rng.random(1 << m) < rng.uniform(0.2, 0.8))


def edge_codes():
    return [rm_code(0, 0), rm_code(0, 1), rm_code(1, 1),
            polar_code(0, [True]), polar_code(1, [True, True]),
            polar_code(1, [False, True]), polar_code(4, np.ones(16, bool)),
            polar_code(4, np.zeros(16, bool))]


def oracle_codes():
    rng = np.random.default_rng(2024)
    codes = [rm_code(r, m) for m in range(9) for r in range(m + 1)]
    codes += [random_decreasing(m, rng) for m in (3, 5, 6, 7, 8) for _ in range(3)]
    codes += [random_pattern(m, rng) for m in (2, 4, 6, 8) for _ in range(3)]
    return codes + edge_codes()


def oracle_inputs(spec, rows, rng):
    """(name, llrs) for noisy codewords at three SNRs, pure N(0, 2) noise and
    saturated +-L_MAX codewords with 5% of their signs flipped."""
    x = encode(spec, rng.integers(0, 2, (rows, spec.k), dtype=np.uint8))
    bpsk = 1.0 - 2.0 * x
    out = []
    for ebn0_db in (1.0, 3.0, 5.0):
        sigma = 1.0 / np.sqrt(2.0 * max(spec.rate, 1 / spec.n) * 10 ** (ebn0_db / 10))
        y = bpsk + rng.normal(0.0, sigma, x.shape)
        out.append((f"{ebn0_db}dB", saturate(2.0 * y / sigma ** 2)))
    out.append(("noise", rng.normal(0.0, 2.0, x.shape)))
    flips = np.where(rng.random(x.shape) < 0.05, -1.0, 1.0)
    out.append(("saturated", L_MAX * bpsk * flips))
    return out


# ---------------------------------------------------------------------------
# SC

def test_random_decreasing_sets_are_decreasing():
    rng = np.random.default_rng(2024)
    assert all(is_decreasing(random_decreasing(m, rng)) for m in (3, 5, 6, 7, 8))


def test_sc_matches_leaf_order_reference():
    rng = np.random.default_rng(77)
    checked = 0
    ties = 0
    for spec in oracle_codes():
        for name, llrs in oracle_inputs(spec, 60, rng):
            u_ref, x_ref, tie = leaf_order_sc(spec, llrs)
            u, x = sc_decode_batch(spec, llrs)
            clean = ~tie
            assert np.array_equal(x[clean], x_ref[clean]), (spec.label, name)
            assert np.array_equal(u[clean], u_ref[clean]), (spec.label, name)
            checked += int(clean.sum())
            ties += int(tie.sum())
    # ties are rare outside rate-1 codes, so the comparison is not vacuous
    assert checked > 9 * ties


def test_sc_rate_one_tie_takes_the_hard_decision():
    # on a tie the pruned kernel takes the hard decision of the node LLRs
    spec = rm_code(1, 1)
    u, x = sc_decode_batch(spec, np.array([[0.0, -5.0]]))
    u_ref, x_ref, tie = leaf_order_sc(spec, np.array([[0.0, -5.0]]))
    assert x.tolist() == [[0, 1]] and x_ref.tolist() == [[1, 1]] and tie[0]
    assert np.array_equal(u, u_ref ^ np.array([[1, 0]], np.uint8))


def test_sc_rate_one_code_is_hard_decision():
    # leaf order loses boxplus signs on these codes from m = 5 on
    rng = np.random.default_rng(78)
    for m in range(9):
        spec = rm_code(m, m)
        llrs = rng.normal(0.0, 2.0, (50, spec.n))
        _, x = sc_decode_batch(spec, llrs)
        assert np.array_equal(x, (llrs < 0).astype(np.uint8))


def count_ops(spec):
    ops = [op for op, *_ in _sc_schedule(spec.frozen.tobytes())]
    return (ops.count(_F), ops.count(_G),
            ops.count(_RATE1) + ops.count(_REP))


def test_sc_schedule_counts_rm48():
    # leaf order makes 255 f- and 255 g-updates on N = 256
    assert count_ops(rm_code(4, 8)) == (69, 69, 70)


def test_sc_schedule_terminal_codes():
    assert count_ops(rm_code(0, 6)) == (0, 0, 1)    # one repetition node
    assert count_ops(rm_code(6, 6)) == (0, 0, 1)    # one rate-1 node
    assert count_ops(polar_code(3, np.ones(8, bool))) == (0, 0, 0)


# ---------------------------------------------------------------------------
# SCL

@pytest.mark.parametrize("r,m", [(2, 5), (3, 7), (4, 8)])
@pytest.mark.parametrize("list_size", [1, 2, 8, 32])
def test_scl_matches_node_order_reference(r, m, list_size):
    spec = rm_code(r, m)
    rng = np.random.default_rng(79 + m + list_size)
    rows = 12 if list_size == 32 else 24
    for name, llrs in oracle_inputs(spec, rows, rng):
        got = scl_decode_batch(spec, llrs, list_size)
        want = node_order_scl(spec, llrs, list_size)
        for a, b in zip(got, want):
            assert np.array_equal(a, b), (name, list_size)


def test_scl_matches_node_order_reference_on_other_codes():
    rng = np.random.default_rng(80)
    for spec in oracle_codes():
        if spec.m > 6:
            continue
        for name, llrs in oracle_inputs(spec, 8, rng):
            got = scl_decode_batch(spec, llrs, 4)
            want = node_order_scl(spec, llrs, 4)
            for a, b in zip(got, want):
                assert np.array_equal(a, b), (spec.label, name)


def noisy_frames(spec, ebn0_db, rows, rng):
    x = encode(spec, rng.integers(0, 2, (rows, spec.k), dtype=np.uint8))
    sigma = 1.0 / np.sqrt(2.0 * spec.rate * 10 ** (ebn0_db / 10))
    return 2.0 * (1.0 - 2.0 * x + rng.normal(0.0, sigma, x.shape)) / sigma ** 2


@pytest.mark.parametrize("decoder", [scl_decode_batch, leaf_order_scl])
@pytest.mark.parametrize("r,m", [(2, 5), (3, 7), (4, 8)])
def test_scl_metric_is_the_codeword_likelihood(decoder, r, m):
    # -ln P(x | y) = sum_i ln(1 + exp(-(1 - 2x_i) lambda_i)), which both
    # schedules accumulate exactly up to rounding
    spec = rm_code(r, m)
    rng = np.random.default_rng(81 + m)
    for ebn0_db in (1.0, 2.5):
        llrs = noisy_frames(spec, ebn0_db, 16, rng)
        _, x, pm = decoder(spec, llrs, 8)
        want = softplus(-(1.0 - 2.0 * x) * llrs[:, None]).sum(axis=2)
        finite = np.isfinite(pm)
        assert finite.any()
        err = np.abs(pm - want)[finite]
        assert np.all(err <= 1e-12 * want[finite]), (ebn0_db, decoder)


@pytest.mark.parametrize("list_size", [8, 32])
def test_scl_best_path_matches_leaf_order_on_noisy_frames(list_size):
    spec = rm_code(4, 8)
    llrs = noisy_frames(spec, 2.5, 48, np.random.default_rng(82))
    _, x, _ = scl_decode_batch(spec, llrs, list_size)
    _, x_ref, _ = leaf_order_scl(spec, llrs, list_size)
    assert np.array_equal(x[:, 0], x_ref[:, 0])
