"""SC, SCL and BP decoder behaviour, kernels and exact symmetries."""

import gc
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from aedcodes import (L_MAX, Bp, Sc, Scl, boxplus, bp_decode_batch,
                      compile_tables, decode_branches, encode,
                      enumerate_codebook, in_code, polar_code,
                      rm_code, sample, sc_decode_batch, scl_decode_batch,
                      polar_transform)
from aedcodes import decoders
from aedcodes.decoders import (CHUNK_ROWS, _boxplus_into, _Forks, _g_update,
                               _ScPlan)
from test_decoder_oracles import leaf_order_sc, random_decreasing
from test_pinned_sc import pinned_batch


def noiseless_llrs(codewords):
    return L_MAX * (1.0 - 2.0 * np.asarray(codewords, dtype=np.float64))


# ---------------------------------------------------------------------------
# boxplus kernel

def test_boxplus_against_direct_formula():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.normal(0, 3, 2)
        direct = np.log((np.exp(a + b) + 1.0) / (np.exp(a) + np.exp(b)))
        assert abs(boxplus(a, b) - direct) < 1e-12


def test_boxplus_known_value():
    assert abs(boxplus(2.0, 3.0) - 1.6936) < 5e-4


def test_boxplus_erasure_and_certainty():
    rng = np.random.default_rng(1)
    for a in rng.normal(0, 5, 20):
        assert boxplus(a, 0.0) == 0.0
        assert abs(boxplus(a, 500.0) - a) < 1e-12


def test_boxplus_symmetry_and_bounds():
    rng = np.random.default_rng(2)
    a = rng.normal(0, 4, 500)
    b = rng.normal(0, 4, 500)
    ab = boxplus(a, b)
    assert np.array_equal(ab, boxplus(b, a))
    assert np.all(np.sign(ab) == np.sign(a) * np.sign(b))
    assert np.all(np.abs(ab) <= np.minimum(np.abs(a), np.abs(b)) + 1e-12)


def test_boxplus_exactly_odd():
    # sign flips of either input negate the output bit-exactly; the
    # permutation commutation checks depend on this
    rng = np.random.default_rng(3)
    a = rng.normal(0, 4, 200)
    b = rng.normal(0, 4, 200)
    assert np.array_equal(boxplus(-a, b), -boxplus(a, b))
    assert np.array_equal(boxplus(a, -b), -boxplus(a, b))


# ---------------------------------------------------------------------------
# SC

def test_sc_all_positive_gives_zero():
    spec = rm_code(2, 5)
    u, x = sc_decode_batch(spec, np.full((1, spec.n), L_MAX))
    assert not u.any() and not x.any()


def test_sc_noiseless_exhaustive_rm24():
    spec = rm_code(2, 4)
    cb = enumerate_codebook(spec)
    u, x = sc_decode_batch(spec, noiseless_llrs(cb))
    assert np.array_equal(x, cb)
    assert np.array_equal(encode(spec, u[:, spec.info_indices]), cb)


def test_sc_output_is_always_a_codeword():
    rng = np.random.default_rng(4)
    for r, m in [(1, 3), (2, 4), (2, 6), (3, 8)]:
        spec = rm_code(r, m)
        _, x = sc_decode_batch(spec, rng.normal(0, 2, (40, spec.n)))
        for row in x:
            assert in_code(spec, row)


def test_sc_length_mismatch():
    with pytest.raises(ValueError, match="N=8"):
        sc_decode_batch(rm_code(1, 3), np.zeros((1, 4)))


def test_sc_output_independent_of_input_layout():
    # decode_branches scatters through x.ravel(), so every input layout must
    # give C-contiguous uint8 rows, and the caller's array is only read.  SC
    # reads its channel stage as a view of the input and SCL reads it per
    # frame, so both are checked, SCL at list size 4
    spec = rm_code(3, 7)
    rng = np.random.default_rng(15)
    big = rng.normal(0.5, 2.0, (2 * 37, spec.n)).astype(np.float32).astype(np.float64)
    big[::5, ::3] = 0.0
    llrs = np.ascontiguousarray(big[::2])
    inputs = {"c": llrs, "fortran": np.asfortranarray(llrs), "row-strided": big[::2],
              "float32": llrs.astype(np.float32), "list": llrs.tolist()}
    before = {name: np.array(arr, copy=True) for name, arr in inputs.items()}
    u_ref, x_ref = sc_decode_batch(spec, llrs.copy())
    assert np.array_equal(u_ref, polar_transform(x_ref))
    scl_ref = scl_decode_batch(spec, llrs.copy(), 4)
    for name, arr in inputs.items():
        u, x = sc_decode_batch(spec, arr)
        for out, ref in ((u, u_ref), (x, x_ref)):
            assert out.dtype == np.uint8 and out.shape == (37, spec.n), name
            assert out.flags.c_contiguous, name
            assert np.array_equal(out, ref), name
        assert np.array_equal(np.asarray(arr), before[name]), name
        outs = scl_decode_batch(spec, arr, 4)
        for out, ref in zip(outs, scl_ref):
            assert out.dtype == ref.dtype and out.shape == ref.shape, name
            assert np.array_equal(out, ref), name
        assert np.array_equal(np.asarray(arr), before[name]), name


def test_sc_does_not_copy_its_input():
    # The kernel's plan holds per row of N LLRs (8N bytes): the workspaces
    # of stages 0..m-1, 8(N-1) bytes; the scratch of boxplus and the sign
    # indices, 8N bytes; and the codeword, N bytes.  At its peak x_hat, N
    # bytes, is copied out while the plan is alive: about 2.25 times
    # llrs.nbytes (tracemalloc reads 2.26; u_hat comes after the plan, not
    # kept at this many rows, is freed).  A copy of the channel stage
    # would add 1 more.
    spec = rm_code(4, 8)
    llrs = np.random.default_rng(16).normal(1.0, 2.0, (8192, spec.n))
    tracemalloc.start()
    try:
        sc_decode_batch(spec, llrs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * llrs.nbytes


def test_sc_float32_holds_its_sign_index_in_the_scratch():
    # In float32 the plan holds 9 N bytes per row: stages 0..m-1 and the
    # scratch, 4(N-1) and 4N, and the codeword, N.  The g-update's intp
    # sign index lives in the bytes of the scratch's first 2h rows; at its
    # peak x_hat is copied out too, so about 2.5 times llrs.nbytes
    # (tracemalloc reads 2.53).  An index allocated apart from the scratch
    # (8 bytes per entry, h = N/2 rows) would add 1 more, and so would a
    # copy of the float32 channel stage.
    spec = rm_code(4, 8)
    llrs = np.random.default_rng(16).normal(1.0, 2.0, (8192, spec.n)).astype(np.float32)
    tracemalloc.start()
    try:
        sc_decode_batch(spec, llrs, dtype=np.float32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * llrs.nbytes


# ---------------------------------------------------------------------------
# SC plans: one compiled schedule kept across calls

@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_boxplus_into_rounds_as_its_stable_formula(dtype):
    # _boxplus_into (run by SCL, BP and boxplus) and SC's plans share one
    # listing of calls, _boxplus_steps; its merged passes over the two
    # temporaries must round as the formula written out, in BP's float32 too
    rng = np.random.default_rng(19)
    a, b = rng.normal(0.0, 4.0, (2, 64, 16)).astype(dtype)
    a[::7] = 0.0
    a[1::9] = -0.0
    b[::5] = L_MAX
    b[2::11] = -3e13
    s, d = np.abs(a + b), np.abs(a - b)
    ref = (s - d) * 0.5 + (np.log1p(np.exp(-s)) - np.log1p(np.exp(-d)))
    out = _boxplus_into(a, b, np.empty_like(a))
    assert ref.dtype == out.dtype == dtype
    assert out.tobytes() == ref.tobytes()


def plan_cases():
    """(spec, llrs) at 1, 3, 128 and 600 rows for RM(4,8) and a random
    decreasing code of length 64 with rate-0, rate-1, repetition and mixed
    nodes."""
    rng = np.random.default_rng(20)
    codes = [rm_code(4, 8), random_decreasing(6, np.random.default_rng(23))]
    cases = []
    for rows in (1, 3, 128, 600):
        for spec in codes:
            cases.append((spec, rng.normal(1.0, 2.5, (rows, spec.n))))
    return cases


_FRESH_DECODE = """
import sys
import numpy as np
from aedcodes import polar_code, sc_decode_batch
cases = np.load(sys.argv[1])
outs = {}
for i in reversed(range(len(cases.files) // 2)):
    spec = polar_code(int(cases[f"m{i}"].size).bit_length() - 1, cases[f"m{i}"])
    outs[f"u{i}"], outs[f"x{i}"] = sc_decode_batch(spec, cases[f"l{i}"], sys.argv[3])
np.savez(sys.argv[2], **outs)
"""


def fresh_decodes(tmp_path, cases, dtype):
    """u{i} and x{i} of each (spec, llrs) case, SC-decoded in `dtype` by a
    new process that decodes each case once, last case first."""
    np.savez(tmp_path / f"cases-{dtype}.npz",
             **{f"m{i}": spec.frozen for i, (spec, _) in enumerate(cases)},
             **{f"l{i}": llrs for i, (_, llrs) in enumerate(cases)})
    subprocess.run([sys.executable, "-c", _FRESH_DECODE, str(tmp_path / f"cases-{dtype}.npz"),
                    str(tmp_path / f"fresh-{dtype}.npz"), dtype],
                   check=True, env=dict(os.environ))
    return np.load(tmp_path / f"fresh-{dtype}.npz")


def test_sc_plans_under_alternating_keys_match_oracle_and_fresh_process(tmp_path):
    # every call with a new key builds a plan and every repeated key reuses
    # the kept one; neither may change a bit against leaf order or against
    # a process that decodes each case once
    cases = plan_cases()
    fresh = fresh_decodes(tmp_path, cases, "float64")
    refs = [leaf_order_sc(spec, llrs) for spec, llrs in cases]
    for _ in range(2):
        for i, (spec, llrs) in enumerate(cases):
            for _ in range(2):
                u, x = sc_decode_batch(spec, llrs)
                assert np.array_equal(u, fresh[f"u{i}"]) and np.array_equal(x, fresh[f"x{i}"])
                u_ref, x_ref, tie = refs[i]
                assert np.array_equal(u[~tie], u_ref[~tie]), (spec.label, len(llrs))
                assert np.array_equal(x[~tie], x_ref[~tie]), (spec.label, len(llrs))
    assert sum(int((~tie).sum()) for *_, tie in refs) > 9 * sum(int(tie.sum()) for *_, tie in refs)


def test_sc_plans_of_alternating_dtypes_match_fresh_process(tmp_path):
    # float64 and float32 calls on one (frozen, rows) each run the plan of
    # their own dtype: a call that reused the other's would round in the
    # other precision.  The pinned 128-row RM(4,8) batch decodes
    # differently in the two on some rows, so the mix-up would show
    spec = rm_code(4, 8)
    llrs = pinned_batch(spec, 128)
    fresh = {dtype: fresh_decodes(tmp_path, [(spec, llrs)], dtype)
             for dtype in ("float64", "float32")}
    assert not np.array_equal(fresh["float64"]["x0"], fresh["float32"]["x0"])
    for dtype in ("float64", "float32", "float32", "float64", "float32", "float64"):
        u, x = sc_decode_batch(spec, llrs, dtype=dtype)
        assert np.array_equal(u, fresh[dtype]["u0"]), dtype
        assert np.array_equal(x, fresh[dtype]["x0"]), dtype
        assert decoders._kept_plan[0] == (spec.frozen.tobytes(), len(llrs),
                                          np.dtype(dtype))


def test_sc_results_do_not_alias_the_kept_plan():
    rng = np.random.default_rng(22)
    for spec, rows in [(rm_code(4, 8), 1), (rm_code(2, 5), 5)]:
        llrs = rng.normal(1.0, 2.0, (rows, spec.n))
        u_ref, x_ref = (a.copy() for a in sc_decode_batch(spec, llrs))
        u, x = sc_decode_batch(spec, llrs)
        assert not np.shares_memory(x, decoders._kept_plan[1].x)
        u ^= 1
        x ^= 1
        u, x = sc_decode_batch(spec, llrs)
        assert np.array_equal(u, u_ref) and np.array_equal(x, x_ref)


def test_sc_concurrent_calls_match_single_thread():
    # a plan is taken out of the cache while it runs; threads sharing one
    # would overwrite each other's workspaces.  Three threads decode
    # same-shape batches, 200 calls each, with thread switches forced often
    spec = rm_code(4, 8)
    batches = np.random.default_rng(23).normal(1.0, 2.0, (3, 16, spec.n))
    refs = [sc_decode_batch(spec, llrs) for llrs in batches]
    wrong = [0] * len(batches)
    done = [0] * len(batches)
    start = threading.Barrier(len(batches))

    def decode(t):
        start.wait()
        for _ in range(200):
            u, x = sc_decode_batch(spec, batches[t])
            wrong[t] += not (np.array_equal(u, refs[t][0]) and np.array_equal(x, refs[t][1]))
            done[t] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=decode, args=(t,)) for t in range(len(batches))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert done == [200] * len(batches) and wrong == [0] * len(batches)


def test_sc_keeps_the_plan_of_the_last_call_up_to_chunk_rows():
    spec = rm_code(3, 6)
    rng = np.random.default_rng(24)
    sc_decode_batch(spec, rng.normal(0.0, 2.0, (CHUNK_ROWS, spec.n)))
    key, plan = decoders._kept_plan
    assert key == (spec.frozen.tobytes(), CHUNK_ROWS, np.dtype(np.float64))
    sc_decode_batch(spec, rng.normal(0.0, 2.0, (CHUNK_ROWS, spec.n)))
    assert decoders._kept_plan[1] is plan  # reused, not rebuilt
    sc_decode_batch(spec, rng.normal(0.0, 2.0, (CHUNK_ROWS + 1, spec.n)))
    assert decoders._kept_plan is None


def test_sc_keeps_at_most_one_plan():
    for spec, llrs in plan_cases() + plan_cases()[::-1]:
        sc_decode_batch(spec, llrs)
        gc.collect()
        assert sum(isinstance(o, _ScPlan) for o in gc.get_objects()) <= 1
    assert decoders._kept_plan[0] == (spec.frozen.tobytes(), len(llrs),
                                      np.dtype(np.float64))


def test_scl_holds_no_per_path_copy_of_its_input():
    # In units of F*L*N*8 bytes (one float64 LLR per path and code bit), the
    # kernel holds the LLR workspaces of stages 0..m-1, (N-1)/N, and the
    # uint8 codewords of left children and of the node being combined,
    # about 0.2.  At its peak one of 0.5 more: the second copy of stage m-1
    # that a read through its column map gathers, the two quarter-stage
    # temporaries of the f-update out of it, or the sign lookup's intp
    # index in the g-update into it.  That is about 1.7 units (tracemalloc
    # reads 1.67).  A per-path copy of the channel stage would add 1, and
    # float sign arrays about 0.5.
    spec = rm_code(4, 8)
    fsz, lsize = 64, 32
    llrs = np.random.default_rng(17).normal(1.0, 2.0, (fsz, spec.n))
    tracemalloc.start()
    try:
        scl_decode_batch(spec, llrs, lsize)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * fsz * lsize * spec.n * 8


def test_g_update_looks_its_signs_up_into_out():
    # take still converts the uint8 bits to an intp index, out's size in
    # float64, and nothing else is allocated; an int8 sign array with its
    # float64 conversion, or float sign arrays, would add an eighth or more.
    rng = np.random.default_rng(18)
    upper, lower = rng.normal(0.0, 2.0, (2, 2048, 128))
    bits = rng.integers(0, 2, (2048, 128), dtype=np.uint8)
    out = np.empty((2048, 128))
    _g_update(upper, lower, bits, out)  # first call outside the trace
    tracemalloc.start()
    try:
        _g_update(upper, lower, bits, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * out.nbytes
    assert np.array_equal(out, (1.0 - 2.0 * bits) * upper + lower)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sc_sign_flip_linearity(dtype):
    spec = rm_code(3, 7)
    rng = np.random.default_rng(5)
    llrs = rng.normal(0, 2, (100, spec.n))
    msgs = rng.integers(0, 2, (100, spec.k), dtype=np.uint8)
    cws = encode(spec, msgs)
    _, x_flip = sc_decode_batch(spec, llrs * (1.0 - 2.0 * cws), dtype)
    _, x_plain = sc_decode_batch(spec, llrs, dtype)
    assert np.array_equal(x_flip, x_plain ^ cws)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sc_lta_commutation_various_codes(dtype):
    rng = np.random.default_rng(6)
    for r, m in [(1, 4), (3, 6), (4, 8)]:
        spec = rm_code(r, m)
        for _ in range(30):
            table = compile_tables([sample(m, "lta", rng)])[0]
            llr = rng.normal(0, 2, spec.n)
            _, xp = sc_decode_batch(spec, llr[None, table], dtype)
            _, x0 = sc_decode_batch(spec, llr[None, :], dtype)
            assert np.array_equal(xp[0], x0[0][table])


def test_lta_preserves_msb_separation():
    # images of index pairs differing only in the top bit still differ only
    # in the top bit, exhaustively over all indices
    rng = np.random.default_rng(7)
    for m in range(2, 7):
        half = 1 << (m - 1)
        for _ in range(20):
            table = compile_tables([sample(m, "lta", rng)])[0]
            lowers = table[np.arange(half)]
            uppers = table[np.arange(half) + half]
            assert np.all(np.abs(lowers - uppers) == half)


# ---------------------------------------------------------------------------
# SCL

def test_scl_list_one_is_sc():
    # both decide rate-1 and repetition nodes whole, SC by the hard
    # decision and the sign of the folded LLRs, SCL-1 by its two metrics
    rng = np.random.default_rng(8)
    for r, m, rows in [(2, 5, 10000), (3, 7, 2000), (4, 8, 1000)]:
        spec = rm_code(r, m)
        llrs = rng.normal(0, 2, (rows, spec.n))
        u1, x1 = sc_decode_batch(spec, llrs)
        u2, x2, _ = scl_decode_batch(spec, llrs, 1)
        assert np.array_equal(x1, x2[:, 0]) and np.array_equal(u1, u2[:, 0])


def test_scl_noiseless_metric_zero():
    # with saturated (finite) certainties the exact metric is a sum of
    # log1p(exp(-|L|)) residues, zero to double precision
    spec = rm_code(2, 4)
    cw = enumerate_codebook(spec)[77]
    _, x, pm = scl_decode_batch(spec, noiseless_llrs(cw)[None], 4)
    assert np.array_equal(x[0, 0], cw)
    assert 0.0 <= pm[0, 0] < 1e-12
    assert np.all(pm[0, :-1] <= pm[0, 1:])


def test_scl_candidates_are_codewords_and_consistent():
    spec = rm_code(2, 5)
    rng = np.random.default_rng(9)
    for _ in range(10):
        u, x, pm = scl_decode_batch(spec, rng.normal(0, 2, (1, spec.n)), 8)
        assert x.shape == (1, 8, spec.n) and pm.shape == (1, 8)
        for u_hat, x_hat in zip(u[0], x[0]):
            assert in_code(spec, x_hat)
            assert np.array_equal(encode(spec, u_hat[spec.info_indices]), x_hat)
        assert np.all(pm >= 0.0)


def test_scl_matches_ml_oracle_rm13():
    spec = rm_code(1, 3)
    cb = enumerate_codebook(spec)
    rng = np.random.default_rng(10)
    signs = 1.0 - 2.0 * cb
    for _ in range(300):
        msg = rng.integers(0, 2, spec.k, dtype=np.uint8)
        y = (1.0 - 2.0 * encode(spec, msg)) + rng.normal(0, 0.9, spec.n)
        best = scl_decode_batch(spec, 2.0 * y[None] / 0.81, 1 << spec.k)[1][0, 0]
        ml = cb[np.argmax(signs @ y)]
        assert np.array_equal(best, ml)


def test_scl_doubling_never_hurts_best_metric():
    spec = rm_code(2, 5)
    rng = np.random.default_rng(11)
    llrs = rng.normal(0, 1.5, (50, spec.n))
    for lsize in (1, 2, 4, 8):
        _, _, pm_small = scl_decode_batch(spec, llrs, lsize)
        _, _, pm_big = scl_decode_batch(spec, llrs, 2 * lsize)
        assert np.all(pm_big[:, 0] <= pm_small[:, 0] + 1e-12)


def test_forks_keep_is_a_stable_sort_that_keeps_a_sorted_list_as_it_is():
    # keep takes each frame's L least of (metric, second?, path) and returns
    # them ascending, so a second tied with a first loses; on a sorted first
    # whose seconds cost at least its frame's last metric it changes
    # nothing, which lets SCL's rate-1 forks stop without calling it
    rng = np.random.default_rng(20)
    fsz, lsize = 6, 4
    forks = _Forks(fsz, lsize)
    base = np.arange(fsz)[:, None] * lsize
    levels = np.array([0.0, 1.0, 2.0, 3.0, np.inf])  # integers tie often
    for _ in range(200):
        first, second = levels[rng.integers(0, 5, (2, fsz, lsize))]
        pm, path, is_second = forks.keep(first, second)
        path, is_second = path.reshape(fsz, lsize), is_second.reshape(fsz, lsize)
        assert np.all(pm[:, :-1] <= pm[:, 1:])
        for f in range(fsz):
            cand = sorted([(v, 0, i) for i, v in enumerate(first[f])]
                          + [(v, 1, i) for i, v in enumerate(second[f])])[:lsize]
            assert pm[f].tolist() == [v for v, _, _ in cand]
            assert is_second[f].tolist() == [bool(s) for _, s, _ in cand]
            assert (path[f] - base[f]).tolist() == [i for _, _, i in cand]
        first.sort(axis=1)
        second = first[:, -1:] + levels[rng.integers(0, 5, (fsz, lsize))]
        pm, path, is_second = forks.keep(first, second)
        assert np.array_equal(pm, first) and not is_second.any()
        assert np.array_equal(path.reshape(fsz, lsize), base + np.arange(lsize))


def test_scl_short_code_pads_with_unused_slots():
    spec = rm_code(0, 2)  # k = 1, only two codewords
    _, _, pm = scl_decode_batch(spec, np.array([[1.0, -2.0, 0.5, 3.0]]), 8)
    assert np.count_nonzero(np.isfinite(pm)) == 2


def test_scl_parameter_errors():
    with pytest.raises(ValueError, match="list_size must be >= 1, got 0"):
        scl_decode_batch(rm_code(1, 3), np.zeros((1, 8)), 0)
    with pytest.raises(ValueError, match="N=8"):
        scl_decode_batch(rm_code(1, 3), np.zeros((1, 4)), 2)


# ---------------------------------------------------------------------------
# BP

def test_bp_noiseless_converges_first_iteration():
    spec = rm_code(2, 4)
    cw = enumerate_codebook(spec)[33]
    _, x, iters, conv = bp_decode_batch(spec, noiseless_llrs(cw)[None], 50, True)
    assert conv[0] and iters[0] == 1
    assert np.array_equal(x[0], cw)


def test_bp_converged_implies_reencoding_identity():
    spec = rm_code(2, 5)
    rng = np.random.default_rng(12)
    llrs = rng.normal(0.8, 1.6, (300, spec.n))
    u, x, iters, conv = bp_decode_batch(spec, llrs, 30, True)
    assert conv.any() and not conv.all()
    assert np.array_equal(polar_transform(u[conv]), x[conv])
    assert np.all(iters[~conv] == 30)
    assert np.all(iters[conv] >= 1)


def test_bp_no_stopping_runs_to_cap():
    spec = rm_code(1, 4)
    rng = np.random.default_rng(13)
    llrs = rng.normal(0, 2, (20, spec.n))
    u, x, iters, conv = bp_decode_batch(spec, llrs, 7, False)
    assert np.all(iters == 7) and not conv.any()


def test_bp_batch_independent_of_batching():
    spec = rm_code(2, 5)
    rng = np.random.default_rng(14)
    llrs = rng.normal(0.5, 1.8, (40, spec.n))
    u_all, x_all, it_all, cv_all = bp_decode_batch(spec, llrs, 25, True)
    for i in (0, 7, 23):
        u1, x1, it1, cv1 = bp_decode_batch(spec, llrs[i:i + 1], 25, True)
        assert np.array_equal(x1[0], x_all[i]) and it1[0] == it_all[i]


def test_bp_decodes_length_one_codes():
    """m = 0 leaves BP no stage to update: a row's decision is its channel
    LLR's sign, or the frozen prior's."""
    llrs = np.array([[-1.0], [2.0]])
    for spec, want in ((rm_code(0, 0), [[1], [0]]), (polar_code(0, [True]), [[0], [0]])):
        for stopping, iters in ((True, 1), (False, 5)):
            u, x, it, conv = bp_decode_batch(spec, llrs, 5, stopping)
            assert u.tolist() == x.tolist() == want
            assert it.tolist() == [iters] * 2 and conv.tolist() == [stopping] * 2


def test_bp_parameter_errors():
    with pytest.raises(ValueError, match="max_iters must be >= 1, got 0"):
        bp_decode_batch(rm_code(1, 3), np.zeros((1, 8)), 0, True)
    with pytest.raises(ValueError, match="N=8"):
        bp_decode_batch(rm_code(1, 3), np.zeros((1, 4)), 5, True)
    # the parameters are checked before any workspace is sized for the rows
    with pytest.raises(ValueError, match="max_iters must be >= 1, got 0"):
        bp_decode_batch(rm_code(1, 3), np.zeros((3000, 8)), 0, True)


KERNELS = {
    "sc": sc_decode_batch,
    "scl": lambda spec, llrs: scl_decode_batch(spec, llrs, 2),
    "bp": lambda spec, llrs: bp_decode_batch(spec, llrs, 5, True),
}


@pytest.mark.parametrize("shape", [(8,), (1, 4), (3, 16), (2, 1, 8)],
                         ids=["1d", "narrow", "wide", "3d"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernels_take_only_rows_of_n_llrs(kernel, shape):
    """Every decoder takes a 2-D batch of N-wide LLR rows; a single frame
    is a batch of one, llr[None]."""
    with pytest.raises(ValueError, match=r"N=8\b"):
        KERNELS[kernel](rm_code(1, 3), np.zeros(shape))


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernels_decode_zero_rows(kernel):
    # SCL returns its L slots of no frames, (0, L, N) twice and (0, L)
    spec = rm_code(2, 5)
    outs = KERNELS[kernel](spec, np.zeros((0, spec.n)))
    want = (0, 2, spec.n) if kernel == "scl" else (0, spec.n)
    assert outs[0].shape == outs[1].shape == want
    assert outs[0].dtype == outs[1].dtype == np.uint8
    for per_row in outs[2:]:  # SCL's metrics, BP's iterations and convergence
        assert per_row.shape == want[:-1]


def test_decode_branches_with_scl_on_zero_frames():
    spec = rm_code(2, 5)
    tables = compile_tables([sample(5, "ga", np.random.default_rng(25)) for _ in range(3)])
    x, branch, iters, valid = decode_branches(spec, np.zeros((0, spec.n)), tables, Scl(2))
    assert x.shape == (0, 6, spec.n)
    assert branch.shape == iters.shape == valid.shape == (0, 6)


def test_kernels_refuse_counts_that_are_not_integers():
    # the kernels check their counts as the configs do (check_count)
    spec, llrs = rm_code(1, 3), np.zeros((1, 8))
    for bad in (True, 2.0, "2"):
        with pytest.raises(TypeError, match="list_size must be an integer >= 1"):
            scl_decode_batch(spec, llrs, bad)
        with pytest.raises(TypeError, match="max_iters must be an integer >= 1"):
            bp_decode_batch(spec, llrs, bad, True)
    assert scl_decode_batch(spec, llrs, np.int64(2))[2].shape == (1, 2)
    assert bp_decode_batch(spec, llrs, np.int32(2), True)[2].shape == (1,)


def test_decoder_config_validation():
    with pytest.raises(ValueError):
        Scl(0)
    with pytest.raises(ValueError):
        Bp(max_iters=0)
    # a bool is no count: Scl(True) would describe itself as a list of True
    for bad in (True, 2.0, "4", None):
        with pytest.raises(TypeError, match="list_size"):
            Scl(bad)
        with pytest.raises(TypeError, match="max_iters"):
            Bp(max_iters=bad)
    for bad in ("no", 1, None):
        with pytest.raises(TypeError, match="stopping"):
            Bp(stopping=bad)
    assert Scl(np.int64(4)).list_size == 4 and not Bp(5, False).stopping
    assert Sc().kind == "sc" and Scl(4).kind == "scl" and Bp().kind == "bp"
