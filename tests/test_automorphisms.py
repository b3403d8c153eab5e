"""Affine automorphisms: compilation, group operations, sampling and the
triangular factorization."""

import math
from collections import Counter

import numpy as np
import pytest

import aedcodes.automorphisms as automorphisms
from aedcodes import (AffineAutomorphism, compile_tables, compose,
                      enumerate_codebook, format_automorphism, group_order,
                      identity_automorphism, in_code, inverse, mlup_decompose,
                      parse_automorphism, rm_code, sample, sample_ensemble)
from aedcodes.automorphisms import (full_rank_windows, is_invertible,
                                    mat_identity, mat_inv, mat_mul)


# ---------------------------------------------------------------------------
# oracles

def table_of(aut):
    """Compiled index table of one automorphism."""
    return compile_tables([aut])[0]


def all_invertible_matrices(m):
    found = []
    for bits in range(1 << (m * m)):
        rows = tuple((bits >> (m * j)) & ((1 << m) - 1) for j in range(m))
        if mat_inv(rows, m) is not None:
            found.append(rows)
    return found


def compile_brute(aut):
    """Evaluation of z'_j = b_j + sum_k A[j, k] z_k at every index, bit by
    bit (vectorised over the indices only)."""
    i = np.arange(1 << aut.m)
    out = np.zeros(1 << aut.m, dtype=np.int64)
    for j in range(aut.m):
        acc = np.full(i.shape, (aut.b >> j) & 1)
        for k in range(aut.m):
            acc ^= ((aut.rows[j] >> k) & 1) & ((i >> k) & 1)
        out |= acc << j
    return out


def sample_ga_scalar(m, rng):
    """One "ga" draw, one matrix at a time: redraw m rows until mat_inv
    accepts them, then draw b."""
    while True:
        rows = tuple(int(r) for r in rng.integers(0, 1 << m, size=m, dtype=np.int64))
        if mat_inv(rows, m) is not None:
            return AffineAutomorphism(m, rows, int(rng.integers(0, 1 << m)))


def sample_ensemble_scalar(m, subgroup, count, rng, dedupe=True,
                           include_identity=False):
    """The one-by-one sampling loop; dedupe compares compiled tables."""
    out, seen = [], set()
    if include_identity:
        out.append(identity_automorphism(m))
        seen.add(table_of(out[0]).tobytes())
    while len(out) < count:
        aut = sample_ga_scalar(m, rng) if subgroup == "ga" else sample(m, subgroup, rng)
        if dedupe:
            key = table_of(aut).tobytes()
            if key in seen:
                continue
            seen.add(key)
        out.append(aut)
    return out


def ensemble_counts(subgroup, m):
    order = group_order(subgroup, m)
    return sorted({1, 2, 7, 32} | ({order} if order <= 64 else set()))


# ---------------------------------------------------------------------------
# types

def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        AffineAutomorphism(2, (0b01, 0b01), 0)
    with pytest.raises(ValueError):
        AffineAutomorphism(2, (0b01,), 0)
    with pytest.raises(ValueError):
        AffineAutomorphism(2, (0b101, 0b10), 0)


def test_subgroup_predicates():
    lta = AffineAutomorphism(3, (0b001, 0b011, 0b111), 0b101)
    assert lta.is_lower_unitriangular and not lta.is_upper_unitriangular
    uta = AffineAutomorphism(3, (0b111, 0b110, 0b100), 0)
    assert uta.is_upper_unitriangular
    perm = AffineAutomorphism(3, (0b010, 0b100, 0b001), 0)
    assert perm.is_permutation
    assert not AffineAutomorphism(3, (0b010, 0b100, 0b001), 1).is_permutation
    assert lta.in_subgroup("lta") and lta.in_subgroup("ga")
    with pytest.raises(ValueError):
        lta.in_subgroup("nope")


# ---------------------------------------------------------------------------
# compile / apply

def test_compile_identity_and_offset():
    ident = identity_automorphism(3)
    assert np.array_equal(table_of(ident), np.arange(8))
    offset = AffineAutomorphism(3, mat_identity(3), 1)
    assert np.array_equal(table_of(offset),
                          np.array([1, 0, 3, 2, 5, 4, 7, 6]))


def test_compile_bit_swap():
    swap = AffineAutomorphism(2, (0b10, 0b01), 0)
    assert np.array_equal(table_of(swap), np.array([0, 2, 1, 3]))


def test_compile_matches_bruteforce():
    rng = np.random.default_rng(0)
    for m in (1, 3, 6):
        for _ in range(20):
            aut = sample(m, "ga", rng)
            assert np.array_equal(table_of(aut), compile_brute(aut))


def test_compile_tables_stacks():
    rng = np.random.default_rng(1)
    auts = [sample(4, "ga", rng) for _ in range(5)]
    tables = compile_tables(auts)
    for j, aut in enumerate(auts):
        assert np.array_equal(tables[j], table_of(aut))


@pytest.mark.parametrize("m", [1, 8, 10])
def test_compile_tables_mixed_batch_matches_bruteforce(m):
    rng = np.random.default_rng(100 + m)
    auts = [identity_automorphism(m), AffineAutomorphism(m, mat_identity(m), 1)]
    auts += [sample(m, ("ga", "lta", "uta", "pi")[j % 4], rng) for j in range(198)]
    tables = compile_tables(auts)
    assert tables.shape == (200, 1 << m) and tables.dtype == np.int64
    for table, aut in zip(tables, auts):
        assert np.array_equal(table, compile_brute(aut))


def test_table_gather_roundtrip():
    rng = np.random.default_rng(2)
    aut = sample(4, "ga", rng)
    t, tinv = table_of(aut), table_of(inverse(aut))
    v = rng.normal(size=16)
    assert np.array_equal(v[tinv][t], v)
    assert np.array_equal(tinv[t], np.arange(16))


def test_codewords_stay_codewords():
    spec = rm_code(2, 4)
    rng = np.random.default_rng(3)
    for _ in range(50):
        aut = sample(4, "ga", rng)
        cw = enumerate_codebook(spec)[int(rng.integers(0, 1 << spec.k))]
        assert in_code(spec, cw[table_of(aut)])


def test_codebook_mapped_onto_itself():
    spec = rm_code(1, 3)
    cb = enumerate_codebook(spec)
    as_set = {row.tobytes() for row in cb}
    rng = np.random.default_rng(4)
    for _ in range(10):
        t = table_of(sample(3, "ga", rng))
        assert {row[t].tobytes() for row in cb} == as_set


# ---------------------------------------------------------------------------
# compose / inverse

def test_compose_identity_and_inverse():
    rng = np.random.default_rng(5)
    aut = sample(5, "ga", rng)
    ident = identity_automorphism(5)
    assert compose(aut, ident) == aut
    round_trip = compose(aut, inverse(aut))
    assert round_trip == ident


def test_compose_matches_index_composition():
    rng = np.random.default_rng(6)
    for m in (3, 5, 8):
        for _ in range(30):
            p = sample(m, "ga", rng)
            q = sample(m, "ga", rng)
            assert np.array_equal(table_of(compose(p, q)), table_of(p)[table_of(q)])


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(identity_automorphism(3), identity_automorphism(4))


def test_lta_closed_under_composition():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = sample(5, "lta", rng)
        b = sample(5, "lta", rng)
        assert compose(a, b).is_lower_unitriangular


# ---------------------------------------------------------------------------
# sampling and group sizes

def test_group_orders_small():
    assert group_order("pi", 3) == 6
    assert group_order("lta", 3) == 64
    assert group_order("ga", 3) == 1344


def test_ga3_has_1344_distinct_compiled_elements():
    matrices = all_invertible_matrices(3)
    assert len(matrices) == 168
    seen = set()
    for rows in matrices:
        for b in range(8):
            seen.add(table_of(AffineAutomorphism(3, rows, b)).tobytes())
    assert len(seen) == 1344


def test_lta3_enumeration_is_64():
    seen = set()
    for bits in range(8):  # strictly-lower patterns: 1 + 2 bits
        rows = (0b001, 0b010 | (bits & 1), 0b100 | ((bits >> 1) & 3))
        for b in range(8):
            seen.add(table_of(AffineAutomorphism(3, rows, b)).tobytes())
    assert len(seen) == 64


def test_samples_live_in_their_subgroup():
    rng = np.random.default_rng(8)
    for sub in ("ga", "lta", "uta", "pi"):
        for _ in range(30):
            assert sample(6, sub, rng).in_subgroup(sub)


def assert_uniform(keys, order):
    """Every one of `order` group elements is drawn, each count lies within
    5 binomial standard deviations of its expectation, and the chi-square
    statistic within 5 of its standard deviations of its mean."""
    counts = Counter(keys)
    assert len(counts) == order
    expect = len(keys) / order
    sd = math.sqrt(expect * (1 - 1 / order))
    assert all(abs(c - expect) <= 5 * sd for c in counts.values())
    chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
    assert chi2 <= (order - 1) + 5 * math.sqrt(2 * (order - 1))


@pytest.mark.parametrize("m, subgroup, draws", [
    (3, "pi", 6 * 1000), (4, "pi", 24 * 1000), (3, "lta", 64 * 300),
    (3, "uta", 64 * 300)])
def test_sample_is_uniform_on_small_groups(m, subgroup, draws):
    rng = np.random.default_rng(40 + m)
    keys = [(a.rows, a.b) for a in (sample(m, subgroup, rng) for _ in range(draws))]
    assert_uniform(keys, group_order(subgroup, m))


def test_sample_pi_coordinate_marginals_m8():
    """Row j of a "pi" draw selects coordinate c with probability 1/8 for
    every (j, c), and the draw never offsets."""
    rng = np.random.default_rng(48)
    draws = [sample(8, "pi", rng) for _ in range(8000)]
    assert all(a.b == 0 for a in draws)
    for j in range(8):
        assert_uniform([a.rows[j].bit_length() - 1 for a in draws], 8)


def test_sample_ensemble_dedupes():
    rng = np.random.default_rng(9)
    ens = sample_ensemble(3, "pi", 6, rng)
    tables = {table_of(a).tobytes() for a in ens}
    assert len(tables) == 6
    with pytest.raises(ValueError):
        sample_ensemble(3, "pi", 7, rng)
    with pytest.raises(ValueError, match="m must be >= 1"):
        sample_ensemble(0, "ga", 1, rng)


@pytest.mark.parametrize("subgroup", ["ga", "lta", "uta", "pi"])
@pytest.mark.parametrize("m", range(1, 11))
def test_sample_ensemble_equals_scalar_loop(m, subgroup):
    """Same automorphisms, in the same order, and the same generator state
    afterwards as the one-by-one loop; one generator serves every call."""
    new, ref = np.random.default_rng(m), np.random.default_rng(m)
    for count in ensemble_counts(subgroup, m):
        for dedupe in (True, False):
            if dedupe and count > group_order(subgroup, m):
                continue
            for ident in (False, True):
                got = sample_ensemble(m, subgroup, count, new, dedupe, ident)
                want = sample_ensemble_scalar(m, subgroup, count, ref, dedupe, ident)
                assert [(a.rows, a.b) for a in got] == [(a.rows, a.b) for a in want]
                assert new.bit_generator.state == ref.bit_generator.state


def test_sample_ensemble_whole_small_groups():
    for m, subgroup in ((1, "ga"), (3, "pi"), (2, "ga")):
        order = group_order(subgroup, m)
        ens = sample_ensemble(m, subgroup, order, np.random.default_rng(5))
        assert len({(a.rows, a.b) for a in ens}) == order


def test_sample_ensemble_pinned_draw():
    """A literal pin: a numpy release that spends the random stream
    differently in Generator.integers fails here rather than silently
    changing every resampled ensemble."""
    rng = np.random.default_rng(2024)
    ens = sample_ensemble(8, "ga", 3, rng)
    assert format_automorphism(ens[0]) == (
        "m=8; A=10111100,10110101,11101000,01101100,10001010,11110010,"
        "00010111,00110011; b=01010111")
    assert int(rng.integers(0, 1 << 30)) == 1036085921


class CountingGenerator(np.random.Generator):
    """A Generator that counts its `integers` calls."""

    calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return super().integers(*args, **kwargs)


@pytest.mark.parametrize("m", [1, 3, 8])
def test_ga_batch_across_draw_extensions(m):
    """Batches of 1, 2 and 12, each followed by a single sample(m, "ga"),
    on one generator: whenever a batch runs past its first bulk draw, the
    walk extends it and rank-test windows straddle the join.  Each call
    makes one bulk draw and one final redraw unless it extends; some trials
    must extend, and every call must still give the scalar loop's draws and
    final generator state."""
    new = CountingGenerator(np.random.PCG64(30 + m))
    ref = np.random.default_rng(30 + m)
    extended = 0
    for trial in range(300):
        n = (1, 2, 12)[trial % 3]
        before = new.calls
        got = automorphisms._ga_batch(m, new, n)
        assert got == [sample_ga_scalar(m, ref) for _ in range(n)]
        assert new.bit_generator.state == ref.bit_generator.state
        assert sample(m, "ga", new) == sample_ga_scalar(m, ref)
        assert new.bit_generator.state == ref.bit_generator.state
        extended += new.calls - before > 4
    assert extended > 0


def test_rank_tests_find_the_168_invertible_3x3():
    mats = [tuple((bits >> (3 * j)) & 7 for j in range(3)) for bits in range(512)]
    expect = [mat_inv(rows, 3) is not None for rows in mats]
    assert sum(expect) == 168
    assert [is_invertible(rows, 3) for rows in mats] == expect
    vals = np.array([r for rows in mats for r in rows], dtype=np.int64)
    windows = full_rank_windows(vals, 3)
    assert windows.shape == (vals.size - 2,)
    assert windows[::3].tolist() == expect
    assert full_rank_windows(vals[:2], 3).size == 0


def test_rank_tests_agree_with_mat_inv_at_m10():
    rng = np.random.default_rng(15)
    vals = rng.integers(0, 1 << 10, 3000, dtype=np.int64)
    # rank-deficient windows that a uniform draw rarely produces
    vals[100:110] = [1 << j for j in range(9)] + [0b11]
    vals[200:210] = [5, 3, 6] + [1 << j for j in range(3, 10)]
    windows = full_rank_windows(vals, 10)
    expect = [mat_inv(tuple(vals[s:s + 10].tolist()), 10) is not None
              for s in range(vals.size - 9)]
    assert windows.tolist() == expect
    assert [is_invertible(tuple(vals[s:s + 10].tolist()), 10)
            for s in range(vals.size - 9)] == expect
    assert not expect[100] and not expect[200] and 0 < sum(expect) < len(expect)


def test_sample_ensemble_identity_flag():
    rng = np.random.default_rng(10)
    ens = sample_ensemble(4, "ga", 5, rng, include_identity=True)
    assert ens[0] == identity_automorphism(4)
    assert len(ens) == 5


# ---------------------------------------------------------------------------
# triangular factorization

def test_mlup_identity_and_lta_fixed_points():
    ident = identity_automorphism(4)
    lt, ut, pt = mlup_decompose(ident)
    assert lt == ident and ut == ident and pt == ident
    rng = np.random.default_rng(11)
    for _ in range(20):
        aut = sample(4, "lta", rng)
        lt, ut, pt = mlup_decompose(aut)
        assert lt == aut
        assert ut == identity_automorphism(4) and pt == identity_automorphism(4)


def test_mlup_exhaustive_m3():
    for rows in all_invertible_matrices(3):
        aut = AffineAutomorphism(3, rows, 0b110)
        lt, ut, pt = mlup_decompose(aut)
        assert lt.is_lower_unitriangular and lt.b == aut.b
        assert ut.is_upper_unitriangular and ut.b == 0
        assert pt.is_permutation
        assert compose(compose(lt, ut), pt) == aut


def test_mlup_random_large():
    rng = np.random.default_rng(12)
    for _ in range(300):
        aut = sample(10, "ga", rng)
        lt, ut, pt = mlup_decompose(aut)
        assert compose(compose(lt, ut), pt) == aut
        assert lt.is_lower_unitriangular and ut.is_upper_unitriangular
        assert pt.is_permutation


def test_every_ga3_element_reachable_as_lup_product():
    """Constructive closure: products L o U o P cover the whole group."""
    matrices = all_invertible_matrices(3)
    target = set()
    for rows in matrices:
        for b in range(8):
            target.add(table_of(AffineAutomorphism(3, rows, b)).tobytes())
    lowers = [AffineAutomorphism(3, (1, 2 | (bits & 1), 4 | ((bits >> 1) & 3)), b)
              for bits in range(8) for b in range(8)]
    uppers = [AffineAutomorphism(3, (1 | ((bits & 3) << 1), 2 | ((bits >> 2 & 1) << 2), 4), 0)
              for bits in range(8)]
    perms = [AffineAutomorphism(3, tuple(1 << c for c in cols), 0)
             for cols in ([0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0])]
    reached = set()
    for lt in lowers:
        for ut in uppers:
            for pt in perms:
                reached.add(table_of(compose(compose(lt, ut), pt)).tobytes())
    assert reached == target


# ---------------------------------------------------------------------------
# text format

def test_text_format_roundtrip():
    rng = np.random.default_rng(13)
    for _ in range(20):
        aut = sample(5, "ga", rng)
        assert parse_automorphism(format_automorphism(aut)) == aut


def test_text_format_example():
    aut = AffineAutomorphism(2, (0b10, 0b01), 0b11)
    text = format_automorphism(aut)
    assert text == "m=2; A=01,10; b=11"
    assert parse_automorphism(text) == aut


def test_text_format_malformed():
    with pytest.raises(ValueError):
        parse_automorphism("m=2; A=01,10")
    with pytest.raises(ValueError):
        parse_automorphism("garbage")


def test_mat_mul_is_matrix_product():
    rng = np.random.default_rng(14)
    m = 5
    for _ in range(20):
        a = sample(m, "ga", rng)
        b = sample(m, "ga", rng)
        prod = mat_mul(a.rows, b.rows, m)
        am = a.matrix().astype(int)
        bm = b.matrix().astype(int)
        expect = (am @ bm) % 2
        got = AffineAutomorphism(m, prod, 0).matrix().astype(int)
        assert np.array_equal(got, expect)
