"""Affine automorphisms: compilation, group operations, sampling and the
triangular factorization."""

import math
from collections import Counter

import numpy as np
import pytest

import aedcodes.automorphisms as automorphisms
from aedcodes import (AffineAutomorphism, AutomorphismBatch, compile_tables,
                      compose, enumerate_codebook, format_automorphism,
                      group_order, identity_automorphism, in_code, inverse,
                      mlup_decompose, parse_automorphism, rm_code, sample,
                      sample_ensemble)
from aedcodes.automorphisms import (SUBGROUPS, full_rank_windows, mat_identity,
                                    mat_inv, mat_mul)


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


def sample_scalar(m, subgroup, rng):
    """One draw, value by value: "ga" by sample_ga_scalar; "lta"/"uta" one
    integers(0, 2**w) call for each row's w free bits, then one for b; "pi"
    one permutation(m) call, with b = 0."""
    if subgroup == "ga":
        return sample_ga_scalar(m, rng)
    if subgroup == "pi":
        return AffineAutomorphism(m, tuple(1 << int(c) for c in rng.permutation(m)), 0)
    if subgroup == "lta":
        rows = tuple((1 << j) | int(rng.integers(0, 1 << j)) for j in range(m))
    else:
        rows = tuple((1 << j) | (int(rng.integers(0, 1 << (m - 1 - j))) << (j + 1))
                     for j in range(m))
    return AffineAutomorphism(m, rows, int(rng.integers(0, 1 << m)))


def sample_ensemble_scalar(m, subgroup, count, rng):
    """The one-by-one sampling loop over sample_scalar; a draw whose
    compiled table equals an earlier one's is dropped."""
    out, seen = [], set()
    while len(out) < count:
        aut = sample_scalar(m, subgroup, rng)
        key = table_of(aut).tobytes()
        if key not in seen:
            seen.add(key)
            out.append(aut)
    return out


def plain_state(rng):
    """A generator's bit_generator.state with arrays (MT19937's key) as
    lists, so that states compare with ==."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return np.asarray(value).tolist()
    return plain(rng.bit_generator.state)


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
    before = plain_state(rng)
    with pytest.raises(ValueError, match="unknown subgroup 'nope'"):
        sample(3, "nope", rng)
    with pytest.raises(ValueError, match="unknown subgroup 'nope'"):
        sample_ensemble(3, "nope", 1, [rng.bit_generator.state])
    assert plain_state(rng) == before


@pytest.mark.parametrize("subgroup", ["ga", "lta", "uta", "pi"])
@pytest.mark.parametrize("m", range(1, 11))
def test_sample_ensemble_equals_scalar_loop(m, subgroup):
    """Same automorphisms, in the same order, and the same generator state
    afterwards as the one-by-one loop; one generator serves every call, on
    PCG64 (default_rng) and on any other bit generator."""
    for bitgen in (np.random.PCG64, np.random.MT19937):
        new, ref = np.random.Generator(bitgen(m)), np.random.Generator(bitgen(m))
        for count in ensemble_counts(subgroup, m):
            if count > group_order(subgroup, m):
                continue
            got = sample_ensemble(m, subgroup, count, new)
            want = sample_ensemble_scalar(m, subgroup, count, ref)
            assert [(a.rows, a.b) for a in got] == [(a.rows, a.b) for a in want]
            assert plain_state(new) == plain_state(ref)


def states_of(*seeds):
    """The PCG64 state of default_rng(seed) for every seed."""
    return [np.random.default_rng(seed).bit_generator.state for seed in seeds]


@pytest.mark.parametrize("subgroup", ["ga", "lta", "uta", "pi"])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_sample_ensemble_over_generators_equals_scalar_loop(m, subgroup):
    """A list of generator states (a chunk's frames) gives each state's own
    ensemble in turn, as the one-by-one loop draws it from a generator in
    that state alone; a state given twice gives its ensemble twice, and the
    list is left as it was."""
    for count in (1, 2, 7):
        if count > group_order(subgroup, m):
            continue
        seeds = [[m, count, s] for s in (0, 1, 2, 3, 4, 1)]
        states = states_of(*seeds)
        got = sample_ensemble(m, subgroup, count, states)
        want = [sample_ensemble_scalar(m, subgroup, count, np.random.default_rng(seed))
                for seed in seeds]
        assert got.rows.shape == (6 * count, m) and got.b.shape == (6 * count,)
        assert [(a.rows, a.b) for a in got] == [(a.rows, a.b) for w in want
                                                for a in w]
        assert list(got)[count:2 * count] == list(got)[5 * count:]
        assert states == states_of(*seeds)


def test_sample_ensemble_over_more_generators_than_one_rank_test():
    """Many generator states, rank-tested in one call, give the draws of
    one generator at a time; no states give an empty batch, and a list of
    Generators is refused."""
    seeds = [[7, s] for s in range(70)]
    got = sample_ensemble(4, "ga", 3, states_of(*seeds))
    assert got == [a for seed in seeds
                   for a in sample_ensemble(4, "ga", 3, np.random.default_rng(seed))]
    assert len(sample_ensemble(4, "ga", 3, [])) == 0
    with pytest.raises(TypeError, match="state must be a dict"):
        sample_ensemble(4, "ga", 3, [np.random.default_rng(1)])


def test_batch_indexes_iterates_and_compares_as_automorphisms():
    """A batch is a sequence of AffineAutomorphism built on demand; it
    equals a batch or list of the same automorphisms in the same order."""
    rng = np.random.default_rng(12)
    auts = [sample(5, "ga", rng) for _ in range(4)]
    batch = AutomorphismBatch.of(auts)
    assert AutomorphismBatch.of(batch) is batch
    assert len(batch) == 4 and batch.m == 5
    assert batch[2] == auts[2] and batch[-1] == auts[-1] and list(batch) == auts
    assert batch == auts and auts == batch and batch == AutomorphismBatch.of(auts)
    assert batch != auts[::-1] and batch != AutomorphismBatch.of(auts[:3])
    assert np.array_equal(compile_tables(batch), compile_tables(auts))
    with pytest.raises(ValueError, match="singular"):
        AutomorphismBatch(np.zeros((1, 3), dtype=np.int64), np.zeros(1, dtype=np.int64))[0]


def test_sample_ensemble_whole_small_groups():
    for m, subgroup in ((1, "ga"), (3, "pi"), (2, "ga")):
        order = group_order(subgroup, m)
        ens = sample_ensemble(m, subgroup, order, np.random.default_rng(5))
        assert len({(a.rows, a.b) for a in ens}) == order


def test_sample_ensemble_pinned_draw():
    """A literal pin per subgroup: a numpy release that spends the random
    stream differently in Generator.integers (scalar or array bounds) or
    Generator.permuted fails here rather than silently changing every
    resampled ensemble."""
    pins = {
        "ga": ("m=8; A=10111100,10110101,11101000,01101100,10001010,11110010,"
               "00010111,00110011; b=01010111", 1036085921),
        "lta": ("m=8; A=10000000,01000000,01100000,00010000,11001000,01010100,"
                "11001010,00101111; b=00110011", 1058713047),
        "uta": ("m=8; A=10111100,01110101,00101000,00011100,00001010,00000110,"
                "00000011,00000001; b=00110011", 1058713047),
        "pi": ("m=8; A=00010000,00100000,00000001,00000100,00001000,01000000,"
               "00000010,10000000; b=00000000", 859202631)}
    for subgroup, (text, after) in pins.items():
        rng = np.random.default_rng(2024)
        ens = sample_ensemble(8, subgroup, 3, rng)
        assert format_automorphism(ens[0]) == text
        assert int(rng.integers(0, 1 << 30)) == after


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_ga_batch_across_draw_extensions(m, monkeypatch):
    """For each subgroup, batches of 1, 2 and 12 (at most the group's order;
    whole groups of "lta"/"uta" at m = 2 and "pi" at m = 3, which must
    repeat) for three states, two fresh ones and last the state of one
    generator, which then draws the same batch and a single sample() itself:
    whenever a state's walk runs past its first bulk read, that state is read
    again, twice as long, and "ga" rank-test windows straddle the old end.
    A call on states reads once per state unless it extends; some trials
    must extend, and every call must still give the scalar loop's draws for
    every state and leave the generator in the loop's final state."""
    reads = 0

    def counting_reader(*args):
        read = reader(*args)

        def counted(*read_args):
            nonlocal reads
            reads += 1
            return read(*read_args)
        return counted
    reader = automorphisms._reader
    monkeypatch.setattr(automorphisms, "_reader", counting_reader)
    extended = 0
    for subgroup in SUBGROUPS:
        new, ref = np.random.default_rng(30 + m), np.random.default_rng(30 + m)
        for trial in range(300):
            n = min((1, 2, 12)[trial % 3], group_order(subgroup, m))
            fresh = [np.random.default_rng([m, trial, s]) for s in range(2)]
            states = [g.bit_generator.state for g in fresh] + [new.bit_generator.state]
            before = reads
            got = sample_ensemble(m, subgroup, n, states)
            extended += reads - before > len(states)
            want = [sample_ensemble_scalar(m, subgroup, n, g) for g in [*fresh, ref]]
            assert got == [a for w in want for a in w]
            assert sample_ensemble(m, subgroup, n, new) == want[-1]
            assert new.bit_generator.state == ref.bit_generator.state
            assert sample(m, subgroup, new) == sample_scalar(m, subgroup, ref)
            assert new.bit_generator.state == ref.bit_generator.state
    assert extended > 0


def test_rank_tests_find_the_168_invertible_3x3():
    mats = [tuple((bits >> (3 * j)) & 7 for j in range(3)) for bits in range(512)]
    expect = [mat_inv(rows, 3) is not None for rows in mats]
    assert sum(expect) == 168
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
    # leading axes: every row of a 2-D draw is tested as on its own
    rows = np.stack([vals, vals[::-1], np.roll(vals, 7)])
    assert np.array_equal(full_rank_windows(rows, 10),
                          [full_rank_windows(r, 10) for r in rows])
    assert full_rank_windows(rows[:, :9], 10).shape == (3, 0)
    assert not expect[100] and not expect[200] and 0 < sum(expect) < len(expect)


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
