"""Construction, encoding and subcode algebra of RM / monomial codes."""

import itertools
import math

import numpy as np
import pytest

from aedcodes import (CapacityError, encode, enumerate_codebook,
                      in_code, index_to_monomial_mask, is_decreasing,
                      monomial_leq, pointwise_product_in_lower, polar_code,
                      polar_transform, read_frozen_file, rm_code,
                      split_subcodes, write_frozen_file)
from aedcodes.codes import Monomial, MonomialSet


# ---------------------------------------------------------------------------
# oracles

def hadamard_power(m):
    """G_N built independently by Kronecker powers."""
    g = np.array([[1]], dtype=np.uint8)
    f = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    for _ in range(m):
        g = np.kron(g, f)
    return g


def monomial_leq_brute(f, g, m):
    """Order test straight from the definition: some degree-matching divisor
    of g dominates f elementwise."""
    fv = [j for j in range(m) if (f >> j) & 1]
    gv = [j for j in range(m) if (g >> j) & 1]
    if len(fv) > len(gv):
        return False
    for sub in itertools.combinations(gv, len(fv)):
        if all(a <= b for a, b in zip(fv, sorted(sub))):
            return True
    return False


def is_decreasing_brute(spec):
    members = spec.monomials.masks
    m = spec.m
    for g in members:
        for f in range(1 << m):
            if monomial_leq_brute(f, g, m) and f not in members:
                return False
    return True


def spec_from_monomials(m, masks):
    info = {index_to_monomial_mask(mask, m) for mask in masks}
    frozen = np.ones(1 << m, dtype=bool)
    frozen[list(info)] = False
    return polar_code(m, frozen)


# ---------------------------------------------------------------------------
# construction

def test_rm_dimension_formula():
    for m in range(11):
        for r in range(m + 1):
            expect = sum(math.comb(m, i) for i in range(r + 1))
            assert rm_code(r, m).k == expect


def test_rm_generator_row_rule():
    for m in range(11):
        for r in range(m + 1):
            spec = rm_code(r, m)
            w = np.array([bin(i).count("1") for i in range(1 << m)])
            assert np.array_equal(~spec.frozen, w >= m - r)


def test_rm_reported_sizes():
    assert rm_code(3, 7).k == 64 and rm_code(3, 7).n == 128
    assert rm_code(4, 8).k == 163 and rm_code(4, 8).n == 256


def test_rm_full_and_repetition():
    for m in (0, 1, 3, 5):
        full = rm_code(m, m)
        assert full.k == 1 << m and not full.frozen.any()
    rep = rm_code(0, 3)
    assert rep.k == 1 and list(rep.info_indices) == [7]


def test_rm_parameter_errors():
    with pytest.raises(ValueError):
        rm_code(4, 3)
    with pytest.raises(ValueError):
        rm_code(-1, 3)
    with pytest.raises(ValueError):
        rm_code(2, 21)


def test_polar_code_matches_rm_pattern():
    rm = rm_code(3, 7)
    assert polar_code(7, rm.frozen) == rm


def test_polar_code_edge_patterns():
    empty = polar_code(3, np.ones(8, bool))
    assert empty.k == 0
    with pytest.raises(ValueError):
        encode(empty, [1])
    full = polar_code(3, np.zeros(8, bool))
    assert np.array_equal(full.generator, hadamard_power(3))
    with pytest.raises(ValueError):
        polar_code(3, np.zeros(7, bool))


def test_generator_matches_hadamard_rows():
    for r, m in [(1, 3), (2, 4), (3, 5)]:
        spec = rm_code(r, m)
        assert np.array_equal(spec.generator, hadamard_power(m)[spec.info_indices])


# ---------------------------------------------------------------------------
# the monomial order

def test_monomial_basics():
    mono = Monomial(0b101, 3)
    assert mono.degree == 2 and mono.variables == (0, 2) and str(mono) == "z0*z2"
    assert str(Monomial(0, 3)) == "1"
    with pytest.raises(ValueError):
        Monomial(8, 3)
    ms = MonomialSet(3, frozenset({0, 7}))
    assert len(ms) == 2 and 7 in ms and 3 not in ms


def test_monomial_leq_matches_bruteforce():
    for m in (3, 5):
        for f in range(1 << m):
            for g in range(1 << m):
                assert monomial_leq(f, g, m) == monomial_leq_brute(f, g, m), (f, g)


def test_monomial_order_is_partial_order():
    m = 6
    rng = np.random.default_rng(0)
    for _ in range(300):
        f, g, h = (int(v) for v in rng.integers(0, 1 << m, 3))
        if monomial_leq(f, g, m) and monomial_leq(g, h, m):
            assert monomial_leq(f, h, m)
        assert monomial_leq(f, f, m)


def test_is_decreasing_rm_codes():
    for m in range(7):
        for r in range(m + 1):
            assert is_decreasing(rm_code(r, m))


def test_is_decreasing_counterexample():
    # z0*z1 precedes z0*z1*z2 but is missing
    spec = spec_from_monomials(3, {0b111, 0})
    assert not is_decreasing(spec)
    assert not is_decreasing_brute(spec)


def test_is_decreasing_constant_only():
    assert is_decreasing(spec_from_monomials(3, {0}))


def test_is_decreasing_matches_bruteforce_random():
    rng = np.random.default_rng(1)
    m = 4
    for _ in range(200):
        count = int(rng.integers(1, 10))
        masks = set(int(v) for v in rng.integers(0, 16, count))
        spec = spec_from_monomials(m, masks)
        assert is_decreasing(spec) == is_decreasing_brute(spec)


# ---------------------------------------------------------------------------
# encoding

def test_encode_zero_and_linearity():
    spec = rm_code(2, 5)
    assert not encode(spec, np.zeros(spec.k, np.uint8)).any()
    rng = np.random.default_rng(2)
    for _ in range(50):
        u1 = rng.integers(0, 2, spec.k, dtype=np.uint8)
        u2 = rng.integers(0, 2, spec.k, dtype=np.uint8)
        assert np.array_equal(encode(spec, u1 ^ u2), encode(spec, u1) ^ encode(spec, u2))


def test_encode_constant_monomial_row_is_all_ones():
    spec = rm_code(1, 3)
    assert hadamard_power(3)[7].all()
    u = np.zeros(spec.k, np.uint8)
    u[list(spec.info_indices).index(7)] = 1
    assert encode(spec, u).all()


def test_encode_agrees_with_generator_product():
    rng = np.random.default_rng(3)
    for r, m in [(1, 4), (2, 5), (3, 6)]:
        spec = rm_code(r, m)
        u = rng.integers(0, 2, (20, spec.k), dtype=np.uint8)
        assert np.array_equal(encode(spec, u), (u @ spec.generator) % 2)


def test_minimum_distance_exhaustive():
    for r, m in [(1, 3), (2, 4)]:
        spec = rm_code(r, m)
        weights = enumerate_codebook(spec)[1:].sum(axis=1)
        assert weights.min() == 1 << (m - r)


def test_encode_length_mismatch():
    with pytest.raises(ValueError):
        encode(rm_code(1, 3), [0, 1])


def test_encode_rejects_non_binary_messages():
    spec = rm_code(1, 3)
    for bad in ([2, 0, 0, 0], [0, -1, 0, 0], [0, 0.5, 0, 0],
                [[0, 1, 0, 1], [0, 0, 3, 0]]):
        with pytest.raises(ValueError, match="0 or 1"):
            encode(spec, bad)
    assert np.array_equal(encode(spec, np.array([True, False, True, True])),
                          encode(spec, [1, 0, 1, 1]))


def test_polar_transform_is_involution():
    rng = np.random.default_rng(4)
    x = rng.integers(0, 2, (10, 64), dtype=np.uint8)
    assert np.array_equal(polar_transform(polar_transform(x)), x)


def bytewise_polar_transform(bits):
    """Reference transform: stage s XORs strided single bytes, bit i + 2**s
    into bit i wherever bit s of i is clear."""
    x = np.ascontiguousarray(bits, dtype=np.uint8).copy()
    n = x.shape[-1]
    v = x.reshape(-1, n)
    for s in range(n.bit_length() - 1):
        blk = v.reshape(v.shape[0], n >> (s + 1), 2, 1 << s)
        blk[:, :, 0, :] ^= blk[:, :, 1, :]
    return x


@pytest.mark.parametrize("m", range(11))
def test_polar_transform_matches_bytewise_reference(m):
    """The packed transform equals the bytewise one below, at and above the
    64-bit word width, for every batch shape; it returns a new uint8 array
    and leaves its input alone."""
    n = 1 << m
    rng = np.random.default_rng(m)
    for shape in [(n,), (3, n), (2, 3, n), (0, n)]:
        x = rng.integers(0, 2, shape, dtype=np.uint8)
        before = x.copy()
        y = polar_transform(x)
        assert y.dtype == np.uint8 and y.shape == shape
        assert np.array_equal(y, bytewise_polar_transform(x))
        assert np.array_equal(x, before) and not np.shares_memory(x, y)
    b = rng.integers(0, 2, (5, n)).astype(bool)
    assert np.array_equal(polar_transform(b), bytewise_polar_transform(b))
    strided = rng.integers(0, 2, (4, 2 * n), dtype=np.uint8)[:, ::2]
    transposed = rng.integers(0, 2, (n, 5), dtype=np.uint8).T
    for x in (strided, transposed):
        assert m == 0 or not x.flags.c_contiguous
        assert np.array_equal(polar_transform(x), bytewise_polar_transform(x))


def test_polar_transform_counts_nonzero_as_one():
    x = np.array([[2, 0, 0, 0, 255, 1, 0, 7], [0, 3, 0, 0, 0, 0, 0, -1]])
    assert np.array_equal(polar_transform(x), polar_transform(x != 0))
    for n in (0, 3, 6, 12):
        with pytest.raises(ValueError, match="power of two"):
            polar_transform(np.zeros((2, n), np.uint8))


# ---------------------------------------------------------------------------
# membership

def test_in_code_matches_codebook_membership():
    """in_code against the enumerated codebook: exhaustively over every
    word of length 8 for codes of every dimension, then on codewords,
    codewords with one bit flipped and random words of RM(2,5)."""
    words = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.uint8)
    for spec in (rm_code(0, 3), rm_code(1, 3), rm_code(2, 3), rm_code(3, 3),
                 polar_code(3, np.ones(8, dtype=bool)),
                 polar_code(3, np.array([1, 0, 1, 0, 1, 1, 0, 0], dtype=bool))):
        book = {cw.tobytes() for cw in enumerate_codebook(spec)}
        assert [in_code(spec, w) for w in words] == [w.tobytes() in book for w in words]
    spec = rm_code(2, 5)
    book = {cw.tobytes() for cw in enumerate_codebook(spec)}
    rng = np.random.default_rng(5)
    cws = encode(spec, rng.integers(0, 2, (50, spec.k), dtype=np.uint8))
    flipped = cws ^ np.eye(spec.n, dtype=np.uint8)[rng.integers(0, spec.n, 50)]
    noise = rng.integers(0, 2, (50, spec.n), dtype=np.uint8)
    for w in np.concatenate([cws, flipped, noise]):
        assert in_code(spec, w) == (w.tobytes() in book)
    assert all(in_code(spec, w) for w in cws)
    assert not any(in_code(spec, w) for w in flipped)


# ---------------------------------------------------------------------------
# subcode algebra

def test_split_is_plotkin_recursion():
    for m in range(1, 7):
        for r in range(1, m):
            upper, lower = split_subcodes(rm_code(r, m))
            assert upper == rm_code(r - 1, m - 1)
            assert lower == rm_code(r, m - 1)


def test_split_rm13_dimensions():
    upper, lower = split_subcodes(rm_code(1, 3))
    assert upper.k == 1 and lower.k == 3


def test_split_rejects_length_one():
    with pytest.raises(ValueError):
        split_subcodes(rm_code(0, 0))


def test_split_decreasing_and_contained():
    for m in range(1, 7):
        for r in range(m + 1):
            upper, lower = split_subcodes(rm_code(r, m))
            assert is_decreasing(upper) and is_decreasing(lower)
            assert upper.monomials.masks <= lower.monomials.masks


def test_plotkin_reconstruction_small():
    for r, m in [(1, 3), (2, 4), (1, 4), (2, 5)]:
        spec = rm_code(r, m)
        upper, lower = split_subcodes(spec)
        half = spec.n // 2
        for x in enumerate_codebook(spec):
            xl = x[half:]
            xu = x[:half] ^ xl
            assert in_code(upper, xu) and in_code(lower, xl)


def test_pointwise_product_specials():
    spec = rm_code(2, 4)
    upper, _ = split_subcodes(spec)
    cu = enumerate_codebook(upper)
    ones = np.ones(spec.n // 2, np.uint8)
    zeros = np.zeros(spec.n // 2, np.uint8)
    for xu in cu:
        assert pointwise_product_in_lower(spec, xu, ones)
    assert pointwise_product_in_lower(spec, zeros, ones)


def test_pointwise_product_rejects_non_members():
    spec = rm_code(2, 4)
    bad = np.zeros(8, np.uint8)
    bad[0] = 1  # weight-1 word is in neither subcode
    with pytest.raises(ValueError):
        pointwise_product_in_lower(spec, bad, np.zeros(8, np.uint8))
    with pytest.raises(ValueError):
        pointwise_product_in_lower(spec, np.zeros(4, np.uint8), np.zeros(4, np.uint8))


# ---------------------------------------------------------------------------
# codebook enumeration

def test_codebook_repetition():
    cb = enumerate_codebook(rm_code(0, 3))
    assert cb.shape == (2, 8)
    assert not cb[0].any() and cb[1].all()


def test_codebook_rm13_distance_histogram():
    cb = enumerate_codebook(rm_code(1, 3))
    assert cb.shape[0] == 16
    dists = {int((a ^ b).sum()) for a in cb for b in cb}
    assert dists == {0, 4, 8}


def test_codebook_trivial_and_capacity():
    cb = enumerate_codebook(polar_code(2, np.ones(4, bool)))
    assert cb.shape == (1, 4) and not cb.any()
    with pytest.raises(CapacityError):
        enumerate_codebook(rm_code(5, 5))  # k = 32


# ---------------------------------------------------------------------------
# frozen-set files

def test_frozen_file_roundtrip(tmp_path):
    spec = rm_code(2, 4)
    path = tmp_path / "rm24.frozen"
    write_frozen_file(path, spec)
    assert read_frozen_file(path) == spec
    text = path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "m=4" and len(lines[1]) == 16


def test_frozen_file_malformed(tmp_path):
    path = tmp_path / "bad.frozen"
    path.write_text("m=3\n0101\n")
    with pytest.raises(ValueError):
        read_frozen_file(path)
    path.write_text("hello\n")
    with pytest.raises(ValueError):
        read_frozen_file(path)
    # m is checked before 2**m is formed: no OverflowError, no negative shift
    for m in ("100000000000000000000", "-1"):
        path.write_text(f"m={m}\n0101\n")
        with pytest.raises(ValueError, match=f"m={m} outside"):
            read_frozen_file(path)
