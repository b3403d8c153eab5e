"""Affine automorphisms of GF(2)^m and their compiled codeword-index tables.

An automorphism is a pair (A, b) with A an invertible m x m binary matrix
and b an m-bit offset, acting on bit positions through the binary expansion
of the index: binary(pi(i)) = A binary(i) + b.  Matrices are stored as one
machine-word bitmask per row (bit k of ``rows[j]`` is A[j, k]), which keeps
products, inverses and elimination cheap for m <= 20.

Subgroups: "ga" (all invertible A, any b), "lta"/"uta" (lower/upper
unitriangular A, any b) and "pi" (permutation-matrix A, b = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUBGROUPS = ("ga", "lta", "uta", "pi")


# ---------------------------------------------------------------------------
# bitmask-row matrix helpers

def mat_identity(m: int) -> tuple[int, ...]:
    return tuple(1 << j for j in range(m))


def mat_mul(a, b, m: int) -> tuple[int, ...]:
    """C = A B over GF(2); row i of C is the XOR of B-rows selected by A[i]."""
    out = []
    for j in range(m):
        acc = 0
        x = a[j]
        while x:
            acc ^= b[(x & -x).bit_length() - 1]
            x &= x - 1
        out.append(acc)
    return tuple(out)


def mat_vec(a, v: int, m: int) -> int:
    out = 0
    for j in range(m):
        if bin(a[j] & v).count("1") & 1:
            out |= 1 << j
    return out


def mat_transpose(a, m: int) -> tuple[int, ...]:
    return tuple(sum(((a[k] >> j) & 1) << k for k in range(m)) for j in range(m))


def mat_inv(a, m: int) -> tuple[int, ...] | None:
    """Inverse over GF(2) by Gauss-Jordan, or None if singular."""
    left = list(a)
    right = list(mat_identity(m))
    for col in range(m):
        piv = next((r for r in range(col, m) if (left[r] >> col) & 1), None)
        if piv is None:
            return None
        left[col], left[piv] = left[piv], left[col]
        right[col], right[piv] = right[piv], right[col]
        for r in range(m):
            if r != col and ((left[r] >> col) & 1):
                left[r] ^= left[col]
                right[r] ^= right[col]
    return tuple(right)


def is_invertible(a, m: int) -> bool:
    """Full GF(2) rank test on m rows: reduce each row against an XOR basis
    whose members have distinct pivot bits (their lowest set bit when
    added); a row that reduces to zero is dependent."""
    basis: list[tuple[int, int]] = []
    for r in a:
        for pivot, v in basis:
            if r & pivot:
                r ^= v
        if not r:
            return False
        basis.append((r & -r, r))
    return len(basis) == m


def full_rank_windows(vals: np.ndarray, m: int) -> np.ndarray:
    """Invertibility flag of every m-row window vals[s:s+m] (row bitmasks),
    s = 0 .. len(vals) - m: the reduction of is_invertible run over all
    windows at once, one row step at a time.  Row i of every window is held
    in one contiguous array of the narrowest unsigned type."""
    nwin = vals.size - m + 1
    if nwin < 1:
        return np.zeros(0, dtype=bool)
    dt = np.min_scalar_type((1 << m) - 1)
    v = vals.astype(dt)
    w = np.stack([v[i:i + nwin] for i in range(m)])  # w[i, s] = vals[s + i]
    ok = np.ones(nwin, dtype=bool)
    for i in range(m - 1):
        r = w[i]
        ok &= r != 0
        pivot = r & (~r + dt.type(1))  # lowest set bit
        later = w[i + 1:]
        later ^= r * ((later & pivot) != 0)
    return ok & (w[m - 1] != 0)


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True, slots=True)
class AffineAutomorphism:
    """Invertible affine map z -> A z + b on GF(2)^m (rows as bitmasks)."""

    m: int
    rows: tuple[int, ...]
    b: int = 0

    def __post_init__(self):
        if len(self.rows) != self.m:
            raise ValueError(f"need {self.m} rows, got {len(self.rows)}")
        mask = (1 << self.m) - 1
        if any(r & ~mask for r in self.rows) or self.b & ~mask:
            raise ValueError("row or offset bits outside m-bit range")
        if not is_invertible(self.rows, self.m):
            raise ValueError("matrix is singular over GF(2)")

    @property
    def is_lower_unitriangular(self) -> bool:
        return all((r >> j) & 1 and (r >> (j + 1)) == 0
                   for j, r in enumerate(self.rows))

    @property
    def is_upper_unitriangular(self) -> bool:
        return all((r >> j) & 1 and (r & ((1 << j) - 1)) == 0
                   for j, r in enumerate(self.rows))

    @property
    def is_permutation(self) -> bool:
        if self.b != 0 or any(bin(r).count("1") != 1 for r in self.rows):
            return False
        return sorted(r.bit_length() - 1 for r in self.rows) == list(range(self.m))

    def in_subgroup(self, subgroup: str) -> bool:
        if subgroup == "ga":
            return True
        if subgroup == "lta":
            return self.is_lower_unitriangular
        if subgroup == "uta":
            return self.is_upper_unitriangular
        if subgroup == "pi":
            return self.is_permutation
        raise ValueError(f"unknown subgroup {subgroup!r}")

    def matrix(self) -> np.ndarray:
        a = np.zeros((self.m, self.m), dtype=np.uint8)
        for j, r in enumerate(self.rows):
            for k in range(self.m):
                a[j, k] = (r >> k) & 1
        return a


def identity_automorphism(m: int) -> AffineAutomorphism:
    return AffineAutomorphism(m, mat_identity(m), 0)


# ---------------------------------------------------------------------------
# operations

def compile_tables(auts: list[AffineAutomorphism]) -> np.ndarray:
    """Compiled index tables of several same-dimension automorphisms,
    stacked as (len(auts), 2**m): table[i] = pi(i) with
    binary(pi(i)) = A binary(i) + b.  The table is the only vector form of
    an automorphism; v[table] permutes bits or LLRs (w_i = v[pi(i)]).

    One affine pass: pi(0) = b, and the indices with top bit k are those
    below 2**k XOR-ed with column k of A, pi(i + 2**k) = pi(i) ^ A e_k."""
    m = auts[0].m
    rows = np.array([a.rows for a in auts], dtype=np.int64).reshape(len(auts), m)
    cols = np.zeros_like(rows)  # cols[:, k] = A e_k: bit j is A[j, k]
    for j in range(m):
        cols |= ((rows[:, j, None] >> np.arange(m)) & 1) << j
    out = np.empty((len(auts), 1 << m), dtype=np.int64)
    out[:, 0] = [a.b for a in auts]
    for k in range(m):
        out[:, 1 << k:2 << k] = out[:, :1 << k] ^ cols[:, k:k + 1]
    return out


def compose(p: AffineAutomorphism, q: AffineAutomorphism) -> AffineAutomorphism:
    """p after q: z -> A_p (A_q z + b_q) + b_p.

    Compiled tables satisfy compile(p o q)(i) = compile(p)(compile(q)(i)).
    """
    if p.m != q.m:
        raise ValueError(f"dimension mismatch: {p.m} != {q.m}")
    return AffineAutomorphism(p.m, mat_mul(p.rows, q.rows, p.m),
                              mat_vec(p.rows, q.b, p.m) ^ p.b)


def inverse(p: AffineAutomorphism) -> AffineAutomorphism:
    ainv = mat_inv(p.rows, p.m)
    return AffineAutomorphism(p.m, ainv, mat_vec(ainv, p.b, p.m))


def sample(m: int, subgroup: str, rng: np.random.Generator) -> AffineAutomorphism:
    """Uniform sample from the requested subgroup.

    "ga" uses rejection on uniform matrices (acceptance ~ 0.289 for large m;
    see _ga_batch),
    "lta"/"uta" draw the strictly sub/super-diagonal bits and the offset
    uniformly, "pi" draws a uniform permutation matrix with b = 0.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if subgroup == "ga":
        return _ga_batch(m, rng, 1)[0]
    if subgroup == "lta":
        rows = tuple((1 << j) | int(rng.integers(0, 1 << j)) for j in range(m))
        return AffineAutomorphism(m, rows, int(rng.integers(0, 1 << m)))
    if subgroup == "uta":
        rows = tuple((1 << j) | (int(rng.integers(0, 1 << (m - 1 - j))) << (j + 1))
                     for j in range(m))
        return AffineAutomorphism(m, rows, int(rng.integers(0, 1 << m)))
    if subgroup == "pi":
        cols = rng.permutation(m)
        return AffineAutomorphism(m, tuple(1 << int(c) for c in cols), 0)
    raise ValueError(f"unknown subgroup {subgroup!r}")


def sample_ensemble(m: int, subgroup: str, count: int, rng: np.random.Generator,
                    dedupe: bool = True,
                    include_identity: bool = False) -> list[AffineAutomorphism]:
    """Sample `count` automorphisms by repeated sample() draws; with dedupe,
    the pairs (A, b), and so the compiled index tables, are pairwise
    distinct (a collision is dropped and drawn again).  "ga" draws come in
    batches (_ga_batch), with the same result and final generator state."""
    check_ensemble(m, subgroup, count, dedupe)
    out: list[AffineAutomorphism] = []
    seen: set[tuple] = set()
    if include_identity:
        out.append(identity_automorphism(m))
        seen.add((out[0].rows, out[0].b))
    while len(out) < count:
        for aut in (_ga_batch(m, rng, count - len(out)) if subgroup == "ga"
                    else [sample(m, subgroup, rng)]):
            key = (aut.rows, aut.b)
            if not dedupe or key not in seen:
                seen.add(key)
                out.append(aut)
    return out


def check_ensemble(m: int, subgroup: str, count: int, dedupe: bool = True) -> None:
    """Raise ValueError unless sample_ensemble can draw `count` elements of
    `subgroup` for length 2**m: m >= 1, count >= 1 and, with dedupe, count
    at most the subgroup's order."""
    if m < 1:
        raise ValueError(f"cannot draw automorphisms for m={m}: m must be >= 1")
    if count < 1:
        raise ValueError("ensemble size must be >= 1")
    if dedupe and count > group_order(subgroup, m):
        raise ValueError(f"cannot draw {count} distinct elements from "
                         f"{subgroup}({m}) of order {group_order(subgroup, m)}")


def _ga_batch(m: int, rng: np.random.Generator,
              count: int) -> list[AffineAutomorphism]:
    """`count` uniform "ga" automorphisms by rejection, as array code;
    `rng` is left just past the values they used.

    Each draw takes m row values, redrawn while they are singular, and then
    b, all uniform on [0, 2**m); each such value takes exactly one 32-bit
    word of the generator, so one bulk draw gives the same values as
    drawing them one matrix at a time.  Every m-value window of the draw is
    rank-tested at once; the walk then skips m values for a singular window
    and takes m + 1 (rows, then b) for an invertible one.  The draw, sized
    for about 1.5 `count` automorphisms, is extended by as much whenever it
    runs out; then `rng` is rewound and redraws only the values used."""
    if m < 1:
        raise ValueError("m must be >= 1")
    p = group_order("ga", m) / (1 << (m * m + m))  # a uniform matrix is invertible
    chunk = int(1.5 * count * (m / p + 1)) + 2 * m + 2
    state = rng.bit_generator.state
    drawn = np.zeros(0, dtype=np.int64)
    ok: list[bool] = []  # ok[s]: drawn[s:s+m] is invertible
    out: list[AffineAutomorphism] = []
    pos = 0
    while len(out) < count:
        if pos + m >= drawn.size:  # the window at pos or its b not drawn yet
            more = rng.integers(0, 1 << m, size=chunk, dtype=np.int64)
            drawn = np.concatenate([drawn, more])
            ok += full_rank_windows(drawn[len(ok):], m).tolist()
        elif not ok[pos]:
            pos += m
        else:
            *rows, b = drawn[pos:pos + m + 1].tolist()
            pos += m + 1
            out.append(AffineAutomorphism(m, tuple(rows), b))
    rng.bit_generator.state = state
    rng.integers(0, 1 << m, size=pos, dtype=np.int64)
    return out


def group_order(subgroup: str, m: int) -> int:
    if subgroup == "ga":
        gl = 1
        for i in range(m):
            gl *= (1 << m) - (1 << i)
        return gl << m
    if subgroup in ("lta", "uta"):
        return 1 << (m * (m - 1) // 2 + m)
    if subgroup == "pi":
        return math.factorial(m)
    raise ValueError(f"unknown subgroup {subgroup!r}")


def mlup_decompose(p: AffineAutomorphism) -> tuple[AffineAutomorphism,
                                                   AffineAutomorphism,
                                                   AffineAutomorphism]:
    """Factor p = L o U o P with L lower-unitriangular (carrying the full
    offset b), U upper-unitriangular and P a permutation, both with zero
    offset.

    Obtained from an LUP elimination of A^T with smallest-index pivoting
    (deterministic): P0 A^T = L0 U0 gives A = U0^T L0^T (P0^{-1})^T.
    """
    m = p.m
    u = list(mat_transpose(p.rows, m))
    lrows = list(mat_identity(m))
    perm = list(range(m))
    for col in range(m):
        piv = next(r for r in range(col, m) if (u[r] >> col) & 1)
        if piv != col:
            u[col], u[piv] = u[piv], u[col]
            perm[col], perm[piv] = perm[piv], perm[col]
            sub = (1 << col) - 1
            lc, lp = lrows[col] & sub, lrows[piv] & sub
            lrows[col] = (lrows[col] & ~sub) | lp
            lrows[piv] = (lrows[piv] & ~sub) | lc
        for r in range(col + 1, m):
            if (u[r] >> col) & 1:
                u[r] ^= u[col]
                lrows[r] |= 1 << col
    p0 = tuple(1 << perm[j] for j in range(m))
    lt = AffineAutomorphism(m, mat_transpose(u, m), p.b)
    ut = AffineAutomorphism(m, mat_transpose(lrows, m), 0)
    pt = AffineAutomorphism(m, mat_transpose(mat_inv(p0, m), m), 0)
    return lt, ut, pt


# ---------------------------------------------------------------------------
# text format: "m=<int>; A=<m rows of m chars 0/1>; b=<m chars>"

def format_automorphism(aut: AffineAutomorphism) -> str:
    rows = ",".join("".join(str((r >> k) & 1) for k in range(aut.m))
                    for r in aut.rows)
    b = "".join(str((aut.b >> j) & 1) for j in range(aut.m))
    return f"m={aut.m}; A={rows}; b={b}"


def parse_automorphism(text: str) -> AffineAutomorphism:
    try:
        parts = dict(kv.strip().split("=", 1) for kv in text.strip().split(";"))
        m = int(parts["m"])
        rows = tuple(sum(int(ch) << k for k, ch in enumerate(row))
                     for row in parts["A"].split(","))
        b = sum(int(ch) << j for j, ch in enumerate(parts["b"]))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed automorphism text: {text!r}") from exc
    return AffineAutomorphism(m, rows, b)
