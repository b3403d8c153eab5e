"""Affine automorphisms of GF(2)^m and their compiled codeword-index tables.

An automorphism is a pair (A, b) with A an invertible m x m binary matrix
and b an m-bit offset, acting on bit positions through the binary expansion
of the index: binary(pi(i)) = A binary(i) + b.  Matrices are stored as one
machine-word bitmask per row (bit k of ``rows[j]`` is A[j, k]), which keeps
products, inverses and elimination cheap for m <= 20.

Subgroups: "ga" (all invertible A, any b), "lta"/"uta" (lower/upper
unitriangular A, any b) and "pi" (permutation-matrix A, b = 0).

A sampled ensemble stays arrays (AutomorphismBatch) from the draw through
the compile; AffineAutomorphism objects are built only where a caller
indexes or iterates a batch.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
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


def full_rank_windows(vals: np.ndarray, m: int) -> np.ndarray:
    """Invertibility flag of every m-row window vals[..., s:s+m] (row
    bitmasks along the last axis), s = 0 .. vals.shape[-1] - m, by GF(2)
    elimination run over all windows, of every leading index, at once, one
    row step at a time: row i, once reduced, is XORed into every later row
    that has its pivot (its lowest set bit).  Row i of every window is held
    in one contiguous array of the narrowest unsigned type.  A zero row has
    no pivot and reduces nothing, so a window is invertible exactly when no
    row of it ends up zero."""
    nwin = vals.shape[-1] - m + 1
    if nwin < 1:
        return np.zeros(vals.shape[:-1] + (0,), dtype=bool)
    dt = np.min_scalar_type((1 << m) - 1)
    v = vals.astype(dt)
    w = np.stack([v[..., i:i + nwin] for i in range(m)])  # w[i, ..., s] = vals[..., s + i]
    for i in range(m - 1):
        r = w[i]
        pivot = r & -r  # lowest set bit
        later = w[i + 1:]
        later ^= r * ((later & pivot) != 0)
    return np.all(w != 0, axis=0)


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
        if mat_inv(self.rows, self.m) is None:
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


@dataclass(frozen=True, eq=False)
class AutomorphismBatch:
    """K automorphisms of GF(2)^m as arrays: rows (K, m) int64 row bitmasks
    and b (K,) int64 offsets.  The arrays are taken as given (sample_ensemble
    makes only invertible ones); indexing or iterating builds, and so
    checks, AffineAutomorphism objects.  A batch equals a batch or a list of
    the same automorphisms in the same order."""

    rows: np.ndarray
    b: np.ndarray

    @property
    def m(self) -> int:
        return self.rows.shape[1]

    @classmethod
    def of(cls, auts: AutomorphismBatch | Iterable[AffineAutomorphism]
           ) -> AutomorphismBatch:
        """`auts` itself if it is a batch, else its automorphisms as one."""
        if isinstance(auts, cls):
            return auts
        auts = list(auts)
        rows = np.array([a.rows for a in auts], dtype=np.int64)
        return cls(rows.reshape(len(auts), auts[0].m),
                   np.array([a.b for a in auts], dtype=np.int64))

    def __len__(self) -> int:
        return len(self.b)

    def __getitem__(self, i: int) -> AffineAutomorphism:
        return AffineAutomorphism(self.m, tuple(self.rows[i].tolist()), int(self.b[i]))

    def __iter__(self):
        m = self.m
        for rows, b in zip(self.rows.tolist(), self.b.tolist()):
            yield AffineAutomorphism(m, tuple(rows), b)

    def __eq__(self, other):
        if isinstance(other, AutomorphismBatch):
            return (np.array_equal(self.rows, other.rows)
                    and np.array_equal(self.b, other.b))
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


# ---------------------------------------------------------------------------
# operations

def compile_tables(auts: AutomorphismBatch | Iterable[AffineAutomorphism]
                   ) -> np.ndarray:
    """Compiled index tables of several same-dimension automorphisms (a
    batch, or objects, converted once), stacked as (len(auts), 2**m):
    table[i] = pi(i) with binary(pi(i)) = A binary(i) + b.  The table is the
    only vector form of an automorphism; v[table] permutes bits or LLRs
    (w_i = v[pi(i)]).

    The index is split into its low h = m // 2 bits and its high m - h:
    pi(i) = lo[i mod 2**h] ^ hi[i >> h], where lo is the table of b and the
    low columns of A, and hi that of the high columns (_span_tables).  The
    whole table is then one broadcast XOR of the two."""
    auts = AutomorphismBatch.of(auts)
    m, h = auts.m, auts.m // 2
    rows = auts.rows
    cols = np.zeros_like(rows)  # cols[:, k] = A e_k: bit j is A[j, k]
    for j in range(m):
        cols |= ((rows[:, j, None] >> np.arange(m)) & 1) << j
    lo = _span_tables(auts.b, cols[:, :h])
    hi = _span_tables(np.zeros_like(auts.b), cols[:, h:])
    return (hi[:, :, None] ^ lo[:, None, :]).reshape(len(auts), 1 << m)


def _span_tables(first: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(K, 2**c) tables of the c columns `cols`: t[:, i] is `first` XOR the
    columns k whose bit k is set in i, built in one affine pass,
    t[:, i + 2**k] = t[:, i] ^ cols[:, k]."""
    out = np.empty((len(first), 1 << cols.shape[1]), dtype=np.int64)
    out[:, 0] = first
    for k in range(cols.shape[1]):
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
    """Uniform sample from the requested subgroup: the one-element
    sample_ensemble.

    "ga" uses rejection on uniform matrices (acceptance ~ 0.289 for large
    m), "lta"/"uta" draw the strictly sub/super-diagonal bits and the offset
    uniformly, "pi" draws a uniform permutation matrix with b = 0.
    """
    return sample_ensemble(m, subgroup, 1, rng)[0]


def sample_ensemble(m: int, subgroup: str, count: int,
                    rng: np.random.Generator | list[dict]) -> AutomorphismBatch:
    """Sample `count` pairwise-distinct automorphisms as a batch: the result
    and the final generator state are those of one-by-one sample() calls
    that drop a draw whose row (m row bitmasks, then b) equals an earlier
    one, until `count` are kept.  Distinct pairs (A, b) compile to distinct
    index tables.  No AffineAutomorphism is built.

    `rng` is a Generator, or a list of PCG64 `bit_generator.state`s (the
    frames of a chunk): then the batch holds the ensemble of each state in
    turn, as a Generator in that state alone draws it.  One generator, `rng`
    or a scratch one, is loaded with each state in turn.

    Every subgroup takes one path.  Each state's value stream (_reader) is
    read in bulk, for about 1.5 `count` draws, and the "ga" windows of all
    states are rank-tested in one call (run_mc bounds the arrays by
    decoders.CHUNK_ROWS).  Each walk then skips the m values of a singular
    "ga" window, as rejection redraws them, and takes m + 1 (rows, then b)
    for any other draw, kept unless they repeat a kept draw's.  A walk that
    runs out reads its state again, twice as long (the old values its
    prefix).  A Generator `rng` is read once more, just past the values used."""
    check_ensemble(m, subgroup, count)
    single = isinstance(rng, np.random.Generator)
    gen = rng if single else np.random.Generator(np.random.PCG64(0))
    states = [rng.bit_generator.state] if single else list(rng)
    read = _reader(m, subgroup, gen)
    ga = subgroup == "ga"  # only a "ga" window can be singular
    p = group_order("ga", m) / (1 << (m * m + m)) if ga else 1.0  # P(window is a draw)

    def is_draw(vals):  # is_draw(vals)[..., s]: vals[..., s:s+m] are a draw's rows
        return full_rank_windows(vals, m) if ga else np.ones_like(vals, dtype=bool)
    chunk = int(1.5 * count * (m / p + 1)) + 2 * m + 2
    drawn = np.array([read(state, chunk) for state in states])  # no states: (0,)
    flags = is_draw(drawn)
    out = np.empty((len(states), count, m + 1), dtype=np.int64)
    for f, state in enumerate(states):
        vals, ok = drawn[f], flags[f].tobytes()
        raw = vals.tobytes()  # the row of the window at s is raw[8 s:8 (s + m + 1)]
        starts: list[int] = []
        seen: set[bytes] = set()
        pos = 0
        while len(starts) < count:
            if pos + m >= vals.size:  # the window at pos or its b not read yet
                vals = read(state, 2 * vals.size)
                ok, raw = is_draw(vals).tobytes(), vals.tobytes()
            elif not ok[pos]:
                pos += m
            else:
                key = raw[8 * pos:8 * (pos + m + 1)]
                if key not in seen:
                    seen.add(key)
                    starts.append(pos)
                pos += m + 1
        out[f] = vals[np.array(starts)[:, None] + np.arange(m + 1)]
    if single:  # a scratch generator's final state is never seen
        read(states[-1], pos)
    return AutomorphismBatch(out[..., :m].reshape(-1, m), out[..., m].reshape(-1))


def _reader(m: int, subgroup: str, gen: np.random.Generator):
    """read(state, n): the first n values of `subgroup`'s stream (for
    "lta"/"uta"/"pi" whole draws of m rows, then b, rounded up) as `gen`
    loaded with `state` reads them, as an int64 array.  Each value is read as
    one-by-one sampling reads it: a "ga" value is one uniform m-bit
    `integers` value; "lta"/"uta" read one value per row's free bits (an
    array of bounds reads as scalar calls do; a row without free bits has
    bound 1 and reads nothing) and one for b; "pi" reads each permutation
    as `permutation(m)` does (`permuted` by rows) and has b = 0."""
    j = np.arange(m, dtype=np.int64)
    if subgroup == "ga":
        def values(n):
            return gen.integers(0, 1 << m, size=n, dtype=np.int64)
    elif subgroup == "pi":
        def values(n):
            draws = np.zeros((-(-n // (m + 1)), m + 1), dtype=np.int64)
            draws[:, :m] = 1 << gen.permuted(np.tile(j, (len(draws), 1)), axis=1)
            return draws.reshape(-1)
    else:  # row j's free bits are bits 0 .. j - 1 ("lta") or j + 1 .. m - 1
        free, shift = (j, 0 * j) if subgroup == "lta" else (m - 1 - j, j + 1)
        high, shift = np.append(1 << free, 1 << m), np.append(shift, 0)
        diag = np.append(1 << j, 0)
        def values(n):
            draws = gen.integers(0, high, size=(-(-n // (m + 1)), m + 1))
            return (draws << shift | diag).reshape(-1)

    def read(state: dict, n: int) -> np.ndarray:
        gen.bit_generator.state = state
        return values(n)
    return read


def check_ensemble(m: int, subgroup: str, count: int) -> None:
    """Raise ValueError unless sample_ensemble can draw `count` elements of
    `subgroup` for length 2**m: m >= 1 and 1 <= count <= the subgroup's
    order."""
    if m < 1:
        raise ValueError(f"cannot draw automorphisms for m={m}: m must be >= 1")
    if count < 1:
        raise ValueError("ensemble size must be >= 1")
    if count > group_order(subgroup, m):
        raise ValueError(f"cannot draw {count} distinct elements from "
                         f"{subgroup}({m}) of order {group_order(subgroup, m)}")


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
