"""Reed-Muller and decreasing-monomial polar codes.

A code of length ``N = 2**m`` is described by its frozen-bit indicator: row
``i`` of the Hadamard power ``G_N = [[1,0],[1,1]]^{kron m}`` is a generator
row iff position ``i`` is not frozen.  Codewords are evaluations of
multilinear polynomials over GF(2); bit index ``i`` corresponds to the
evaluation point ``z`` with ``z_j = 1 - i_j``, so the monomial attached to
row ``i`` is the product of the variables ``z_j`` with ``i_j = 0``
(bitmask ``~i``).  All modules in this package share this single bit-order
convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

M_MAX = 20          # hard cap on log-length: N <= 2**20
CODEBOOK_K_MAX = 24  # hard cap on exhaustive codebook enumeration


class CapacityError(RuntimeError):
    """An operation would exceed a hard size limit."""


def _popcount(x):
    return np.bitwise_count(np.asarray(x, dtype=np.uint64)).astype(np.int64)


@dataclass(frozen=True)
class Monomial:
    """A squarefree monomial in m binary variables, stored as a bitmask.

    Bit ``j`` of ``mask`` is set iff the variable ``z_j`` appears.  The
    constant monomial 1 has mask 0.
    """

    mask: int
    m: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.m):
            raise ValueError(f"mask {self.mask:#x} out of range for m={self.m}")

    @property
    def degree(self) -> int:
        return bin(self.mask).count("1")

    @property
    def variables(self) -> tuple[int, ...]:
        """Ascending indices of the variables in the monomial."""
        return tuple(j for j in range(self.m) if (self.mask >> j) & 1)

    def __str__(self):
        if self.mask == 0:
            return "1"
        return "*".join(f"z{j}" for j in self.variables)


@dataclass(frozen=True)
class MonomialSet:
    """A duplicate-free set of monomials in m variables (the code's I-set)."""

    m: int
    masks: frozenset[int]

    def __post_init__(self):
        bad = [x for x in self.masks if not 0 <= x < (1 << self.m)]
        if bad:
            raise ValueError(f"masks out of range for m={self.m}: {bad[:4]}")

    def __len__(self):
        return len(self.masks)

    def __contains__(self, mask: int) -> bool:
        return mask in self.masks

    def monomials(self) -> list[Monomial]:
        return [Monomial(x, self.m) for x in sorted(self.masks)]


def index_to_monomial_mask(i: int, m: int) -> int:
    """Map generator-row index i to its monomial mask (bit j set iff i_j = 0)."""
    return ~i & ((1 << m) - 1)


def monomial_leq(f: int, g: int, m: int) -> bool:
    """Partial order f <= g on monomial masks.

    For equal degrees, the ascending variable-index vectors must compare
    elementwise.  For deg(f) < deg(g) the requirement is a degree-matching
    divisor g* of g with f <= g*; taking the largest deg(f) variables of g
    is sufficient, so the test reduces to comparing f's variables against
    the top slice of g's.
    """
    fv = [j for j in range(m) if (f >> j) & 1]
    gv = [j for j in range(m) if (g >> j) & 1]
    if len(fv) > len(gv):
        return False
    off = len(gv) - len(fv)
    return all(a <= gv[off + i] for i, a in enumerate(fv))


class CodeSpec:
    """Length, frozen pattern and generator of a monomial (RM/polar) code.

    Instances are immutable after construction (arrays are write-protected)
    and safe to share across workers.
    """

    def __init__(self, m: int, frozen, label: str | None = None):
        if not 0 <= m <= M_MAX:
            raise ValueError(f"m={m} outside [0, {M_MAX}]")
        frozen = np.asarray(frozen, dtype=bool).copy()
        if frozen.shape != (1 << m,):
            raise ValueError(f"frozen vector must have length {1 << m}, got {frozen.shape}")
        frozen.setflags(write=False)
        self.m = m
        self.n = 1 << m
        self.frozen = frozen
        self.info_indices = np.flatnonzero(~frozen)
        self.info_indices.setflags(write=False)
        self.k = int(self.info_indices.size)
        # message coordinate at each info index and k at each frozen one
        self._message_index = np.full(self.n, self.k)
        self._message_index[self.info_indices] = np.arange(self.k)
        self._message_index.setflags(write=False)
        self.label = label if label is not None else f"code(m={m},k={self.k})"
        self._generator = None

    @property
    def rate(self) -> float:
        return self.k / self.n

    @property
    def monomials(self) -> MonomialSet:
        return MonomialSet(self.m, frozenset(index_to_monomial_mask(int(i), self.m)
                                             for i in self.info_indices))

    @property
    def generator(self) -> np.ndarray:
        """k x N generator: rows of G_N at the info indices, increasing index.

        G_N[i, j] = 1 iff the support of j is contained in the support of i.
        """
        if self._generator is None:
            rows = self.info_indices[:, None]
            cols = np.arange(self.n)[None, :]
            g = ((cols & ~rows) == 0).astype(np.uint8)
            g.setflags(write=False)
            self._generator = g
        return self._generator

    def __repr__(self):
        return f"CodeSpec({self.label}, N={self.n}, k={self.k})"

    def __eq__(self, other):
        return (isinstance(other, CodeSpec) and self.m == other.m
                and bool(np.array_equal(self.frozen, other.frozen)))

    def __hash__(self):
        return hash((self.m, self.frozen.tobytes()))


def rm_code(r: int, m: int) -> CodeSpec:
    """RM(r, m): info positions are the indices of Hamming weight >= m - r."""
    if not 0 <= m <= M_MAX:
        raise ValueError(f"m={m} outside [0, {M_MAX}]")
    if not 0 <= r <= m:
        raise ValueError(f"order r={r} outside [0, m={m}]")
    w = _popcount(np.arange(1 << m))
    return CodeSpec(m, w < (m - r), label=f"RM({r},{m})")


def polar_code(m: int, frozen) -> CodeSpec:
    """Code with an explicitly given frozen indicator vector of length 2**m
    (CodeSpec checks m and the length)."""
    frozen = np.asarray(frozen, dtype=bool)
    return CodeSpec(m, frozen, label=f"polar(m={m},k={np.count_nonzero(~frozen)})")


def is_decreasing(spec: CodeSpec) -> bool:
    """True iff the monomial set is downward closed under the partial order.

    Checks closure under the covering moves that generate the order: deleting
    one variable, and replacing one variable by a smaller unused one.
    """
    members = spec.monomials.masks
    m = spec.m
    for g in members:
        vs = [j for j in range(m) if (g >> j) & 1]
        for j in vs:
            if (g & ~(1 << j)) not in members:
                return False
            for jp in range(j):
                if not (g >> jp) & 1:
                    if ((g & ~(1 << j)) | (1 << jp)) not in members:
                        return False
    return True


# _STAGE_MASKS[s]: ones at the bit positions whose bit s is clear
_STAGE_MASKS = (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
                0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF)


def polar_transform(bits) -> np.ndarray:
    """Apply G_N = F^{kron m} to the last axis over GF(2).

    `bits` is an integer or boolean array whose last axis has length
    N = 2**m; a nonzero entry counts as 1.  Returns a new uint8 array of
    0/1 values and leaves `bits` unchanged.  The transform is an
    involution, so it both encodes (u -> u G_N) and inverts
    (x -> x G_N = u).

    Stage s XORs bit i + 2**s into bit i wherever bit s of i is clear.  The
    bits are packed, little-endian, into words of min(N, 64) bits (at least
    a byte); a stage below the word width is
    w ^= (w >> 2**s) & _STAGE_MASKS[s] on every word, and a higher one XORs
    whole words 2**(s - 6) apart.
    """
    bits = np.asarray(bits)
    n = bits.shape[-1]
    if n < 1 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    m = n.bit_length() - 1
    word = np.dtype(f"<u{min(max(n >> 3, 1), 8)}")
    w = np.ascontiguousarray(np.packbits(bits, axis=-1, bitorder="little")).view(word)
    t = np.empty_like(w)
    for s in range(min(m, 6)):
        np.right_shift(w, 1 << s, out=t)
        t &= word.type(_STAGE_MASKS[s] & ((1 << 8 * word.itemsize) - 1))
        w ^= t
    v = w.reshape(-1, w.shape[-1])
    for s in range(6, m):
        blk = v.reshape(v.shape[0], v.shape[1] >> (s - 5), 2, 1 << (s - 6))
        blk[:, :, 0] ^= blk[:, :, 1]
    return np.unpackbits(w.view(np.uint8), axis=-1, count=n, bitorder="little")


def encode(spec: CodeSpec, u) -> np.ndarray:
    """Encode message(s) u of length k into codeword(s) x = u G of length N.

    Message coordinate i multiplies the generator row with the i-th smallest
    info index.  Accepts a single message or a batch with k on the last axis;
    every message value must be 0 or 1.
    """
    u = np.asarray(u)
    if u.shape[-1] != spec.k:
        raise ValueError(f"message length {u.shape[-1]} != k={spec.k}")
    if np.any((u != 0) & (u != 1)):
        raise ValueError("message values must be 0 or 1")
    # gather u G_N's input from u padded with one zero: coordinate i sits at
    # the i-th info index and the zero at every frozen one
    padded = np.zeros(u.shape[:-1] + (spec.k + 1,), dtype=np.uint8)
    padded[..., :spec.k] = u
    return polar_transform(padded.take(spec._message_index, axis=-1))


def in_code(spec: CodeSpec, x) -> bool:
    """Membership test: G_N is an involution, so x is a codeword exactly
    when its transform u = x G_N is zero at every frozen index."""
    x = np.asarray(x, dtype=np.uint8)
    if x.shape != (spec.n,):
        raise ValueError(f"word length {x.shape} != N={spec.n}")
    return not polar_transform(x)[spec.frozen].any()


def split_subcodes(spec: CodeSpec) -> tuple[CodeSpec, CodeSpec]:
    """Halve the code: upper subcode from the first half of the frozen
    vector, lower subcode from the second half (both of length 2**(m-1))."""
    if spec.m < 1:
        raise ValueError("cannot split a length-1 code")
    h = spec.n // 2
    return (CodeSpec(spec.m - 1, spec.frozen[:h]),
            CodeSpec(spec.m - 1, spec.frozen[h:]))


def pointwise_product_in_lower(spec: CodeSpec, xu, xrm) -> bool:
    """Test whether (xu * xrm) componentwise lies in the lower subcode.

    xu must belong to the upper subcode of `spec` and xrm to RM(1, m-1);
    for decreasing monomial codes the product is always a lower-subcode
    member, and this function is the executable check of that fact.
    """
    upper, lower = split_subcodes(spec)
    xu = np.asarray(xu, dtype=np.uint8)
    xrm = np.asarray(xrm, dtype=np.uint8)
    if xu.shape != (upper.n,) or xrm.shape != (upper.n,):
        raise ValueError(f"operands must have length {upper.n}")
    if not in_code(upper, xu):
        raise ValueError("xu is not a codeword of the upper subcode")
    if not in_code(rm_code(min(1, spec.m - 1), spec.m - 1), xrm):
        raise ValueError("xrm is not a codeword of RM(1, m-1)")
    return in_code(lower, xu & xrm)


def enumerate_codebook(spec: CodeSpec) -> np.ndarray:
    """All 2**k codewords as a (2**k, N) array, message counting order.

    Message number c encodes the message with coordinate i = bit i of c.
    Guarded by CODEBOOK_K_MAX since the output grows as 2**k.
    """
    if spec.k > CODEBOOK_K_MAX:
        raise CapacityError(f"k={spec.k} exceeds codebook cap {CODEBOOK_K_MAX}")
    out = np.empty((1 << spec.k, spec.n), dtype=np.uint8)
    for lo, cws in _codebook_chunks(spec):
        out[lo:lo + len(cws)] = cws
    return out


def _codebook_chunks(spec: CodeSpec):
    """The codebook in message counting order, 2**14 codewords at a time:
    yields (number of the first message, codewords) pairs."""
    count, chunk = 1 << spec.k, 1 << 14
    for lo in range(0, count, chunk):
        nums = np.arange(lo, min(lo + chunk, count), dtype=np.uint64)[:, None]
        msgs = ((nums >> np.arange(spec.k, dtype=np.uint64)[None, :]) & 1).astype(np.uint8)
        yield lo, encode(spec, msgs)


def read_frozen_file(path) -> CodeSpec:
    """Load a frozen set from text: line 1 "m=<int>", line 2 an N-char
    string of '0' (info) / '1' (frozen) in index order.  CodeSpec checks m
    and the length, so a bad m is refused before 2**m is formed."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("m="):
        raise ValueError(f"{path}: expected 'm=<int>' then an indicator line")
    pattern = lines[1]
    if set(pattern) - {"0", "1"}:
        raise ValueError(f"{path}: indicator line must be chars of 0/1")
    frozen = np.frombuffer(pattern.encode("ascii"), dtype=np.uint8) == ord("1")
    try:
        return polar_code(int(lines[0][2:]), frozen)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_frozen_file(path, spec: CodeSpec) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"m={spec.m}\n")
        fh.write("".join("1" if f else "0" for f in spec.frozen) + "\n")
