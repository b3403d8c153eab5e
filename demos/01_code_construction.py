"""Constructing Reed-Muller and polar codes from monomial sets.

A length-2^m code is fixed by its frozen indicator.  Reed-Muller codes
freeze every index whose Hamming weight is below m - r; generic polar codes
take the indicator as given, for instance from a frozen-set text file.
"""

import os
import tempfile

import numpy as np

from aedcodes import (encode, in_code, is_decreasing, polar_code,
                      read_frozen_file, rm_code, split_subcodes,
                      write_frozen_file)

spec = rm_code(3, 7)
print(f"{spec.label}: N={spec.n}, k={spec.k}, rate={spec.rate:.3f}")
print("first info indices:", spec.info_indices[:8], "...")

# every info position corresponds to one monomial: row index i carries the
# product of the variables z_j with bit j of i cleared
for mono in spec.monomials.monomials()[:5]:
    print("  monomial", mono, "degree", mono.degree)

# Reed-Muller codes are decreasing monomial codes; ad-hoc frozen sets
# usually are not
print("RM(3,7) decreasing:", is_decreasing(spec))
frozen = np.ones(8, dtype=bool)
frozen[[0, 3]] = False
print("{z0z1z2, z1z2} decreasing:", is_decreasing(polar_code(3, frozen)))

# encoding is the Hadamard-power product u G, computed with the butterfly
rng = np.random.default_rng(1)
u = rng.integers(0, 2, spec.k, dtype=np.uint8)
x = encode(spec, u)
print("codeword weight:", int(x.sum()), " in code:", in_code(spec, x))

# halving the frozen vector yields the classic Plotkin pair
upper, lower = split_subcodes(spec)
print(f"split: upper {upper.label} (k={upper.k}), lower {lower.label} (k={lower.k})")
print("upper monomials inside lower:",
      upper.monomials.masks <= lower.monomials.masks)

# frozen sets travel as a two-line text format
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "rm37.frozen")
    write_frozen_file(path, spec)
    print("round trip equal:", read_frozen_file(path) == spec)
