"""Affine automorphisms of the code coordinates.

Pairs (A, b) with invertible A act on bit positions through the binary
expansion of the index; compiled to index tables they map the codebook
onto itself.  Four families matter here: the full group ("ga"),
the lower/upper unitriangular subgroups ("lta"/"uta") and the permutation
matrices ("pi", the stage shuffles).
"""

import numpy as np

from aedcodes import (compile_tables, compose, enumerate_codebook,
                      format_automorphism, group_order, in_code, inverse,
                      mlup_decompose, rm_code, sample)

rng = np.random.default_rng(7)
m = 4
spec = rm_code(2, m)

aut = sample(m, "ga", rng)
print("sampled:", format_automorphism(aut))
table = compile_tables([aut])[0]
print("compiled table:", table)

# permuted codewords stay codewords (a gather through the table permutes)
cw = enumerate_codebook(spec)[123]
print("permuted codeword still in code:", in_code(spec, cw[table]))

# group sizes grow quickly with m
for sub in ("pi", "lta", "ga"):
    print(f"|{sub}({m})| = {group_order(sub, m)}")

# composition and inversion work on the (A, b) pairs and commute with
# compilation: table of (p o q) sends i to p(q(i))
p, q = sample(m, "ga", rng), sample(m, "ga", rng)
tp, tq, tpq, tinv = compile_tables([p, q, compose(p, q), inverse(p)])
print("homomorphism check:", np.array_equal(tpq, tp[tq]))
print("inverse check:", np.array_equal(tinv[tp], np.arange(1 << m)))

# every element factors as lower x upper x permutation; the lower factor
# carries the offset
lt, ut, pt = mlup_decompose(aut)
print("factor shapes:", lt.is_lower_unitriangular, ut.is_upper_unitriangular,
      pt.is_permutation)
print("recomposes exactly:", compose(compose(lt, ut), pt) == aut)
