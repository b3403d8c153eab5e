"""Automorphism ensemble decoding and why the subgroup choice matters.

M branches decode permuted copies of the channel output; after
de-interleaving, the candidate with the best correlation to the received
vector wins.  Lower-triangular permutations commute with SC decoding, so
they add nothing; the full group (or its upper-triangular part) does.
"""

import numpy as np

from aedcodes import (ChannelConfig, EnsembleConfig, Sc, build_frames,
                      compile_tables, compose, conjugated_sc_branch,
                      decode_branches, mlup_decompose, rm_code, sample,
                      sc_decode_batch, select_winners, verify_lta_commutation)

spec = rm_code(3, 7)
ch = ChannelConfig(3.0, spec.rate, seed=9)
rng = np.random.default_rng(9)

# the first frame of a Monte-Carlo run on this channel that plain SC
# decodes wrongly, as a batch of one
_, xs, ys, llrs = build_frames(spec, ch, 0, 100)
f = int(np.argmax(np.any(sc_decode_batch(spec, llrs)[1] != xs, axis=1)))
x, y, llr = xs[f], ys[f:f + 1], llrs[f:f + 1]
print(f"frame {f} of the run")

cfg = EnsembleConfig(size=8, subgroup="ga", constituent=Sc(), seed=1)
tables = compile_tables(cfg.sample_automorphisms(spec.m))
# candidates (1, 8, N), one per branch
cands, branch, _, valid = decode_branches(spec, llr, tables, cfg.constituent)
(winner,), (scores,) = select_winners(cands, valid, y)
_, (x_sc,) = sc_decode_batch(spec, llr)
print(f"plain SC correct: {np.array_equal(x_sc, x)}")
print(f"aut-8-SC correct: {np.array_equal(cands[0, winner], x)} "
      f"(winner branch {branch[0, winner]})")
print("candidate correlations:", scores.round(1))

# lower-triangular branches all collapse onto the plain SC output
lta_cfg = EnsembleConfig(size=4, subgroup="lta", constituent=Sc(), seed=2)
lta_cands = decode_branches(spec, llr,
                            compile_tables(lta_cfg.sample_automorphisms(spec.m)),
                            lta_cfg.constituent)[0][0]
collapsed = all(np.array_equal(c, x_sc) for c in lta_cands)
print("all lta candidates equal plain SC:", collapsed)

# the commutation behind that collapse, checked executably
print(verify_lta_commutation(spec, trials=200, rng=np.random.default_rng(3)))

# and the absorption: only the upper-triangular and shuffle parts of a
# sampled permutation change what an SC branch can see
aut = sample(spec.m, "ga", rng)
lt, ut, pt = mlup_decompose(aut)
full = conjugated_sc_branch(spec, aut, llr[0])
reduced = conjugated_sc_branch(spec, compose(ut, pt), llr[0])
print("branch(pi) == branch(U o P):", np.array_equal(full, reduced))
