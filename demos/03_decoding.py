"""The three constituent decoders on one noisy transmission.

SC sweeps the butterfly graph once, SCL carries a metric-sorted path list,
and BP iterates message passing with a re-encoding stopping test.
"""

import numpy as np

from aedcodes import (ChannelConfig, bp_decode_batch, encode, rm_code,
                      sc_decode_batch, scl_decode_batch, transmit)

spec = rm_code(2, 6)
ch = ChannelConfig(ebn0_db=2.5, rate=spec.rate, seed=5)
rng = np.random.default_rng(5)

u = rng.integers(0, 2, spec.k, dtype=np.uint8)
x = encode(spec, u)
y, llr = transmit(spec, u, ch, rng)
print(f"{spec.label} at {ch.ebn0_db} dB (sigma={ch.sigma:.3f})")

# every decoder takes a batch of LLR rows; llr[None] is a batch of one
_, x_sc = sc_decode_batch(spec, llr[None])
print("SC   correct:", np.array_equal(x_sc[0], x))

_, x_scl, pm = scl_decode_batch(spec, llr[None], 8)
print("SCL-8 best-path correct:", np.array_equal(x_scl[0, 0], x))
print("     path metrics:", pm[0].round(2))

_, x_bp, iters, conv = bp_decode_batch(spec, llr[None], 100, True)
print(f"BP   correct: {np.array_equal(x_bp[0], x)}  "
      f"converged={conv[0]} after {iters[0]} iterations")

# a quick error-rate feel: the list decoder dominates plain SC frame by frame
frames, sc_err, scl_err = 300, 0, 0
for _ in range(frames):
    u = rng.integers(0, 2, spec.k, dtype=np.uint8)
    x = encode(spec, u)
    _, llr = transmit(spec, u, ch, rng)
    sc_err += not np.array_equal(sc_decode_batch(spec, llr[None])[1][0], x)
    scl_err += not np.array_equal(scl_decode_batch(spec, llr[None], 8)[1][0, 0], x)
print(f"over {frames} frames: SC {sc_err} block errors, SCL-8 {scl_err}")
