"""The three constituent decoders on one noisy transmission.

SC sweeps the butterfly graph once, SCL carries a metric-sorted path list,
and BP iterates message passing with a re-encoding stopping test.
"""

import numpy as np

from aedcodes import (ChannelConfig, bp_decode_batch, build_frames, rm_code,
                      sc_decode_batch, scl_decode_batch)

spec = rm_code(2, 6)
ch = ChannelConfig(ebn0_db=2.5, rate=spec.rate, seed=5)

# frame 0 of a Monte-Carlo run on this channel; build_frames returns
# batches, here a batch of one: codewords x and LLR rows llr, each (1, N)
_, x, _, llr = build_frames(spec, ch, 0, 1)
print(f"{spec.label} at {ch.ebn0_db} dB (sigma={ch.sigma:.3f})")

_, x_sc = sc_decode_batch(spec, llr)
print("SC   correct:", np.array_equal(x_sc, x))

_, x_scl, pm = scl_decode_batch(spec, llr, 8)
print("SCL-8 best-path correct:", np.array_equal(x_scl[:, 0], x))
print("     path metrics:", pm[0].round(2))

_, x_bp, iters, conv = bp_decode_batch(spec, llr, 100, True)
print(f"BP   correct: {np.array_equal(x_bp, x)}  "
      f"converged={conv[0]} after {iters[0]} iterations")

# a quick error-rate feel: the list decoder dominates plain SC frame by
# frame, on one batch of frames for each decoder
frames = 300
_, x, _, llr = build_frames(spec, ch, 0, frames)
sc_err = np.any(sc_decode_batch(spec, llr)[1] != x, axis=1).sum()
scl_err = np.any(scl_decode_batch(spec, llr, 8)[1][:, 0] != x, axis=1).sum()
print(f"over {frames} frames: SC {sc_err} block errors, SCL-8 {scl_err}")
