"""Pinned BP decisions.

sha256 of the bytes of bp_decode_batch's (u_hat, x_hat, iterations,
converged) on seeded batches of RM(4,8), RM(2,5) and RM(1,4) at 1, 40,
1,024 and 3,000 rows, in float32 and float64, with and without the
stopping test.  Row i of a batch is a random codeword through a BI-AWGN
channel whose noise level is drawn per row, so that with stopping some
rows converge, at different iterations, and some run to max_iters.  The
digests were recorded from the kernel that split its rows into 2,048-row
slabs and compacted converged rows lazily.  A change that is meant to be
bit-exact (how rows are batched, when the workspace is compacted) leaves
every digest as it is; a change to BP's arithmetic moves them, and must be
declared and the new digests recorded here.
"""

import hashlib

import numpy as np
import pytest

from aedcodes import bp_decode_batch, encode, rm_code, saturate

# (r, m, rows, dtype, stopping, max_iters): sha256 of
# u_hat.tobytes() + x_hat.tobytes() + iterations.tobytes() + converged.tobytes()
DIGESTS = {
    (4, 8, 1, "float64", True, 30):
        "6d507358f688772a51f1fc3505a06431e5cc0388a2f63b366c4bb34d303d1136",
    (4, 8, 40, "float32", True, 30):
        "408c5492829077edde3e1e0eb6c72d60790286b47c4bc468c1d7165cddff58ca",
    (4, 8, 40, "float64", False, 10):
        "92583ddad3bdcac8bf7178e28b44b90f9f1463303df86109408be3bea51eb04b",
    (4, 8, 1024, "float64", True, 20):
        "41e8cf6f6b88f9877c70d5250388a3e3b2e76070b9a8b9a70cac60e68c00858b",
    (4, 8, 3000, "float32", True, 12):
        "106bcead20a3c9fc5c47c94bbe0ee651900b8e2700f8dba86e3c6a7f3110bba9",
    (2, 5, 1, "float32", False, 20):
        "d378cb49343d7a480dadc9df55ef66d4655b31999017c9f6aafcf38eb42de7b8",
    (2, 5, 40, "float64", True, 50):
        "746c44a3d3c0749a498cd28665f31707e8ef8dd1efb58711e2551059b05ed5c0",
    (2, 5, 1024, "float32", True, 50):
        "27e86f80ca37c53dec7ed3e387819f0ed4c7b672c12d578d0bf67fa3df7e2ea4",
    (2, 5, 3000, "float64", True, 50):
        "188b135f83e8ef661523638062eda54c3ac55c156542a24d4aa1fbd0fceb47ba",
    (2, 5, 3000, "float32", False, 20):
        "2ec9be9d02f3c0ef9c7067f67d2f4dc90787aadf68949452f77136889627d212",
    (1, 4, 1, "float64", True, 50):
        "671ab1240b014215ef7b88f9db50f5ccfc2047333b4c6d6e2db3c073b87ae88a",
    (1, 4, 40, "float32", False, 20):
        "b4eb5b5bc89429036180413ebb8809fd3e53292c5748a310122c9b7e4a18a5ca",
    (1, 4, 1024, "float64", False, 20):
        "e129fc5ae05063f455f65618ead7ede8b0c976a11fcbf8a63b3247186eb7694b",
    (1, 4, 3000, "float32", True, 50):
        "2ceebd1d0b2535025f5c517c24233a982c9d1bdf97a6beb97fa0d0d858d1efa6",
    (1, 4, 3000, "float64", True, 50):
        "2604748a04f872f6bf78054dd21f80b6cdee090559b4c1306424cce0a9eac23f",
}


def pinned_batch(spec, rows: int) -> np.ndarray:
    """Channel LLRs 2 y / sigma^2 of random codewords, sigma per row
    log-uniform on [0.5, 1.2], saturated to +-L_MAX."""
    rng = np.random.default_rng([spec.m, spec.k, rows])
    msgs = rng.integers(0, 2, (rows, spec.k), dtype=np.uint8)
    sigma = np.exp(rng.uniform(np.log(0.5), np.log(1.2), (rows, 1)))
    y = 1.0 - 2.0 * encode(spec, msgs) + sigma * rng.normal(0.0, 1.0, (rows, spec.n))
    return saturate(2.0 * y / sigma ** 2)


@pytest.mark.parametrize("case", list(DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_pinned_bp_decisions(case):
    r, m, rows, dtype, stopping, max_iters = case
    spec = rm_code(r, m)
    u, x, iters, conv = bp_decode_batch(spec, pinned_batch(spec, rows), max_iters,
                                        stopping, dtype=np.dtype(dtype).type)
    if stopping and rows > 1:  # mixed convergence, at more than one iteration
        assert 0 < np.count_nonzero(conv) < rows
        assert np.unique(iters[conv]).size > 1
    digest = hashlib.sha256(u.tobytes() + x.tobytes() + iters.tobytes()
                            + conv.tobytes()).hexdigest()
    assert digest == DIGESTS[case]
