"""Pinned SC decisions.

sha256 of the bytes of sc_decode_batch's (u_hat, x_hat) on seeded batches
of six RM codes at 1, 5, 128 and 8,192 rows.  Row i of a batch is a noisy
random codeword at an LLR scale between 0.2 and 40; every third row (from
row 0) also has exact-zero LLRs, and every third row from row 1 is
saturated at +-L_MAX.  The digests were recorded from the batch-first
kernel and hold for the batch-last one, which runs the same elementwise
operations.  A change that is meant to be bit-exact leaves every digest as
it is; a change to SC's arithmetic (a different boxplus, say) moves them,
and must be declared and the new digests recorded here.

DIGESTS_FLOAT32 pins sc_decode_batch(..., dtype=np.float32), the precision
run_mc decodes SC in, on the same batches, and DISAGREEING_ROWS the number
of rows of each batch whose float32 codeword differs from the float64 one
(0 where not listed).  Both were recorded when the float32 path was added;
the batches are far noisier than any simulated point (every RM(4,8) row
is decoded wrongly in both precisions), so they pin rounding, not error
rates.
"""

import hashlib

import numpy as np
import pytest

from aedcodes import L_MAX, encode, rm_code, sc_decode_batch

ROWS = (1, 5, 128, 8192)

# (r, m): {rows: sha256 of u_hat.tobytes() + x_hat.tobytes()}
DIGESTS = {
    (4, 8): {
        1: "0d4513e35f74c1bdaa686d967f6a2185129afc12f08736ddc6119dc15fe1b417",
        5: "b6a523181256412d6d86216bb21ae94332664b6b84d9abcdb0775ad888e62a1e",
        128: "aa8590ebf48dfdfd99b95e00636d0e352494a1b9b2ca8fe2527bb3c04f5cdb7f",
        8192: "ce971d51642223384e139c62a7484e0ccc99bb36f4d94ab5eb5f3e4c63012a9e",
    },
    (3, 7): {
        1: "b07b78135f81670c06671b90a618e918f8e7de0234e93d90676353909f6e1241",
        5: "33d9cdcdc73c08ce87a644c9e7ed12dd0754b758346cbfe285bbb0633607908d",
        128: "46c559441f2b76306ab77f985f62c5cd165b7380ebe8c82e04495cfad4dbbaed",
        8192: "97b7078aeb41fdd05507bfb3213a2dea82806abd1bbcbb6d63f7cd23a31d4718",
    },
    (2, 5): {
        1: "8b068762c10814a3c6934dc0eeb73f65a2e8d2e4959e49a1fa99a5f4e1cce092",
        5: "16c693e39dfcc51a77e0e1220f9db7b04d221f360edd9b2a590e68368b1d5aa2",
        128: "e0057b4ec0bff214e54bcc48fd0df5f589d6778eb28a449a6519d83eb4b43a0f",
        8192: "b8e85dfadb711b4f5dbaf1d75ed669a50151919319739652c6cc20231df9a37d",
    },
    (1, 4): {
        1: "233ae667cc20320e741318097fae3a242ead6fcd83d1ea5623e43b15edfa9010",
        5: "bd91c32559b2f9bda4a095182097ed55b416896143b65098fc1a57c44dc82a61",
        128: "97dd39983aad9a024063e0ab8da8691a48300d493fc7c167710450b969a0db0b",
        8192: "34be8c405f26cbc9a201160384c75e7f00f8a70afea0d53bf6dfa665aaa6dd0e",
    },
    (0, 3): {
        1: "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
        5: "66d9b4aece3464b778ccb3a60fc6bf534e94f0b9d167de8bdd06e3a1d134a8bc",
        128: "7680d80c754d1417babc7a725387cede2f59122fb8de4bb98aaffacf2a16e3df",
        8192: "1f01876a46b8142b691bbcfdf4ebbcede77f4fd27b5695504ea690f8eb8c28e7",
    },
    (3, 3): {
        1: "4bf7744274ffc508557421a28e0d704ee971196bbdd956b82fe15104906a2947",
        5: "ae6cff606d61f40d94b6ba7ddc9f90a26b989907dff86c010c02a794819a4121",
        128: "7239085be4eb25ebb0c712bebbcb07b4df21778221cff010f40e55fd5c12d9ec",
        8192: "b761fb493a65c074b5d73d2a72cb344c663914664d0782d86a5daffeec6fe6c2",
    },
}


# (r, m): {rows: sha256 of the float32 decode's u_hat.tobytes() + x_hat.tobytes()}
DIGESTS_FLOAT32 = {
    (4, 8): {
        1: "0d4513e35f74c1bdaa686d967f6a2185129afc12f08736ddc6119dc15fe1b417",
        5: "b6a523181256412d6d86216bb21ae94332664b6b84d9abcdb0775ad888e62a1e",
        128: "cc2c122d8846a8727d68cba0f6ce46dac227ebc1b877263c0ecb3b9ae4ad18d2",
        8192: "fe1981592d77398db5f4ac5603d44cf12a5eccc18d0336ffb85a106b15f5f9c9",
    },
    (3, 7): {
        1: "b07b78135f81670c06671b90a618e918f8e7de0234e93d90676353909f6e1241",
        5: "33d9cdcdc73c08ce87a644c9e7ed12dd0754b758346cbfe285bbb0633607908d",
        128: "638a5e95b3276f9ce1b387ba37f940f0c7cdb2636d6beecb7e5a61d9d2385263",
        8192: "fab1e4177b2b3a1d749f622633205ad140f1240317464c3e5a01e84c8eb005d3",
    },
    (2, 5): {
        1: "8b068762c10814a3c6934dc0eeb73f65a2e8d2e4959e49a1fa99a5f4e1cce092",
        5: "16c693e39dfcc51a77e0e1220f9db7b04d221f360edd9b2a590e68368b1d5aa2",
        128: "e0057b4ec0bff214e54bcc48fd0df5f589d6778eb28a449a6519d83eb4b43a0f",
        8192: "b8e85dfadb711b4f5dbaf1d75ed669a50151919319739652c6cc20231df9a37d",
    },
    (1, 4): {
        1: "233ae667cc20320e741318097fae3a242ead6fcd83d1ea5623e43b15edfa9010",
        5: "bd91c32559b2f9bda4a095182097ed55b416896143b65098fc1a57c44dc82a61",
        128: "97dd39983aad9a024063e0ab8da8691a48300d493fc7c167710450b969a0db0b",
        8192: "34be8c405f26cbc9a201160384c75e7f00f8a70afea0d53bf6dfa665aaa6dd0e",
    },
    (0, 3): {
        1: "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
        5: "66d9b4aece3464b778ccb3a60fc6bf534e94f0b9d167de8bdd06e3a1d134a8bc",
        128: "7680d80c754d1417babc7a725387cede2f59122fb8de4bb98aaffacf2a16e3df",
        8192: "1f01876a46b8142b691bbcfdf4ebbcede77f4fd27b5695504ea690f8eb8c28e7",
    },
    (3, 3): {
        1: "4bf7744274ffc508557421a28e0d704ee971196bbdd956b82fe15104906a2947",
        5: "ae6cff606d61f40d94b6ba7ddc9f90a26b989907dff86c010c02a794819a4121",
        128: "7239085be4eb25ebb0c712bebbcb07b4df21778221cff010f40e55fd5c12d9ec",
        8192: "b761fb493a65c074b5d73d2a72cb344c663914664d0782d86a5daffeec6fe6c2",
    },
}

# (r, m): {rows: rows whose float32 and float64 codewords differ}
DISAGREEING_ROWS = {(4, 8): {128: 22, 8192: 1353}, (3, 7): {128: 1, 8192: 70}}


def digest(u, x) -> str:
    return hashlib.sha256(u.tobytes() + x.tobytes()).hexdigest()


def pinned_batch(spec, rows: int) -> np.ndarray:
    rng = np.random.default_rng([spec.m, spec.k, rows])
    msgs = rng.integers(0, 2, (rows, spec.k), dtype=np.uint8)
    bpsk = 1.0 - 2.0 * encode(spec, msgs)
    scale = np.exp(rng.uniform(np.log(0.2), np.log(40.0), (rows, 1)))
    llrs = scale * (bpsk + rng.normal(0.0, 1.0, (rows, spec.n)))
    kind = np.arange(rows) % 3
    zeros = (kind[:, None] == 0) & (rng.random((rows, spec.n)) < 0.1)
    llrs[zeros] = 0.0
    llrs[kind == 1] = L_MAX * np.where(llrs[kind == 1] < 0.0, -1.0, 1.0)
    return llrs


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("r,m", list(DIGESTS))
def test_pinned_sc_decisions(r, m, rows):
    spec = rm_code(r, m)
    u, x = sc_decode_batch(spec, pinned_batch(spec, rows))
    assert digest(u, x) == DIGESTS[r, m][rows]


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("r,m", list(DIGESTS_FLOAT32))
def test_pinned_sc_float32_decisions(r, m, rows):
    spec = rm_code(r, m)
    llrs = pinned_batch(spec, rows)
    u, x = sc_decode_batch(spec, llrs, dtype=np.float32)
    assert digest(u, x) == DIGESTS_FLOAT32[r, m][rows]
    x64 = sc_decode_batch(spec, llrs)[1]
    disagree = int(np.count_nonzero(np.any(x != x64, axis=1)))
    assert disagree == DISAGREEING_ROWS.get((r, m), {}).get(rows, 0)
