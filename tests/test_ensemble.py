"""Ensemble decoding, candidate selection and the commutation checks."""

import numpy as np
import pytest

from aedcodes import (AffineAutomorphism, Bp, EnsembleConfig, Sc, Scl,
                      aed_decode, bp_decode_batch, compile_tables, compose,
                      conjugated_sc_branch, encode, identity_automorphism,
                      in_code, inverse, mlup_decompose, polar_transform,
                      rm_code, sample, sc_decode, sc_decode_batch,
                      scl_decode_batch, verify_lta_absorption,
                      verify_lta_commutation)
from aedcodes.ensemble import decode_branches, decoder_from_dict


def make_frame(spec, rng, sigma=0.7):
    msg = rng.integers(0, 2, spec.k, dtype=np.uint8)
    x = encode(spec, msg)
    y = (1.0 - 2.0 * x) + rng.normal(0, sigma, spec.n)
    return x, y, np.clip(2.0 * y / sigma ** 2, -40, 40)


# ---------------------------------------------------------------------------
# aed_decode

def test_single_identity_branch_is_plain_sc():
    spec = rm_code(2, 4)
    rng = np.random.default_rng(0)
    cfg = EnsembleConfig(1, "ga", Sc())
    for _ in range(20):
        _, y, llr = make_frame(spec, rng)
        xw, wi, cands = aed_decode(spec, y, llr, cfg, [identity_automorphism(4)])
        assert wi == 0 and len(cands) == 1
        assert np.array_equal(xw, sc_decode(spec, llr).x_hat)


def test_lta_branches_all_collapse_to_sc():
    spec = rm_code(2, 5)
    rng = np.random.default_rng(1)
    cfg = EnsembleConfig(6, "lta", Sc(), seed=3)
    perms = cfg.sample_automorphisms(spec.m)
    for _ in range(20):
        _, y, llr = make_frame(spec, rng)
        xw, _, cands = aed_decode(spec, y, llr, cfg, perms)
        plain = sc_decode(spec, llr).x_hat
        assert np.array_equal(xw, plain)
        assert all(np.array_equal(cands.x[j], plain) for j in range(len(cands)))


def test_winner_attains_max_correlation():
    spec = rm_code(2, 5)
    rng = np.random.default_rng(2)
    cfg = EnsembleConfig(8, "ga", Sc(), seed=4)
    perms = cfg.sample_automorphisms(spec.m)
    for _ in range(20):
        _, y, llr = make_frame(spec, rng, sigma=1.0)
        xw, wi, cands = aed_decode(spec, y, llr, cfg, perms)
        rescore = (1.0 - 2.0 * cands.x.astype(float)) @ y
        assert cands.scores[wi] == rescore.max()
        assert np.array_equal(cands.x[wi], xw)


def test_candidates_are_codewords_all_constituents():
    spec = rm_code(2, 5)
    rng = np.random.default_rng(3)
    for constituent in (Sc(), Scl(4), Bp(30, True)):
        cfg = EnsembleConfig(4, "ga", constituent, seed=5)
        perms = cfg.sample_automorphisms(spec.m)
        for _ in range(5):
            _, y, llr = make_frame(spec, rng, sigma=1.0)
            _, _, cands = aed_decode(spec, y, llr, cfg, perms)
            for j in range(len(cands)):
                if np.isfinite(cands.scores[j]):
                    assert in_code(spec, cands.x[j])


def test_tied_scores_go_to_lowest_candidate():
    # y = 0 ties every candidate: the winner is candidate 0 (branch 0, list
    # slot 0), the index argmax gives the Monte-Carlo path, even though
    # branch 0 lists distinct codewords that sort below it
    spec = rm_code(2, 5)
    cfg = EnsembleConfig(3, "ga", Scl(4), seed=2)
    perms = cfg.sample_automorphisms(spec.m)
    llr = np.random.default_rng(2).normal(0, 2, spec.n)
    xw, wi, cands = aed_decode(spec, np.zeros(spec.n), llr, cfg, perms)
    assert len(set(map(bytes, cands.x[:4]))) > 1
    assert wi == 0 == int(np.argmax(cands.scores))
    assert np.array_equal(xw, cands.x[0])


def test_scl_constituent_pools_all_list_candidates():
    spec = rm_code(2, 5)
    rng = np.random.default_rng(4)
    cfg = EnsembleConfig(3, "ga", Scl(4), seed=6)
    perms = cfg.sample_automorphisms(spec.m)
    _, y, llr = make_frame(spec, rng)
    _, _, cands = aed_decode(spec, y, llr, cfg, perms)
    assert len(cands) == 12
    assert np.array_equal(cands.branch, np.repeat(np.arange(3), 4))


def test_branch_outputs_shift_with_codeword_sign_flips():
    # per-branch linearity: flipping the input signs by a codeword shifts
    # every de-interleaved SC candidate by exactly that codeword
    spec = rm_code(2, 4)
    rng = np.random.default_rng(5)
    tables = compile_tables([sample(4, "ga", rng) for _ in range(4)])
    llr = rng.normal(0, 2, (1, spec.n))
    cw = encode(spec, rng.integers(0, 2, spec.k, dtype=np.uint8))
    x0, _, _, _ = decode_branches(spec, llr, tables, Sc())
    x1, _, _, _ = decode_branches(spec, llr * (1.0 - 2.0 * cw), tables, Sc())
    assert np.array_equal(x1[0], x0[0] ^ cw)


def test_aed_parameter_errors():
    spec = rm_code(1, 3)
    cfg = EnsembleConfig(2, "ga", Sc())
    y = np.zeros(8)
    with pytest.raises(ValueError):
        aed_decode(spec, y, y, cfg, [])
    with pytest.raises(ValueError):
        aed_decode(spec, y, y, cfg, [identity_automorphism(3)])
    with pytest.raises(ValueError):
        EnsembleConfig(0, "ga", Sc())


def test_ensemble_with_identity_never_loses_to_plain_sc_much():
    # paired frames: the identity branch keeps the plain output in the
    # candidate list, so the ensemble only loses on genuine ML boundaries
    spec = rm_code(2, 5)
    rng = np.random.default_rng(6)
    cfg = EnsembleConfig(4, "ga", Sc(), seed=7, include_identity=True)
    perms = cfg.sample_automorphisms(spec.m)
    err_plain = err_aed = 0
    frames = 400
    for _ in range(frames):
        x, y, llr = make_frame(spec, rng, sigma=0.85)
        err_plain += not np.array_equal(sc_decode(spec, llr).x_hat, x)
        xw, _, _ = aed_decode(spec, y, llr, cfg, perms)
        err_aed += not np.array_equal(xw, x)
    sigma_bound = 2.0 * np.sqrt(max(err_plain, 1)) + 1
    assert err_aed <= err_plain + sigma_bound


# ---------------------------------------------------------------------------
# verification operations

def test_lta_commutation_clean():
    rep = verify_lta_commutation(rm_code(3, 7), 100, np.random.default_rng(8))
    assert rep.passed and rep.trials == 100
    assert "ok" in str(rep)


def test_lta_commutation_rejects_non_decreasing():
    from aedcodes import polar_code
    frozen = np.ones(8, dtype=bool)
    frozen[[0, 3]] = False  # {z0z1z2, z1z2}: missing divisors
    spec = polar_code(3, frozen)
    with pytest.raises(ValueError):
        verify_lta_commutation(spec, 10, np.random.default_rng(9))
    with pytest.raises(ValueError):
        verify_lta_absorption(spec, 10, np.random.default_rng(9))


def test_malformed_automorphism_is_rejected_at_construction():
    with pytest.raises(ValueError):
        AffineAutomorphism(3, (0b011, 0b011, 0b100), 0)


def test_lta_absorption_clean():
    rep = verify_lta_absorption(rm_code(2, 5), 200, np.random.default_rng(10))
    assert rep.passed


def test_conjugated_branch_lta_equals_plain():
    spec = rm_code(2, 5)
    rng = np.random.default_rng(11)
    for _ in range(30):
        llr = rng.normal(0, 2, spec.n)
        aut = sample(spec.m, "lta", rng)
        assert np.array_equal(conjugated_sc_branch(spec, aut, llr),
                              sc_decode(spec, llr).x_hat)


def test_conjugated_branch_uta_pi_fixed_point():
    # pure upper-triangular or pure permutation elements factor with an
    # identity lower part, so the branch is trivially its own reduction;
    # for products the equality still holds through the factorization
    spec = rm_code(2, 5)
    rng = np.random.default_rng(12)
    ident = identity_automorphism(spec.m)
    for _ in range(20):
        llr = rng.normal(0, 2, spec.n)
        for sub in ("uta", "pi"):
            aut = sample(spec.m, sub, rng)
            lt, ut, pt = mlup_decompose(aut)
            assert lt.rows == ident.rows
        aut = compose(sample(spec.m, "uta", rng), sample(spec.m, "pi", rng))
        lt, ut, pt = mlup_decompose(aut)
        assert np.array_equal(conjugated_sc_branch(spec, aut, llr),
                              conjugated_sc_branch(spec, compose(ut, pt), llr))


def constituent_candidates(spec, llrs, constituent):
    """The constituent's codeword candidates of every row, (rows, L, N)."""
    if isinstance(constituent, Sc):
        return sc_decode_batch(spec, llrs)[1][:, None, :]
    if isinstance(constituent, Scl):
        return scl_decode_batch(spec, llrs, constituent.list_size)[1]
    u = bp_decode_batch(spec, llrs, constituent.max_iters, constituent.stopping,
                        constituent.reduce_graph)[0]
    return polar_transform(u)[:, None, :]


@pytest.mark.parametrize("constituent", [Sc(), Scl(4), Bp(5)],
                         ids=["sc", "scl4", "bp5"])
def test_branch_orientation_gather_then_inverse(constituent):
    """Candidate j of decode_branches is the constituent's estimate on the
    gathered input llr[t_j], read back through the explicit inverse table:
    the compiled table of the inverse automorphism.  Shared (M, N) tables
    and the same tables repeated per frame (F, M, N) give identical
    results."""
    spec = rm_code(2, 5)
    rng = np.random.default_rng(31)
    fsz, msz = 3, 4
    auts = [sample(spec.m, "ga", rng) for _ in range(msz)]
    tables = compile_tables(auts)
    llrs = rng.normal(0.5, 2.0, (fsz, spec.n))
    shared = decode_branches(spec, llrs, tables, constituent)
    per_frame = decode_branches(spec, llrs, np.repeat(tables[None], fsz, axis=0),
                                constituent)
    for got_shared, got_per_frame in zip(shared, per_frame):
        assert np.array_equal(got_shared, got_per_frame)
    x_de, branch = shared[:2]
    lsz = x_de.shape[1] // msz
    assert np.array_equal(branch[0], np.arange(msz).repeat(lsz))
    for j, (aut, t) in enumerate(zip(auts, tables)):
        inv_t = compile_tables([inverse(aut)])[0]
        assert np.array_equal(inv_t[t], np.arange(spec.n))
        x = constituent_candidates(spec, llrs[:, t], constituent)
        assert np.array_equal(x_de[:, j * lsz:(j + 1) * lsz], x[:, :, inv_t])


def test_paper_form_branch_equals_inverse_labelled_conjugated_branch():
    # the two conjugation orientations enumerate the same branch set: the
    # ensemble branch under pi equals the conjugated branch under pi^{-1}
    spec = rm_code(2, 4)
    rng = np.random.default_rng(13)
    for _ in range(20):
        llr = rng.normal(0, 2, spec.n)
        aut = sample(spec.m, "ga", rng)
        fwd, inv_t = compile_tables([aut, inverse(aut)])
        paper = sc_decode(spec, llr[fwd]).x_hat[inv_t]
        assert np.array_equal(paper, conjugated_sc_branch(spec, inverse(aut), llr))


# ---------------------------------------------------------------------------
# manifests

def test_constituent_dict_roundtrip():
    ensembles = (EnsembleConfig(5, "uta", Scl(2), seed=99),
                 EnsembleConfig(3, "pi", Bp(20, True, True), seed=4,
                                resample_per_frame=True, dedupe=False,
                                include_identity=True))
    for dec in (Sc(), Scl(16), Bp(100, False, True), *ensembles):
        assert decoder_from_dict(dec.to_dict(4)) == dec
    with pytest.raises(ValueError):
        decoder_from_dict({"kind": "viterbi"})


@pytest.mark.parametrize("d", [
    {"kind": "bp", "stopping": "false"},
    {"kind": "bp", "reduce_graph": 0},
    {"kind": "bp", "max_iters": 20.0},
    {"kind": "bp", "max_iters": True},
    {"kind": "scl", "list_size": 2.7},
    {"kind": "scl", "list_size": "4"},
    {"M": 2, "subgroup": "ga", "resample_per_frame": "false", "constituent": {"kind": "sc"}},
    {"M": 2.0, "subgroup": "ga", "constituent": {"kind": "sc"}},
    {"M": 2, "subgroup": "ga", "seed": False, "constituent": {"kind": "sc"}},
    {"M": 2, "subgroup": 1, "constituent": {"kind": "sc"}},
    {"M": 2, "subgroup": "ga", "dedupe": 1, "constituent": {"kind": "sc"}},
    {"M": 2, "subgroup": "ga", "constituent": {"kind": "scl", "list_size": 1.5}},
    {"kind": "scl", "list_sise": 4},
    {"kind": "sc", "list_size": 4},
    {"M": 2, "subgroup": "ga", "sise": 2, "constituent": {"kind": "sc"}},
    {"M": 2, "subgroup": "ga", "constituent": {"kind": "sc", "max_iters": 5}},
    {"subgroup": "ga", "constituent": {"kind": "sc"}},
    {"M": 2, "constituent": {"kind": "sc"}},
    {"M": 2, "subgroup": "ga", "constituent": "sc"},
])
def test_manifest_values_are_not_converted(d):
    """A manifest value of the wrong JSON type is an error, not a value
    converted into something the run never used ("false" is truthy); so
    are an unknown key (a misspelt one would replay as its default) and a
    missing required one."""
    with pytest.raises(ValueError):
        decoder_from_dict(d)


def test_ensemble_manifest_lists_fixed_automorphisms():
    cfg = EnsembleConfig(5, "uta", Scl(2), seed=99)
    man = cfg.to_dict(4)
    assert man["M"] == 5 and man["subgroup"] == "uta"
    assert len(man["automorphisms"]) == 5
    from aedcodes import parse_automorphism
    parsed = [parse_automorphism(t) for t in man["automorphisms"]]
    assert parsed == cfg.sample_automorphisms(4)
    man2 = EnsembleConfig(5, "uta", Scl(2), seed=99,
                          resample_per_frame=True).to_dict(4)
    assert "automorphisms" not in man2
