"""Ensemble decoding, candidate selection and the commutation checks."""

import json

import numpy as np
import pytest

from aedcodes import (AffineAutomorphism, Bp, EnsembleConfig, Sc, Scl,
                      bp_decode_batch, compile_tables, compose,
                      conjugated_sc_branch, decode_branches, encode,
                      format_automorphism,
                      identity_automorphism, in_code, inverse, mlup_decompose, polar_transform,
                      rm_code, sample, sc_decode_batch,
                      scl_decode_batch, verify_lta_absorption,
                      verify_lta_commutation)
from aedcodes.cli import UsageError, _load_run, _manifest, build_parser
from aedcodes.ensemble import select_winners


def make_frame(spec, rng, sigma=0.7):
    msg = rng.integers(0, 2, spec.k, dtype=np.uint8)
    x = encode(spec, msg)
    y = (1.0 - 2.0 * x) + rng.normal(0, sigma, spec.n)
    return x, y, np.clip(2.0 * y / sigma ** 2, -40, 40)


# ---------------------------------------------------------------------------
# ensemble decoding: decode_branches, then select_winners

def make_frames(spec, rng, frames, sigma=0.7):
    """`frames` make_frame draws, in order, stacked into (F, N) arrays."""
    return tuple(np.stack(a) for a in
                 zip(*(make_frame(spec, rng, sigma) for _ in range(frames))))


def test_single_identity_branch_is_plain_sc():
    spec = rm_code(2, 4)
    rng = np.random.default_rng(0)
    cfg = EnsembleConfig(1, "ga", Sc())
    _, y, llr = make_frames(spec, rng, 20)
    x_de, _, _, valid = decode_branches(
        spec, llr, compile_tables([identity_automorphism(4)]), cfg.constituent)
    win, _ = select_winners(x_de, valid, y)
    assert np.all(win == 0) and x_de.shape[1] == 1
    assert np.array_equal(x_de[:, 0], sc_decode_batch(spec, llr)[1])


def test_lta_branches_all_collapse_to_sc():
    spec = rm_code(2, 5)
    rng = np.random.default_rng(1)
    cfg = EnsembleConfig(6, "lta", Sc(), seed=3)
    tables = compile_tables(cfg.sample_automorphisms(spec.m))
    _, y, llr = make_frames(spec, rng, 20)
    x_de, _, _, valid = decode_branches(spec, llr, tables, cfg.constituent)
    win, _ = select_winners(x_de, valid, y)
    plain = sc_decode_batch(spec, llr)[1]
    assert np.array_equal(x_de[np.arange(20), win], plain)
    assert np.array_equal(x_de, np.broadcast_to(plain[:, None], x_de.shape))


def test_winner_attains_max_correlation():
    spec = rm_code(2, 5)
    rng = np.random.default_rng(2)
    cfg = EnsembleConfig(8, "ga", Sc(), seed=4)
    tables = compile_tables(cfg.sample_automorphisms(spec.m))
    _, y, llr = make_frames(spec, rng, 20, sigma=1.0)
    x_de, _, _, valid = decode_branches(spec, llr, tables, cfg.constituent)
    win, scores = select_winners(x_de, valid, y)
    for f, wi in enumerate(win):
        rescore = (1.0 - 2.0 * x_de[f].astype(float)) @ y[f]
        assert scores[f, wi] == rescore.max()


def test_candidates_are_codewords_all_constituents():
    spec = rm_code(2, 5)
    rng = np.random.default_rng(3)
    for constituent in (Sc(), Scl(4), Bp(30, True)):
        cfg = EnsembleConfig(4, "ga", constituent, seed=5)
        tables = compile_tables(cfg.sample_automorphisms(spec.m))
        _, y, llr = make_frames(spec, rng, 5, sigma=1.0)
        x_de, _, _, valid = decode_branches(spec, llr, tables, cfg.constituent)
        _, scores = select_winners(x_de, valid, y)
        for f, c in zip(*np.nonzero(np.isfinite(scores))):
            assert in_code(spec, x_de[f, c])


def test_tied_scores_go_to_lowest_candidate():
    # y = 0 ties every candidate: the winner is candidate 0 (branch 0, list
    # slot 0), the index argmax gives the Monte-Carlo path, even though
    # branch 0 lists distinct codewords that sort below it
    spec = rm_code(2, 5)
    cfg = EnsembleConfig(3, "ga", Scl(4), seed=2)
    tables = compile_tables(cfg.sample_automorphisms(spec.m))
    llr = np.random.default_rng(2).normal(0, 2, spec.n)
    x_de, _, _, valid = decode_branches(spec, llr[None], tables, cfg.constituent)
    win, scores = select_winners(x_de, valid, np.zeros((1, spec.n)))
    assert len(set(map(bytes, x_de[0, :4]))) > 1
    assert win[0] == 0 == int(np.argmax(scores[0]))


def test_scl_constituent_pools_all_list_candidates():
    spec = rm_code(2, 5)
    rng = np.random.default_rng(4)
    cfg = EnsembleConfig(3, "ga", Scl(4), seed=6)
    tables = compile_tables(cfg.sample_automorphisms(spec.m))
    _, _, llr = make_frame(spec, rng)
    x_de, branch, _, _ = decode_branches(spec, llr[None], tables, cfg.constituent)
    assert x_de.shape[1] == 12
    assert np.array_equal(branch[0], np.repeat(np.arange(3), 4))


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


@pytest.mark.parametrize("change,exc", [
    ({"size": 2.5}, TypeError),
    ({"size": 3.0}, TypeError),
    ({"size": True}, TypeError),
    ({"size": "3"}, TypeError),
    ({"size": 0}, ValueError),
    ({"size": -2}, ValueError),
    ({"subgroup": "GA"}, ValueError),
    ({"subgroup": "affine"}, ValueError),
    ({"constituent": "sc"}, TypeError),
    ({"constituent": EnsembleConfig(2, "ga", Sc())}, TypeError),
], ids=["size-float", "size-integral-float", "size-bool", "size-str", "size-zero",
        "size-negative", "subgroup-case", "subgroup-unknown", "constituent-str",
        "constituent-ensemble"])
def test_ensemble_config_refuses_what_no_run_can_use(change, exc):
    """The size is an integer >= 1 other than a bool (a float size ran
    with its ceiling and wrote the float to the CSV and the manifest), the
    subgroup one of SUBGROUPS and the constituent Sc, Scl or Bp; anything
    else fails when the config is built, not later in a run."""
    with pytest.raises(exc):
        EnsembleConfig(**{"size": 3, "subgroup": "ga", "constituent": Sc(), **change})
    assert EnsembleConfig(np.int64(3), "pi", Bp(5)).size == 3


def test_ensemble_with_identity_never_loses_to_plain_sc_much():
    # paired frames: the identity branch keeps the plain output in the
    # candidate list, so the ensemble only loses on genuine ML boundaries
    spec = rm_code(2, 5)
    rng = np.random.default_rng(6)
    cfg = EnsembleConfig(3, "ga", Sc(), seed=7)
    auts = [identity_automorphism(spec.m), *cfg.sample_automorphisms(spec.m)]
    assert [format_automorphism(a) for a in auts] == [
        "m=5; A=10000,01000,00100,00010,00001; b=00000",
        "m=5; A=01111,00101,10101,00111,01001; b=00011",
        "m=5; A=01101,11001,01010,11111,01110; b=01100",
        "m=5; A=11111,01110,10011,10111,01011; b=00101"]
    tables = compile_tables(auts)
    x, y, llr = make_frames(spec, rng, 400, sigma=0.85)
    err_plain = int(np.any(sc_decode_batch(spec, llr)[1] != x, axis=1).sum())
    x_de, _, _, valid = decode_branches(spec, llr, tables, cfg.constituent)
    win, _ = select_winners(x_de, valid, y)
    err_aed = int(np.any(x_de[np.arange(400), win] != x, axis=1).sum())
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
                              sc_decode_batch(spec, llr[None])[1][0])


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
    u = bp_decode_batch(spec, llrs, constituent.max_iters, constituent.stopping)[0]
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


@pytest.mark.parametrize("per_frame", [False, True], ids=["shared", "per-frame"])
@pytest.mark.parametrize("constituent", [Sc(), Scl(2), Bp(5)],
                         ids=["sc", "scl2", "bp5"])
def test_branch_rows_are_gathered_batch_last_and_scattered_per_branch(
        monkeypatch, constituent, per_frame):
    """decode_branches gathers the chunk's branch rows into one (N, F*M)
    array and hands the kernel its transpose, so SC reads that array as its
    channel stage in place.  Its candidates equal each branch's own gather
    llr_f[t], decode and scatter out[t] = x, for shared (M, N) tables and
    distinct per-frame (F, M, N) ones."""
    import aedcodes.simulation as simulation
    spec = rm_code(2, 5)
    rng = np.random.default_rng(32)
    fsz, msz = 3, 4
    tables = compile_tables([sample(spec.m, "ga", rng)
                             for _ in range(fsz * msz if per_frame else msz)])
    tables = tables.reshape(fsz, msz, spec.n) if per_frame else tables
    llrs = rng.normal(0.5, 2.0, (fsz, spec.n))
    batch_last = []
    sc_decode = simulation.sc_decode_batch

    def spy(spec, rows, *args, **kwargs):
        batch_last.append(rows.T.flags.c_contiguous)
        return sc_decode(spec, rows, *args, **kwargs)

    monkeypatch.setattr(simulation, "sc_decode_batch", spy)
    x_de, branch, _, _ = decode_branches(spec, llrs, tables, constituent)
    assert batch_last == ([True] if isinstance(constituent, Sc) else [])
    lsz = x_de.shape[1] // msz
    for f in range(fsz):
        for j, t in enumerate(tables[f] if per_frame else tables):
            x = constituent_candidates(spec, llrs[f, t][None], constituent)[0]
            want = np.empty_like(x)
            want[:, t] = x
            assert np.array_equal(x_de[f, j * lsz:(j + 1) * lsz], want), (f, j)
            assert np.all(branch[f, j * lsz:(j + 1) * lsz] == j)


def test_paper_form_branch_equals_inverse_labelled_conjugated_branch():
    # the two conjugation orientations enumerate the same branch set: the
    # ensemble branch under pi equals the conjugated branch under pi^{-1}
    spec = rm_code(2, 4)
    rng = np.random.default_rng(13)
    for _ in range(20):
        llr = rng.normal(0, 2, spec.n)
        aut = sample(spec.m, "ga", rng)
        fwd, inv_t = compile_tables([aut, inverse(aut)])
        paper = sc_decode_batch(spec, llr[None, fwd])[1][0][inv_t]
        assert np.array_equal(paper, conjugated_sc_branch(spec, inverse(aut), llr))


# ---------------------------------------------------------------------------
# manifests

def flag_manifest(*flags) -> dict:
    """The manifest the CLI writes for an RM(2,4) simulate run with these
    decoder flags, through JSON and back."""
    args = build_parser().parse_args(["simulate", "--rm", "2,4", "--ebn0", "1:1:1",
                                      "--frames", "10", *flags])
    return json.loads(json.dumps(_manifest(args)))


def test_constituent_dict_roundtrip():
    """The CLI's manifest reader rebuilds the decoder its writer wrote."""
    for flags, dec in (
            ([], Sc()),
            (["--decoder", "scl", "--list", "16"], Scl(16)),
            (["--decoder", "bp", "--iters", "100", "--no-stopping"], Bp(100, False)),
            (["--decoder", "scl", "--list", "2", "--ensemble", "5", "--subgroup", "uta",
              "--seed", "99"], EnsembleConfig(5, "uta", Scl(2), seed=99)),
            (["--decoder", "bp", "--iters", "20", "--ensemble", "3", "--subgroup", "pi",
              "--seed", "4", "--resample-per-frame"],
             EnsembleConfig(3, "pi", Bp(20, True), seed=4, resample_per_frame=True))):
        assert _load_run(flag_manifest(*flags))[1] == dec
    man = flag_manifest()
    man["constituent"] = {"kind": "viterbi"}
    with pytest.raises(UsageError):
        _load_run(man)


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
    missing required one.  `d` is an ensemble section when it nests a
    constituent and a constituent section otherwise; each is refused for
    its own fault, before its automorphism list is compared."""
    man = flag_manifest()
    del man["constituent"]
    man["ensemble" if "constituent" in d else "constituent"] = d
    with pytest.raises(UsageError) as exc:
        _load_run(man)
    assert "automorphisms" not in str(exc.value)


def test_ensemble_manifest_lists_fixed_automorphisms():
    man = flag_manifest("--decoder", "scl", "--list", "2", "--ensemble", "5",
                        "--subgroup", "uta", "--seed", "99")["ensemble"]
    assert man["M"] == 5 and man["subgroup"] == "uta"
    assert len(man["automorphisms"]) == 5
    from aedcodes import parse_automorphism
    parsed = [parse_automorphism(t) for t in man["automorphisms"]]
    assert parsed == EnsembleConfig(5, "uta", Scl(2), seed=99).sample_automorphisms(4)
    man2 = flag_manifest("--decoder", "scl", "--list", "2", "--ensemble", "5",
                         "--subgroup", "uta", "--seed", "99", "--resample-per-frame")
    assert "automorphisms" not in man2["ensemble"]
