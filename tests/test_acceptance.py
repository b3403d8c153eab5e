"""Acceptance gate: every release criterion with its stated tolerance.

Each test prints one PASS/FAIL line per criterion (visible with pytest -s;
captured otherwise).  The error-rate reproduction points run until a fixed
block-error target, so outcomes are deterministic for the pinned seeds.
"""

import numpy as np
import pytest

from aedcodes import (AffineAutomorphism, Bp, ChannelConfig, EnsembleConfig,
                      Sc, Scl, aed_decode, compose,
                      encode, enumerate_codebook, in_code, is_decreasing,
                      mlup_decompose, ml_decode_oracle, polar_transform,
                      rm_code, run_mc, sample, sc_decode_batch,
                      scl_decode, split_subcodes, transmit,
                      pointwise_product_in_lower, verify_lta_absorption,
                      verify_lta_commutation)
from aedcodes.automorphisms import mat_inv
from aedcodes.decoders import bp_decode_batch

WORKERS = 2


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------

def test_criterion_1_lta_commutation_and_sc_equivalence():
    ok = True
    for r, m in [(3, 7), (2, 5)]:
        rep = verify_lta_commutation(rm_code(r, m), 1000, np.random.default_rng(101))
        ok &= report("1", rep.failures == 0,
                     f"SC/permutation commutation RM({r},{m}): "
                     f"{rep.failures}/{rep.trials} failures")
    spec = rm_code(3, 7)
    ch = ChannelConfig(4.0, spec.rate, seed=102)
    plain = run_mc(spec, Sc(), ch, frames=3000, target_errors=None)
    lta = run_mc(spec, EnsembleConfig(4, "lta", Sc(), resample_per_frame=True,
                                      seed=103), ch, frames=3000, target_errors=None)
    ok &= report("1", plain.block_errors == lta.block_errors
                 and plain.bit_errors == lta.bit_errors,
                 f"Aut-4-SC(lta) paired with SC: {lta.block_errors} vs "
                 f"{plain.block_errors} block errors")
    assert ok


def test_criterion_2_lta_absorption():
    rep = verify_lta_absorption(rm_code(3, 7), 1000, np.random.default_rng(201))
    assert report("2", rep.failures == 0,
                  f"branch under pi == branch under U o P, GA(7): "
                  f"{rep.failures}/{rep.trials} failures")


def test_criterion_3_factorization():
    bad = 0
    count = 0
    for bits in range(1 << 9):
        rows = tuple((bits >> (3 * j)) & 7 for j in range(3))
        if mat_inv(rows, 3) is None:
            continue
        count += 1
        aut = AffineAutomorphism(3, rows, 0b101)
        lt, ut, pt = mlup_decompose(aut)
        good = (compose(compose(lt, ut), pt) == aut
                and lt.is_lower_unitriangular and ut.is_upper_unitriangular
                and pt.is_permutation)
        bad += 0 if good else 1
    ok = report("3", count == 168 and bad == 0,
                f"exhaustive m=3: {count} invertible matrices, {bad} recomposition failures")
    rng = np.random.default_rng(301)
    bad = 0
    for _ in range(10000):
        aut = sample(10, "ga", rng)
        lt, ut, pt = mlup_decompose(aut)
        if compose(compose(lt, ut), pt) != aut:
            bad += 1
    ok &= report("3", bad == 0, f"10000 random m=10 factorizations, {bad} failures")
    assert ok


def test_criterion_4_decoder_linearity():
    spec = rm_code(3, 7)
    rng = np.random.default_rng(401)
    llrs = rng.normal(0, 2, (1000, spec.n))
    msgs = rng.integers(0, 2, (1000, spec.k), dtype=np.uint8)
    cws = encode(spec, msgs)
    _, x_flip = sc_decode_batch(spec, llrs * (1.0 - 2.0 * cws))
    _, x_plain = sc_decode_batch(spec, llrs)
    bad = int(np.count_nonzero(np.any(x_flip != (x_plain ^ cws), axis=1)))
    assert report("4", bad == 0,
                  f"SC(L*(-1)^x) == SC(L) xor x on RM(3,7): {bad}/1000 failures")


def gf2_rank(rows):
    """Independent elimination for the row-space comparisons."""
    work = [int("".join(map(str, r)), 2) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        bit = 1 << (len(rows[0]) - 1 - col)
        piv = next((i for i in range(rank, len(work)) if work[i] & bit), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i] & bit:
                work[i] ^= work[rank]
        rank += 1
    return rank


def test_criterion_5_subcode_algebra():
    ok = True
    # splitting: both halves decreasing, upper monomials inside lower
    checked = 0
    for m in range(1, 6):
        for r in range(m + 1):
            spec = rm_code(r, m)
            upper, lower = split_subcodes(spec)
            good = (is_decreasing(upper) and is_decreasing(lower)
                    and upper.monomials.masks <= lower.monomials.masks
                    and upper.k + lower.k == spec.k)
            ok &= good
            checked += 1
    ok = report("5", ok, f"subcode splitting on {checked} RM codes with m <= 5")

    # Plotkin reconstruction: literal exhaustive split when enumerable,
    # row-space identity (an exact, linear-algebra form of the same
    # exhaustive statement) for dimensions too large to enumerate
    recon_ok = True
    for m in range(1, 6):
        for r in range(m + 1):
            spec = rm_code(r, m)
            upper, lower = split_subcodes(spec)
            half = spec.n // 2
            if spec.k <= 16:
                for x in enumerate_codebook(spec):
                    xl = x[half:]
                    xu = x[:half] ^ xl
                    recon_ok &= bool(in_code(upper, xu) and in_code(lower, xl))
            plotkin_rows = [list(np.concatenate([gu, np.zeros(half, np.uint8)]))
                            for gu in upper.generator]
            plotkin_rows += [list(np.concatenate([gl, gl])) for gl in lower.generator]
            combined = plotkin_rows + [list(g) for g in spec.generator]
            recon_ok &= (gf2_rank(combined) == spec.k == len(plotkin_rows))
    ok &= report("5", recon_ok, "Plotkin reconstruction for all RM(r,m), m <= 5")

    # pointwise products on the full RM(2,4) x RM(1,3) grid
    spec = rm_code(2, 4)
    upper, _ = split_subcodes(spec)
    grid_bad = 0
    cu = enumerate_codebook(upper)
    crm = enumerate_codebook(rm_code(1, 3))
    for xu in cu:
        for xr in crm:
            grid_bad += 0 if pointwise_product_in_lower(spec, xu, xr) else 1
    ok &= report("5", grid_bad == 0,
                 f"pointwise closure on {len(cu)}x{len(crm)} grid: {grid_bad} failures")
    assert ok


@pytest.mark.slow
def test_criterion_6_bler_reproduction():
    spec = rm_code(4, 8)
    points = [
        (Sc(), 2.0, 7.978e-1, 2000, 300),
        (Sc(), 3.0, 3.725e-1, 2500, 300),
        (Scl(32), 2.0, 2.305e-1, 3000, 300),
        (Scl(32), 2.5, 7.506e-2, 8000, 300),
        (EnsembleConfig(32, "ga", Sc(), resample_per_frame=True, seed=601),
         2.0, 1.655e-1, 4000, 300),
        (EnsembleConfig(32, "ga", Sc(), resample_per_frame=True, seed=602),
         2.5, 3.780e-2, 12000, 220),
        (EnsembleConfig(32, "pi", Sc(), resample_per_frame=True, seed=603),
         2.5, 5.578e-2, 9000, 300),
        (Bp(200, True), 3.0, 2.088e-1, 2500, 300),
        (EnsembleConfig(32, "ga", Bp(200, True), resample_per_frame=True, seed=604),
         2.5, 4.739e-2, 5000, 110),
    ]
    ok = True
    measured = {}
    for idx, (decoder, ebn0, expect, frames, target) in enumerate(points):
        # distinct channel seeds decorrelate the points: a single shared
        # noise prefix would push every deviation coherently
        ch = ChannelConfig(ebn0, spec.rate, seed=600 + 10 * idx)
        rec = run_mc(spec, decoder, ch, frames=frames, target_errors=target,
                     workers=WORKERS)
        rel = rec.bler / expect - 1.0
        good = abs(rel) <= 0.15 and rec.block_errors >= min(target, 100)
        kind, subgroup, msz, lsz = decoder.descriptor
        name = f"{kind}{'-' + str(lsz) if kind == 'scl' else ''}" \
               f"{f' aut{msz}({subgroup})' if msz else ''} @{ebn0}dB"
        measured[(kind, subgroup, msz, ebn0)] = rec
        ok &= report("6", good,
                     f"{name}: bler={rec.bler:.4g} vs {expect:.4g} "
                     f"({rel * 100:+.1f}%, {rec.block_errors} errors)")
    ga = measured[("sc", "ga", 32, 2.5)]
    pi = measured[("sc", "pi", 32, 2.5)]
    gap = pi.bler - ga.bler
    sd = np.sqrt(ga.bler * (1 - ga.bler) / ga.frames
                 + pi.bler * (1 - pi.bler) / pi.frames)
    ok &= report("6", gap > 2 * sd,
                 f"stage-shuffle ensemble measurably worse than full group: "
                 f"gap={gap:.4g} > 2sd={2 * sd:.4g}")
    assert ok


def test_criterion_7_ml_oracle_equivalence():
    ok = True
    for r, m, msz, lsz, seed in [(1, 3, 4, 4, 701), (1, 4, 8, 4, 702)]:
        spec = rm_code(r, m)
        ch = ChannelConfig(1.0, spec.rate, seed=seed)
        cfg = EnsembleConfig(msz, "ga", Scl(lsz), seed=seed)
        perms = cfg.sample_automorphisms(spec.m)
        rng = np.random.default_rng(seed)
        scl_mismatch = 0
        e_oracle = e_aed = 0
        for _ in range(1000):
            u = rng.integers(0, 2, spec.k, dtype=np.uint8)
            x = encode(spec, u)
            y, llr = transmit(spec, u, ch, rng)
            ml = ml_decode_oracle(spec, y)
            full = scl_decode(spec, llr, 1 << spec.k)[0].x_hat
            scl_mismatch += not np.array_equal(full, ml)
            e_oracle += not np.array_equal(ml, x)
            xw, _, _ = aed_decode(spec, y, llr, cfg, perms)
            e_aed += not np.array_equal(xw, x)
        ok &= report("7", scl_mismatch == 0,
                     f"RM({r},{m}): full-list SCL vs ML oracle, "
                     f"{scl_mismatch}/1000 decision mismatches")
        ok &= report("7", abs(e_aed - e_oracle) <= 1,
                     f"RM({r},{m}): aut-{msz}-scl-{lsz} {e_aed} errors vs "
                     f"oracle {e_oracle} (paired, allowance 1)")
    assert ok


def test_criterion_8_subgroup_ordering():
    spec = rm_code(3, 7)
    frames = 20000
    ch = ChannelConfig(4.3, spec.rate, seed=801)
    records = {"sc": run_mc(spec, Sc(), ch, frames=frames, target_errors=None,
                            workers=WORKERS)}
    for sub in ("lta", "uta", "ga"):
        cfg = EnsembleConfig(4, sub, Sc(), resample_per_frame=True, seed=802)
        records[sub] = run_mc(spec, cfg, ch, frames=frames, target_errors=None,
                              workers=WORKERS)
    sc, lta, uta, ga = (records[k] for k in ("sc", "lta", "uta", "ga"))
    ok = report("8", 0.003 <= sc.bler <= 0.03,
                f"operating point: SC bler={sc.bler:.4g} (~1e-2)")
    ok &= report("8", lta.block_errors == sc.block_errors,
                 f"lta ensemble == plain SC exactly: {lta.block_errors} vs "
                 f"{sc.block_errors} errors")
    sd_pair = np.sqrt(max(uta.block_errors + ga.block_errors, 1))
    ok &= report("8", abs(uta.block_errors - ga.block_errors) <= 2 * sd_pair,
                 f"uta ~ ga within 2sd: {uta.block_errors} vs {ga.block_errors} "
                 f"(2sd={2 * sd_pair:.1f})")
    for name, rec in (("uta", uta), ("ga", ga)):
        margin = sc.block_errors - rec.block_errors
        sd = np.sqrt(max(sc.block_errors + rec.block_errors, 1))
        ok &= report("8", margin > 2 * sd,
                     f"{name} beats SC by {margin} errors (> 2sd={2 * sd:.1f})")
    assert ok


def test_criterion_9_bp_stopping_soundness():
    ok = True
    for r, m, ebn0 in [(2, 5, 2.0), (4, 8, 3.0)]:
        spec = rm_code(r, m)
        ch = ChannelConfig(ebn0, spec.rate, seed=901)
        rng = np.random.default_rng(901)
        msgs = rng.integers(0, 2, (400, spec.k), dtype=np.uint8)
        cws = encode(spec, msgs)
        noise = rng.normal(0, ch.sigma, (400, spec.n))
        llrs = np.clip(2.0 * ((1.0 - 2.0 * cws) + noise) / ch.sigma ** 2, -40, 40)
        u, x, iters, conv = bp_decode_batch(spec, llrs, 30, True)
        valid = np.array_equal(polar_transform(u[conv]), x[conv])
        ok &= report("9", bool(conv.any()) and not bool(conv.all()) and valid,
                     f"RM({r},{m}): {int(conv.sum())}/400 converged, "
                     f"re-encoding identity holds on all of them")
    spec = rm_code(2, 5)
    ch = ChannelConfig(2.0, spec.rate, seed=902)
    rec = run_mc(spec, Bp(max_iters=17, stopping=False), ch, frames=300,
                 target_errors=None)
    ok &= report("9", rec.avg_iterations == 17.0,
                 f"stopping disabled: avg_iterations={rec.avg_iterations} == 17")
    assert ok


def test_criterion_10_determinism(tmp_path, capsys):
    from aedcodes.cli import main

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return [ln for ln in out.splitlines() if ln and not ln.startswith("#")]

    manifest = str(tmp_path / "repro.manifest.json")
    base = ["simulate", "--rm", "2,5", "--decoder", "bp", "--iters", "25",
            "--ensemble", "3", "--subgroup", "ga", "--ebn0", "1.0:2.0:2",
            "--frames", "400", "--target-errors", "0", "--seed", "42",
            "--manifest-out", manifest]
    rows1 = run(base + ["--threads", "1"])
    rows2 = run(["simulate", "--from-manifest", manifest, "--threads", "2"])
    strip = lambda rows: [",".join(r.split(",")[:-1]) for r in rows]
    ok = report("10", strip(rows1) == strip(rows2),
                "CSV rows regenerated from manifest are identical "
                "(wall-time column excluded) and worker-count independent")
    spec = rm_code(3, 6)
    ch = ChannelConfig(2.0, spec.rate, seed=1001)
    cfg = EnsembleConfig(4, "uta", Scl(2), seed=1002)
    a = run_mc(spec, cfg, ch, frames=700, target_errors=None, workers=1)
    b = run_mc(spec, cfg, ch, frames=700, target_errors=None, workers=2)
    ok &= report("10", (a.frames, a.block_errors, a.bit_errors, a.avg_iterations)
                 == (b.frames, b.block_errors, b.bit_errors, b.avg_iterations),
                 f"run_mc worker invariance: {a.block_errors} errors both ways")
    assert ok
