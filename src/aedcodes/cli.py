"""Command-line front end: code inspection, Monte-Carlo simulation and the
algebraic verification suite.

Exit codes: 0 success, 1 usage error, 2 verification failure,
3 capacity/limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .automorphisms import (SUBGROUPS, compose, format_automorphism,
                            mlup_decompose, sample)
from .codes import (CapacityError, CodeSpec, encode, enumerate_codebook,
                    is_decreasing, pointwise_product_in_lower, polar_code,
                    read_frozen_file, rm_code, split_subcodes)
from .decoders import CHUNK_ROWS, Bp, Sc, Scl, sc_decode_batch
from .ensemble import (EnsembleConfig, verify_lta_absorption,
                       verify_lta_commutation)
from .simulation import (BATCH_FRAMES, CSV_HEADER, MAX_FRAMES, ChannelConfig,
                         format_csv_row, run_mc)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_CAPACITY = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="aedcodes",
                  description="Monomial-code construction, decoding and "
                              "Monte-Carlo simulation")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    info = sub.add_parser("code-info", parents=[_code_args()],
                          help="print length, dimension, rate and the "
                               "decreasing-monomial verdict")
    info.add_argument("--json", action="store_true", help="emit JSON instead of text")

    sim = sub.add_parser("simulate", parents=[_code_args()],
                         help="Monte-Carlo BLER/BER over a BI-AWGN grid, CSV to stdout")
    sim.add_argument("--decoder", choices=["sc", "scl", "bp"], default="sc")
    sim.add_argument("--list", type=int, default=None, metavar="L",
                     help=f"SCL list size (scl only, default {Scl.list_size})")
    sim.add_argument("--iters", type=int, default=None, metavar="I",
                     help=f"BP iteration cap (bp only, default {Bp.max_iters})")
    sim.add_argument("--no-stopping", action="store_true",
                     help="disable the BP re-encoding stopping test")
    sim.add_argument("--ensemble", type=int, default=0, metavar="M",
                     help="automorphism ensemble size (0 = plain decoder)")
    sim.add_argument("--subgroup", choices=list(SUBGROUPS), default=None)
    sim.add_argument("--resample-per-frame", action="store_true",
                     help="redraw the ensemble automorphisms for every frame")
    sim.add_argument("--ebn0", default=None, metavar="START:STOP:COUNT",
                     help="Eb/N0 grid in dB")
    sim.add_argument("--frames", type=int, default=None, metavar="F")
    sim.add_argument("--target-errors", type=int, default=100, metavar="E",
                     help="stop a point after E block errors (0 = frame budget only); "
                          "without --frames a point also stops at "
                          f"{MAX_FRAMES:,} frames")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--all-zero", action="store_true",
                     help="send the all-zero message instead of random data")
    sim.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                     help="worker processes, at most one per CPU and per "
                          f"chunk ({BATCH_FRAMES} frames, min({BATCH_FRAMES}, "
                          f"max(1, {CHUNK_ROWS} // M)) for an ensemble of M); "
                          "results are invariant to this")
    sim.add_argument("--manifest-out", default="aedcodes-run.manifest.json",
                     metavar="PATH",
                     help="where to write the run manifest (default %(default)s)")
    sim.add_argument("--from-manifest", default=None, metavar="PATH",
                     help="re-run a previously written manifest, ignoring other flags")
    sim.add_argument("--json", action="store_true",
                     help="emit a JSON document (rows + inline manifest) instead of CSV")

    ver = sub.add_parser("verify", parents=[_code_args()],
                         help="run the algebraic property checks")
    ver.add_argument("--trials", type=int, default=1000)
    ver.add_argument("--seed", type=int, default=0)
    return top


def _code_args() -> argparse.ArgumentParser:
    p = _Parser(add_help=False)
    p.add_argument("--rm", default=None, metavar="R,M",
                   help="Reed-Muller order and log-length, e.g. 3,7")
    p.add_argument("--frozen-file", default=None, metavar="PATH",
                   help="text file: 'm=<int>' then an N-char 0/1 frozen indicator")
    return p


def _resolve_code(args) -> CodeSpec:
    if (args.rm is None) == (args.frozen_file is None):
        raise UsageError("give exactly one of --rm R,M or --frozen-file PATH")
    if args.rm is not None:
        try:
            r, m = (int(v) for v in args.rm.split(","))
        except ValueError:
            raise UsageError(f"--rm wants 'R,M', got {args.rm!r}") from None
        return rm_code(r, m)
    return read_frozen_file(args.frozen_file)


def _parse_grid(text: str) -> list[float]:
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise UsageError(f"--ebn0 wants START:STOP:COUNT, got {text!r}") from None
    if count < 1:
        raise UsageError("--ebn0 COUNT must be >= 1")
    if count == 1:
        return [start]
    return [start + (stop - start) * i / (count - 1) for i in range(count)]


# ---------------------------------------------------------------------------
# code-info

def cmd_code_info(args) -> int:
    spec = _resolve_code(args)
    decreasing = is_decreasing(spec)
    if args.json:
        print(json.dumps({
            "label": spec.label, "m": spec.m, "N": spec.n, "k": spec.k,
            "rate": spec.rate, "decreasing_monomial": decreasing,
            "frozen": "".join("1" if f else "0" for f in spec.frozen),
        }, indent=2))
    else:
        print(f"code:       {spec.label}")
        print(f"length N:   {spec.n}  (m={spec.m})")
        print(f"dimension:  k={spec.k}  rate={spec.rate:.4f}")
        print(f"decreasing: {'yes' if decreasing else 'no'}")
        print(f"frozen:     {''.join('1' if f else '0' for f in spec.frozen)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

# A run is its manifest.  _manifest writes the manifest of the flags and
# _load_run reads any manifest, a written one or a replayed one, so both
# kinds of run pass the same checks.  No other module reads or writes
# manifest keys.

def _manifest(args) -> dict:
    """The manifest of the simulate flags, in written key order.  Besides
    the flags' own combinations it checks only what writing needs: the code
    of --rm or --frozen-file and, for a fixed ensemble, the configuration
    its automorphisms are drawn from.  _load_run checks every value."""
    if args.list is not None and args.decoder != "scl":
        raise UsageError("--list is only valid with --decoder scl")
    if args.iters is not None and args.decoder != "bp":
        raise UsageError("--iters is only valid with --decoder bp")
    if args.no_stopping and args.decoder != "bp":
        raise UsageError("--no-stopping is only valid with --decoder bp")
    if args.ensemble == 0 and args.subgroup is not None:
        raise UsageError("--subgroup needs --ensemble M")
    if args.ensemble == 0 and args.resample_per_frame:
        raise UsageError("--resample-per-frame needs --ensemble M")
    if args.ebn0 is None:
        raise UsageError("--ebn0 START:STOP:COUNT is required")
    spec = _resolve_code(args)
    constituent = {"kind": args.decoder}
    if args.decoder == "scl":
        constituent["list_size"] = Scl.list_size if args.list is None else args.list
    elif args.decoder == "bp":
        constituent["max_iters"] = Bp.max_iters if args.iters is None else args.iters
        constituent["stopping"] = not args.no_stopping
    man = {
        "tool": "aedcodes", "version": __version__,
        "code": ({"rm": [int(v) for v in args.rm.split(",")]}
                 if args.rm is not None else
                 {"m": spec.m, "frozen": "".join("1" if f else "0" for f in spec.frozen)}),
        "ebn0_grid": _parse_grid(args.ebn0), "frames": args.frames,
        "target_errors": args.target_errors or None, "seed": args.seed,
        "all_zero": args.all_zero,
    }
    if args.ensemble == 0:
        man["constituent"] = constituent
        return man
    ensemble = {"seed": args.seed, "subgroup": args.subgroup or "ga", "M": args.ensemble,
                "resample_per_frame": args.resample_per_frame, "constituent": constituent}
    if not args.resample_per_frame:
        # the draw depends on the subgroup, size and seed only
        ensemble["automorphisms"] = _drawn(spec.m, EnsembleConfig(
            args.ensemble, ensemble["subgroup"], Sc(), seed=args.seed))
    man["ensemble"] = ensemble
    return man


def _drawn(m: int, ensemble: EnsembleConfig) -> list[str]:
    """A fixed ensemble's automorphisms in text form: the draw from its seed."""
    return [format_automorphism(a) for a in ensemble.sample_automorphisms(m)]


def _load_run(man) -> tuple:
    """(spec, decoder, channels, frames, target_errors, all_zero) of a
    manifest, after every check a run makes before it starts.

    A manifest is outside input.  A value must already have its JSON type
    (booleans for flags, integers other than booleans for counts) and is
    never converted.  Unknown keys and missing keys are refused, except
    that all_zero, an ensemble's seed and resample_per_frame and a
    constituent's parameters may be absent and take their defaults.  A
    fixed ensemble must list exactly the automorphisms its seed draws, and
    a resampled one lists none.  A manifest replays only under the rules of
    the release that wrote it, so another tool or version is refused.
    A refused value is named by its key."""
    if not isinstance(man, dict):
        raise UsageError(f"manifest must be a JSON object, got {man!r}")
    for key, want in (("tool", "aedcodes"), ("version", __version__)):
        if _value(man, key, str) != want:
            raise UsageError(f"manifest key {key!r} must be {want!r}, got {man[key]!r}")
    spec = _section(man, "code", _load_code)
    if "ensemble" in man:
        section, decoder = "ensemble", _section(man, "ensemble", _load_ensemble, spec.m)
    else:
        section, decoder = "constituent", _section(man, "constituent", _load_constituent)
    _check_keys(man, {"tool", "version", "code", section, "ebn0_grid", "frames",
                      "target_errors", "seed", "all_zero"})
    grid = _value(man, "ebn0_grid", list)
    frames = _value(man, "frames", int, null=True)
    target = _value(man, "target_errors", int, null=True)
    seed = _value(man, "seed", int)
    all_zero = _value(man, "all_zero", bool) if "all_zero" in man else False
    if frames is not None and frames < 1:
        raise UsageError(f"frames (--frames) must be >= 1, got {frames}")
    if target is not None and target < 0:
        raise UsageError(f"target_errors (--target-errors) must be >= 0, got {target}")
    if frames is None and not target:
        raise UsageError("need frames (--frames) and/or a positive "
                         "target_errors (--target-errors)")
    if not grid or not all(isinstance(e, (int, float)) and not isinstance(e, bool)
                           for e in grid):
        raise UsageError(f"manifest key 'ebn0_grid' must be a non-empty list "
                         f"of numbers, got {grid!r}")
    try:
        grid = [float(e) for e in grid]
    except OverflowError:
        raise UsageError("manifest key 'ebn0_grid' holds an integer beyond "
                         "the float range") from None
    # ChannelConfig refuses an Eb/N0 with no usable noise level and a negative seed
    channels = [ChannelConfig(e, spec.rate, seed=seed) for e in grid]
    return spec, decoder, channels, frames, target, all_zero


def _load_code(c: dict) -> CodeSpec:
    """{"rm": [r, m]} or {"m": m, "frozen": "0110..."}."""
    if "rm" in c:
        _check_keys(c, {"rm"})
        rm = _value(c, "rm", list)
        if len(rm) != 2 or not all(type(v) is int for v in rm):
            raise UsageError(f"'rm' must be two integers, got {rm!r}")
        return rm_code(*rm)
    _check_keys(c, {"m", "frozen"})
    pattern = _value(c, "frozen", str)
    if set(pattern) - {"0", "1"}:
        raise UsageError(f"'frozen' must be a string of 0/1, got {pattern!r}")
    frozen = np.frombuffer(pattern.encode("ascii"), dtype=np.uint8) == ord("1")
    return polar_code(_value(c, "m", int), frozen)


def _load_constituent(d: dict) -> Sc | Scl | Bp:
    """{"kind": ..., plus the fields of that decoder's config}."""
    cls = {c.kind: c for c in (Sc, Scl, Bp)}.get(_value(d, "kind", str))
    if cls is None:
        raise UsageError(f"unknown decoder kind {d['kind']!r}")
    params = {f.name: type(f.default) for f in fields(cls)}
    _check_keys(d, {"kind", *params})
    return cls(**{key: _value(d, key, typ) for key, typ in params.items() if key in d})


def _load_ensemble(d: dict, m: int) -> EnsembleConfig:
    """{"seed", "subgroup", "M", "resample_per_frame", "constituent"}, and
    for a fixed ensemble "automorphisms", which must equal _drawn."""
    _check_keys(d, {"seed", "subgroup", "M", "resample_per_frame", "constituent",
                    "automorphisms"})
    optional = {key: _value(d, key, typ)
                for key, typ in (("resample_per_frame", bool), ("seed", int)) if key in d}
    ensemble = EnsembleConfig(size=_value(d, "M", int), subgroup=_value(d, "subgroup", str),
                              constituent=_section(d, "constituent", _load_constituent),
                              **optional)
    ensemble.check_drawable(m)
    if ensemble.resample_per_frame:
        if "automorphisms" in d:
            raise UsageError("a resampled ensemble lists no 'automorphisms'")
    elif _value(d, "automorphisms", list) != _drawn(m, ensemble):
        raise UsageError(f"'automorphisms' must list the {ensemble.size} automorphisms "
                         f"that seed {ensemble.seed} draws, in text form")
    return ensemble


def _section(d: dict, key: str, load, *args):
    """load(d[key], *args) for a section that must be an object; a refusal
    inside it names the section too."""
    section = _value(d, key, dict)
    try:
        return load(section, *args)
    except (UsageError, ValueError) as exc:
        raise UsageError(f"manifest section {key!r}: {exc}") from None


def _value(d: dict, key: str, typ: type, null: bool = False):
    """d[key], which must already be a `typ` (an int is not a bool), or
    None when `null`."""
    if key not in d:
        raise UsageError(f"manifest lacks {key!r}")
    value = d[key]
    if (value is None and null) or (isinstance(value, typ)
                                    and not (typ is int and isinstance(value, bool))):
        return value
    raise UsageError(f"manifest key {key!r} must be {typ.__name__}, got {value!r}")


def _check_keys(d: dict, known: set[str]) -> None:
    unknown = sorted(set(d) - known)
    if unknown:
        raise UsageError(f"unknown manifest keys {unknown}")


def cmd_simulate(args) -> int:
    if args.from_manifest is None:
        man = _manifest(args)
    else:
        with open(args.from_manifest, "r", encoding="utf-8") as fh:
            man = json.load(fh)
    spec, decoder, channels, frames, target, all_zero = _load_run(man)
    if args.from_manifest is None:
        # written only once its own replay reader has accepted it
        with open(args.manifest_out, "w", encoding="utf-8") as fh:
            json.dump(man, fh, indent=2)
        print(f"# manifest: {args.manifest_out}", file=sys.stderr)

    rows = []
    for ch in channels:
        rec = run_mc(spec, decoder, ch, frames=frames, target_errors=target,
                     all_zero=all_zero, workers=max(1, args.threads))
        if rec.stopped_by == "cap":
            print(f"# {ch.ebn0_db:g} dB: stopped at the {rec.frames}-frame cap "
                  f"with {rec.block_errors} of {target} target errors",
                  file=sys.stderr)
        rows.append((ch, rec))
    if args.json:
        doc = {"manifest": man,
               "rows": [{"code": spec.label, "ebn0_db": ch.ebn0_db,
                         "frames": rec.frames, "block_errors": rec.block_errors,
                         "bit_errors": rec.bit_errors, "bler": rec.bler,
                         "ber": rec.ber, "avg_iterations": rec.avg_iterations,
                         "seconds": rec.wall_seconds, "stopped_by": rec.stopped_by}
                        for ch, rec in rows]}
        print(json.dumps(doc, indent=2))
    else:
        print(CSV_HEADER)
        for ch, rec in rows:
            print(format_csv_row(spec, decoder, ch, rec))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    spec = _resolve_code(args)
    trials = args.trials
    rng = np.random.default_rng(args.seed)
    failures = 0
    decreasing = is_decreasing(spec)

    def report(name, ok, detail):
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures += 1

    if spec.m < 1:
        for name in ("triangular factorization", "lower-triangular commutation",
                     "lower-triangular absorption"):
            print(f"skip {name}: no automorphisms to draw (m=0)")
    else:
        # factorization: recomposition of random affine maps
        bad = 0
        for _ in range(trials):
            aut = sample(spec.m, "ga", rng)
            lt, ut, pt = mlup_decompose(aut)
            rec = compose(compose(lt, ut), pt)
            ok = (rec.rows == aut.rows and rec.b == aut.b
                  and lt.is_lower_unitriangular and ut.is_upper_unitriangular
                  and pt.is_permutation)
            bad += 0 if ok else 1
        report("triangular factorization", bad == 0, f"{trials} trials, {bad} failures")
        if decreasing:
            rep = verify_lta_commutation(spec, trials, rng)
            report("lower-triangular commutation", rep.passed,
                   f"{rep.trials} trials, {rep.failures} failures")
            rep = verify_lta_absorption(spec, trials, rng)
            report("lower-triangular absorption", rep.passed,
                   f"{rep.trials} trials, {rep.failures} failures")
        else:
            print("skip lower-triangular commutation: out of theorem scope "
                  "(code is not a decreasing monomial code)")
            print("skip lower-triangular absorption: out of theorem scope")

    # decoder linearity under codeword sign flips
    bad = 0
    for _ in range(trials):
        llr = rng.normal(0.0, 2.0, spec.n)
        msg = rng.integers(0, 2, spec.k, dtype=np.uint8)
        cw = encode(spec, msg)
        pair = np.stack([llr * (1.0 - 2.0 * cw), llr])
        _, (flipped, plain) = sc_decode_batch(spec, pair)
        bad += 0 if np.array_equal(flipped, plain ^ cw) else 1
    report("decoder linearity", bad == 0, f"{trials} trials, {bad} failures")

    # subcode splitting and pointwise products (exhaustive when small)
    if spec.m >= 1:
        upper, lower = split_subcodes(spec)
        ok = upper.k + lower.k == spec.k
        detail = f"k split {upper.k}+{lower.k}={spec.k}"
        if decreasing:
            ok = ok and upper.monomials.masks <= lower.monomials.masks
            detail += ", upper monomials contained in lower"
        report("subcode split", ok, detail)
        if decreasing and upper.k <= 12 and spec.m - 1 >= 1:
            rm1 = rm_code(1, spec.m - 1)
            if rm1.k <= 12:
                cu = enumerate_codebook(upper)
                crm = enumerate_codebook(rm1)
                bad = sum(0 if pointwise_product_in_lower(spec, xu, xr) else 1
                          for xu in cu for xr in crm)
                report("pointwise-product closure", bad == 0,
                       f"{len(cu)}x{len(crm)} grid, {bad} failures")
    print("verification:", "PASS" if failures == 0 else f"{failures} FAILED")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "code-info":
            return cmd_code_info(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "verify":
            return cmd_verify(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
