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

import numpy as np

from . import __version__
from .automorphisms import SUBGROUPS, compose, mlup_decompose, sample
from .codes import (CapacityError, CodeSpec, encode, enumerate_codebook,
                    is_decreasing, pointwise_product_in_lower, polar_code,
                    read_frozen_file, rm_code, split_subcodes)
from .decoders import Bp, Sc, Scl, sc_decode
from .ensemble import (EnsembleConfig, _check_manifest_keys, _manifest_value,
                       decoder_from_dict, verify_lta_absorption,
                       verify_lta_commutation)
from .simulation import CSV_HEADER, ChannelConfig, format_csv_row, run_mc

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
                     help="SCL list size (scl only)")
    sim.add_argument("--iters", type=int, default=None, metavar="I",
                     help="BP iteration cap (bp only, default 200)")
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
                          "simulation.MAX_FRAMES frames")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--all-zero", action="store_true",
                     help="send the all-zero message instead of random data")
    sim.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                     help="worker processes; results are invariant to this")
    sim.add_argument("--manifest-out", default=None, metavar="PATH",
                     help="where to write the run manifest (default <stem>.manifest.json)")
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

def _build_decoder(args):
    if args.list is not None and args.decoder != "scl":
        raise UsageError("--list is only valid with --decoder scl")
    if args.iters is not None and args.decoder != "bp":
        raise UsageError("--iters is only valid with --decoder bp")
    if args.no_stopping and args.decoder != "bp":
        raise UsageError("--no-stopping is only valid with --decoder bp")
    if args.decoder == "sc":
        constituent = Sc()
    elif args.decoder == "scl":
        constituent = Scl(list_size=args.list if args.list is not None else 8)
    else:
        constituent = Bp(max_iters=args.iters if args.iters is not None else 200,
                         stopping=not args.no_stopping)
    if args.ensemble == 0:
        if args.subgroup is not None:
            raise UsageError("--subgroup needs --ensemble M")
        if args.resample_per_frame:
            raise UsageError("--resample-per-frame needs --ensemble M")
        return constituent
    if args.ensemble < 1:
        raise UsageError("--ensemble must be >= 1")
    return EnsembleConfig(size=args.ensemble,
                          subgroup=args.subgroup or "ga",
                          constituent=constituent,
                          resample_per_frame=args.resample_per_frame,
                          seed=args.seed)


def _spec_from_manifest(man: dict) -> CodeSpec:
    """The code section, {"rm": [r, m]} or {"m": m, "frozen": "0110..."},
    by decoder_from_dict's rule: no unknown keys, no converted values."""
    c = _manifest_value(man, "code", dict)
    try:
        if "rm" in c:
            _check_manifest_keys(c, {"rm"})
            rm = _manifest_value(c, "rm", list)
            if len(rm) != 2 or not all(type(v) is int for v in rm):
                raise ValueError(f"'rm' must be two integers, got {rm!r}")
            return rm_code(*rm)
        _check_manifest_keys(c, {"m", "frozen"})
        pattern = _manifest_value(c, "frozen", str)
        if set(pattern) - {"0", "1"}:
            raise ValueError(f"'frozen' must be a string of 0/1, got {pattern!r}")
        frozen = np.frombuffer(pattern.encode("ascii"), dtype=np.uint8) == ord("1")
        return polar_code(_manifest_value(c, "m", int), frozen)
    except ValueError as exc:
        raise UsageError(f"manifest section 'code': {exc}") from None


def _run_from_manifest(man: dict) -> tuple:
    """(ebn0_grid, frames, target_errors, seed, all_zero) of a manifest, by
    decoder_from_dict's rule: a value must already have its JSON type and
    is never converted.  frames and target_errors may be null and all_zero
    absent (false); ChannelConfig rejects a negative seed and run_mc a
    negative target_errors."""
    try:
        grid = _manifest_value(man, "ebn0_grid", list)
        frames, target = (None if man[key] is None else _manifest_value(man, key, int)
                          for key in ("frames", "target_errors"))
        seed = _manifest_value(man, "seed", int)
    except KeyError as exc:
        raise UsageError(f"manifest lacks {exc}") from None
    all_zero = _manifest_value(man, "all_zero", bool) if "all_zero" in man else False
    if not grid or not all(isinstance(e, (int, float)) and not isinstance(e, bool)
                           for e in grid):
        raise UsageError(f"manifest key 'ebn0_grid' must be a non-empty list "
                         f"of numbers, got {grid!r}")
    return grid, frames, target, seed, all_zero


def cmd_simulate(args) -> int:
    if args.from_manifest is not None:
        with open(args.from_manifest, "r", encoding="utf-8") as fh:
            man = json.load(fh)
        spec = _spec_from_manifest(man)
        section = "ensemble" if "ensemble" in man else "constituent"
        try:
            decoder = decoder_from_dict(_manifest_value(man, section, dict))
        except ValueError as exc:
            raise UsageError(f"manifest section {section!r}: {exc}") from None
        grid, frames, target, seed, all_zero = _run_from_manifest(man)
        _check_manifest_keys(man, {"tool", "version", "code", section, "ebn0_grid",
                                   "frames", "target_errors", "seed", "all_zero"})
        channels = [ChannelConfig(float(e), spec.rate, seed=seed) for e in grid]
    else:
        spec = _resolve_code(args)
        decoder = _build_decoder(args)
        if args.ebn0 is None:
            raise UsageError("--ebn0 START:STOP:COUNT is required")
        grid = _parse_grid(args.ebn0)
        if args.target_errors < 0:
            raise UsageError("--target-errors must be >= 0")
        if args.frames is None and not args.target_errors:
            raise UsageError("need --frames and/or a positive --target-errors")
        if args.frames is not None and args.frames < 1:
            raise UsageError("--frames must be >= 1")
        frames = args.frames
        target = args.target_errors or None
        seed = args.seed
        all_zero = args.all_zero
        # a bad seed fails here, before the manifest is written
        channels = [ChannelConfig(e, spec.rate, seed=seed) for e in grid]

        man = {
            "tool": "aedcodes", "version": __version__,
            "code": ({"rm": [int(v) for v in args.rm.split(",")]}
                     if args.rm is not None else
                     {"m": spec.m,
                      "frozen": "".join("1" if f else "0" for f in spec.frozen)}),
            "ebn0_grid": grid, "frames": frames, "target_errors": target,
            "seed": seed, "all_zero": all_zero,
        }
        section = decoder.to_dict(spec.m)
        # an ensemble's section nests its constituent's
        man["ensemble" if "constituent" in section else "constituent"] = section
        path = args.manifest_out or "aedcodes-run.manifest.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(man, fh, indent=2)
        print(f"# manifest: {path}", file=sys.stderr)

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
        flipped = sc_decode(spec, llr * (1.0 - 2.0 * cw)).x_hat
        plain = sc_decode(spec, llr).x_hat ^ cw
        bad += 0 if np.array_equal(flipped, plain) else 1
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
