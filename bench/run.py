"""Fixed-work Monte-Carlo benchmark of aedcodes on RM(4,8).

Usage, from the repository root:

    python3 bench/run.py --workload rm48-sc --seed 1 --seconds 30 --trace 0

One process, `run_mc(..., workers=1)`, BLAS threads pinned to 1.  After one
untimed warm-up call a run repeats rounds for `--seconds`; a round is one
`run_mc` call on the workload's fixed frame count, with frames of its own.
`frames_per_s` is the frame count over the fastest round: the rounds do the
same work, and a slower round is one the shared host slowed down.  Set-up
is timed in fresh interpreters spread over the run, outside the rounds.
With `--trace 1` half of the time runs untraced and half traced (see
tracing.py), and the per-layer metrics are printed instead of the
end-to-end ones.  The correctness pass (checks.py) runs after timing.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 15
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe_setup(wl, seed: int, env: dict) -> float:
    res = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), wl.name, str(seed)],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout)


def timed_rounds(call, first: int, seconds: float, probe=None,
                 probes: int = 0) -> tuple[list[float], list]:
    """Rounds call(first), call(first + 1), ... while the next one, judged
    by the last, still keeps the rounds' summed time within `seconds`; at
    least one.  `probes` calls of probe() are spread over the rounds, each
    before the first round that starts past its share of `seconds`, and
    run outside the clock; any still due run after the last round.
    Returns each round's wall seconds and result."""
    times, results = [], []
    done, total = 0, 0.0
    while True:
        while done < probes and done * seconds <= probes * total:
            probe()
            done += 1
        t0 = time.perf_counter()
        results.append(call(first + len(times)))
        times.append(time.perf_counter() - t0)
        total += times[-1]
        if total + times[-1] > seconds:
            break
    for _ in range(done, probes):
        probe()
    return times, results


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aedcodes" / "__init__.py").is_file():
        print(f"error: no aedcodes sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))

    import aedcodes as ae
    import aedcodes.simulation as sim
    if Path(ae.__file__).resolve().parent != (SRC / "aedcodes").resolve():
        print(f"error: imported aedcodes from {ae.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import tracing

    wl = WORKLOADS[args.workload]
    spec, dec, ch = wl.build(ae, args.seed)
    setups = []

    def probe():
        setups.append(probe_setup(wl, args.seed, env))

    def one_round(j):
        return sim.run_mc(spec, dec, wl.round_channel(ch, j), frames=wl.frames,
                          target_errors=None)

    sim.run_mc(spec, dec, ch, frames=wl.warmup_frames, target_errors=None)
    full = []  # the untimed full-chunk call of an untraced run
    if args.trace:
        times, recs = timed_rounds(one_round, 0, args.seconds / 2)
    else:
        times, recs = timed_rounds(one_round, 0, args.seconds, probe, SETUP_PROBES)
        # Peak memory is read after one untimed call on a full chunk of
        # frames, the batch every simulation of that many frames or more runs.
        full.append(sim.run_mc(spec, dec, ch, frames=sim.BATCH_FRAMES, target_errors=None))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tally = checks.Tally()
    correct = True
    if args.trace:
        tracer = tracing.Tracer()
        counts = []

        def traced_round(j):
            rec = one_round(j)
            counts.append(tracer.take_counts())
            return rec

        with tracer.installed(ae):
            ttimes, trecs = timed_rounds(traced_round, len(recs), args.seconds / 2)
        recs += trecs
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.json")
        layer_s, traced_wall = tracer.self_times()
        if abs(sum(layer_s.values()) - traced_wall) > 1e-9 * max(traced_wall, 1.0):
            correct = False
            print(f"trace: layer self times {sum(layer_s.values())} != wall {traced_wall}",
                  file=sys.stderr)
        if any(c != counts[0] for c in counts):
            correct = False
            print("trace: counts differ between rounds of equal work", file=sys.stderr)
        overhead = min(ttimes) / min(times)
        metrics = tracing.layer_metrics(layer_s, traced_wall, counts[0], len(ttimes), overhead)
    else:
        metrics = {"frames_per_s": (wl.frames / min(times), "frames/s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}

    tally.add("run_mc call decodes the frame count asked for",
              [r.frames == wl.frames for r in recs]
              + [r.frames == sim.BATCH_FRAMES for r in full])
    again = one_round(0)
    tally.add("round 0 decoded again gives the same counts",
              (again.frames, again.block_errors, again.bit_errors, again.avg_iterations)
              == (recs[0].frames, recs[0].block_errors, recs[0].bit_errors,
                  recs[0].avg_iterations))
    frames = sum(r.frames for r in recs + full)
    block_errors = sum(r.block_errors for r in recs + full)
    bound = checks.bler_bound(wl.reference_bler, frames)
    if not checks.bler_ok(block_errors, frames, wl.reference_bler):
        correct = False
    q = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    print(f"{wl.name}: {len(times)} untraced rounds of {wl.frames} frames; "
          f"round seconds min {min(times):.4f} q1 {q[0]:.4f} median {q[1]:.4f} "
          f"q3 {q[2]:.4f} max {max(times):.4f}")
    print(f"{wl.name}: {len(recs) + len(full)} run_mc calls; bler "
          f"{block_errors / frames:.5g} over {frames} frames, "
          f"reference {wl.reference_bler:.4g} +- {bound:.3g}")
    checks.correctness_pass(ae, spec, wl, dec, args.seed, tally)
    broken = checks.self_test(ae, spec)
    if broken:
        correct = False
        print(f"self-test: checkers misbehave: {', '.join(broken)}", file=sys.stderr)
    for note in tally.notes:
        print(note, file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"{wl.name}: {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
