"""Span tracing of aedcodes from outside the package.

`Tracer.installed()` replaces, for the duration of a `with` block, the
module attributes through which `run_mc`, `_eval_chunk` and
`decode_branches` reach the other modules, with wrappers that record a
span (name, start, end, parent) in memory.  Two hot helpers of the
automorphism sampler are wrapped with bare counters instead of spans.
Nothing inside the package is edited; the originals are restored on exit.

Layer self time is a span's duration minus the durations of its child
spans, summed per layer, so the layer self times of a traced call add up to
the duration of its root span.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager


def _rows(args, kwargs):
    return int((args[1] if len(args) > 1 else kwargs["llrs"]).shape[0])


def _count_sc(c, args, kwargs, res):
    c["decoders.sc_rows"] += _rows(args, kwargs)


def _count_scl(c, args, kwargs, res):
    c["decoders.scl_rows"] += _rows(args, kwargs)


def _count_kept(c, args, kwargs, res):
    c["automorphisms.kept"] += len(res)


# (module, attribute, span name, layer, count hook).  Module names are
# relative to the aedcodes package; the attribute is looked up where the
# caller resolves it, which for `from .x import f` is the caller's module.
SPANS = [
    ("simulation", "run_mc", "run_mc", "simulation", None),
    ("simulation", "_eval_chunk", "_eval_chunk", "simulation", None),
    ("simulation", "encode", "encode", "codes.encode", None),
    ("simulation", "polar_transform", "polar_transform", "codes.encode", None),
    ("simulation", "compile_tables", "compile_tables", "automorphisms.compile", None),
    ("simulation", "decode_branches", "decode_branches", "ensemble", None),
    ("simulation", "sc_decode_batch", "sc_decode_batch", "decoders.sc", _count_sc),
    ("simulation", "scl_decode_batch", "scl_decode_batch", "decoders.scl", _count_scl),
    ("ensemble", "sample_ensemble", "sample_ensemble", "automorphisms.sample", _count_kept),
    ("ensemble", "sc_decode_batch", "sc_decode_batch", "decoders.sc", _count_sc),
]
COUNTERS = [
    ("automorphisms", "sample", "automorphisms.draws"),
    ("automorphisms", "mat_inv", "automorphisms.rank_tests"),
]
LAYERS = ["simulation", "codes.encode", "automorphisms.sample",
          "automorphisms.compile", "ensemble", "decoders.sc", "decoders.scl"]
COUNTS = ["automorphisms.kept", "automorphisms.draws", "automorphisms.rank_tests",
          "decoders.sc_rows", "decoders.scl_rows"]


class Tracer:
    """In-memory span recorder; spans are [name, layer, parent, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _span(self, name, layer, fn, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, layer, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, res)
            return res
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self, package):
        """Wrap the instrumented attributes of `package` (aedcodes)."""
        saved = []
        try:
            for mod, attr, name, layer, hook in SPANS:
                module = getattr(package, mod)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._span(name, layer, saved[-1][2], hook))
            for mod, attr, key in COUNTERS:
                module = getattr(package, mod)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._counter(key, saved[-1][2]))
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def take_counts(self) -> dict:
        """Counts since the last call, with every known key present.  The
        counter is cleared in place: the wrappers hold a reference to it."""
        out = {k: int(self.counts.get(k, 0)) for k in COUNTS}
        self.counts.clear()
        return out

    def self_times(self) -> tuple[dict, float]:
        """(self time per layer, summed root-span time) over all spans."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        wall = 0.0
        for (_, layer, parent, start, end), inner in zip(self.spans, child):
            out[layer] += (end - start) - inner
            if parent < 0:
                wall += end - start
        return out, wall

    def write(self, path) -> None:
        doc = [{"name": n, "layer": layer, "parent": p, "start": s, "end": e}
               for n, layer, p, s, e in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def layer_metrics(times: dict, wall: float, counts: dict, rounds: int,
                  overhead_ratio: float) -> dict:
    """Per-layer metrics per timed round, from summed self times over
    `rounds` traced rounds and the counts of one round."""
    def per(key):
        return times[key] / rounds

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    sc_s, scl_s = per("decoders.sc"), per("decoders.scl")
    c = counts
    return {
        "simulation.self_s": (per("simulation"), "s"),
        "codes.encode_s": (per("codes.encode"), "s"),
        "automorphisms.sample_s": (per("automorphisms.sample"), "s"),
        "automorphisms.compile_s": (per("automorphisms.compile"), "s"),
        "automorphisms.kept": (c["automorphisms.kept"], "count"),
        "automorphisms.draws": (c["automorphisms.draws"], "count"),
        "automorphisms.rank_tests": (c["automorphisms.rank_tests"], "count"),
        "automorphisms.draws_per_kept": (
            ratio(c["automorphisms.draws"], c["automorphisms.kept"]), "draws/kept"),
        "automorphisms.rank_tests_per_kept": (
            ratio(c["automorphisms.rank_tests"], c["automorphisms.kept"]), "tests/kept"),
        "ensemble.self_s": (per("ensemble"), "s"),
        "decoders.sc_s": (sc_s, "s"),
        "decoders.sc_rows": (c["decoders.sc_rows"], "count"),
        "decoders.sc_us_per_row": (ratio(sc_s, c["decoders.sc_rows"], 1e6), "us"),
        "decoders.scl_s": (scl_s, "s"),
        "decoders.scl_rows": (c["decoders.scl_rows"], "count"),
        "decoders.scl_ms_per_row": (ratio(scl_s, c["decoders.scl_rows"], 1e3), "ms"),
        "trace.wall_s": (wall / rounds, "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
