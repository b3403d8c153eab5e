"""The benchmark's workloads: RM(4,8) Monte-Carlo points with a fixed frame
count per timed `run_mc` call (one round).  Every round decodes frames of
its own, drawn from a channel seed derived from the run's --seed and the
round's index, so a run's rounds together give one long BLER estimate.

This module imports nothing heavy, so the set-up probe can load it before
its clock starts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

CODE = (4, 8)  # RM(r, m): N = 256, k = 163
ROUND_BITS = 32  # channel seed of round j: (workload channel seed << ROUND_BITS) + j + 1


@dataclass(frozen=True)
class Workload:
    name: str
    decoder: str           # "sc", "aut32ga-sc" or "scl32"
    ebn0_db: float
    frames: int            # frames per timed run_mc call (one round, at most one chunk)
    warmup_frames: int     # frames of the untimed warm-up call
    check_frames: int      # frames of the correctness pass
    reference_bler: float  # published value at this point
    why: str

    def seeds(self, seed: int) -> tuple[int, int]:
        """(channel seed, ensemble seed) derived from the run's --seed;
        distinct across workloads and across seeds."""
        if seed < 0:
            raise ValueError("seed must be >= 0")
        base = 16 * seed + 2 * NAMES.index(self.name)
        return base, base + 1

    def build(self, ae, seed: int):
        """(spec, decoder config, channel) for this workload; `ae` is the
        imported aedcodes package."""
        ch_seed, ens_seed = self.seeds(seed)
        spec = ae.rm_code(*CODE)
        if self.decoder == "sc":
            dec = ae.Sc()
        elif self.decoder == "aut32ga-sc":
            dec = ae.EnsembleConfig(32, "ga", ae.Sc(), resample_per_frame=True,
                                    seed=ens_seed)
        elif self.decoder == "scl32":
            dec = ae.Scl(32)
        else:
            raise ValueError(f"unknown decoder {self.decoder!r}")
        return spec, dec, ae.ChannelConfig(self.ebn0_db, spec.rate, seed=ch_seed)

    @staticmethod
    def round_channel(ch, j: int):
        """Channel of round j (j >= 0) of a run whose base channel is `ch`:
        the same point, with frames of its own, distinct also from those of
        `ch` itself, which the warm-up and full-chunk calls decode."""
        return replace(ch, seed=(ch.seed << ROUND_BITS) + j + 1)


WORKLOADS = {w.name: w for w in [
    Workload("rm48-sc", "sc", 3.0, frames=256, warmup_frames=256,
             check_frames=256, reference_bler=3.725e-1,
             why="plain SC: cheapest decode, so frame streams, noise and "
                 "accounting in simulation dominate; automorphism changes "
                 "must leave it unmoved"),
    Workload("rm48-aut32ga-sc", "aut32ga-sc", 2.5, frames=4, warmup_frames=16,
             check_frames=64, reference_bler=3.780e-2,
             why="Aut-32-GA-SC redrawn per frame, the paper's headline decoder: "
                 "automorphism sampling and compilation dominate, SC kernel "
                 "at batch 128"),
    Workload("rm48-scl32", "scl32", 2.5, frames=4, warmup_frames=16,
             check_frames=64, reference_bler=7.506e-2,
             why="SCL-32: list-decoder path gathers dominate, no automorphism "
                 "work, highest peak memory"),
]}
NAMES = list(WORKLOADS)
