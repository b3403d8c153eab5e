"""Automorphism ensemble configs (M conjugated constituent decoders), the
best-correlation (ML-in-the-list) winner rule, and executable verification
of the SC/permutation commutation properties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automorphisms import (SUBGROUPS, AffineAutomorphism, AutomorphismBatch,
                            check_ensemble, compile_tables, compose, inverse,
                            mlup_decompose, sample, sample_ensemble)
from .codes import CodeSpec, is_decreasing
from .decoders import Bp, Sc, Scl, check_count, sc_decode_batch

DecoderConfig = Sc | Scl | Bp


def check_seed(seed) -> None:
    """Accept only what every stream derivation takes as a seed: a
    non-negative integer.  Raises TypeError for any other type (bool
    included) and ValueError for a negative value."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be a non-negative integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


@dataclass(frozen=True)
class EnsembleConfig:
    """Ensemble of `size` constituent decoders conjugated by sampled
    automorphisms from `subgroup` ("ga", "lta", "uta" or "pi").

    With resample_per_frame the automorphisms are redrawn for every decoded
    frame (seeded by frame position); otherwise one fixed set is drawn from
    `seed`.  An ensemble's automorphisms, and so its compiled
    permutations, are pairwise distinct (see sample_ensemble).

    kind and descriptor are shared with the plain configs: the kind and
    list size are the constituent's, subgroup and M the ensemble's.
    """

    size: int
    subgroup: str
    constituent: DecoderConfig
    resample_per_frame: bool = False
    seed: int = 0

    def __post_init__(self):
        """Refuse what no run can use: a size that is not an integer >= 1
        (bool included; TypeError for the type, as check_seed), a subgroup
        outside SUBGROUPS or a constituent that is not Sc, Scl or Bp."""
        check_count("ensemble size", self.size)
        if self.subgroup not in SUBGROUPS:
            raise ValueError(f"unknown subgroup {self.subgroup!r}, "
                             f"expected one of {', '.join(SUBGROUPS)}")
        if not isinstance(self.constituent, (Sc, Scl, Bp)):
            raise TypeError(f"constituent must be Sc, Scl or Bp, got {self.constituent!r}")
        check_seed(self.seed)

    @property
    def kind(self) -> str:
        return self.constituent.kind

    @property
    def descriptor(self) -> tuple[str, str, int, int]:
        return self.kind, self.subgroup, self.size, self.constituent.descriptor[3]

    def check_drawable(self, m: int) -> None:
        """Raise ValueError unless the ensemble can be drawn for length
        2**m (check_ensemble), before a run or its manifest starts."""
        check_ensemble(m, self.subgroup, self.size)

    def sample_automorphisms(self, m: int, rng=None) -> AutomorphismBatch:
        """The ensemble's automorphisms for length 2**m as a batch: the fixed
        set drawn from `seed` when rng is None, else those drawn from `rng`
        (a Generator, or a list of per-frame PCG64 states; see
        sample_ensemble)."""
        if rng is None:
            rng = np.random.default_rng(self.seed)
        return sample_ensemble(m, self.subgroup, self.size, rng)


def select_winners(x: np.ndarray, valid: np.ndarray, y: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Best-correlation candidate of every frame.

    x holds candidates (F, C, N), valid their (F, C) mask and y the received
    vectors (F, N).  Scores are sum_i (-1)^x_i * y_i, -inf for invalid
    slots; the winner is the lowest candidate index of maximal score.
    Returns the winner indices (F,) and the scores (F, C).
    """
    scores = ((1.0 - 2.0 * x.astype(np.float64)) @ y[:, :, None])[:, :, 0]
    scores[~valid] = -np.inf
    return np.argmax(scores, axis=1), scores


# ---------------------------------------------------------------------------
# executable verification of the commutation properties

@dataclass
class VerificationReport:
    name: str
    trials: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def __str__(self):
        state = "ok" if self.passed else "FAIL"
        return f"{self.name}: {self.trials} trials, {self.failures} failures [{state}]"


def verify_lta_commutation(spec: CodeSpec, trials: int,
                           rng: np.random.Generator) -> VerificationReport:
    """Check SC(pi(L)) == pi(SC(L)) bit-exactly for random lower-triangular
    affine pi and random LLRs; the guarantee holds for decreasing monomial
    codes only, so non-decreasing specs are rejected."""
    if not is_decreasing(spec):
        raise ValueError("commutation holds for decreasing monomial codes only")
    failures = 0
    for _ in range(trials):
        aut = sample(spec.m, "lta", rng)
        table = compile_tables([aut])[0]
        llr = rng.normal(0.0, 2.0, spec.n)
        _, x_perm = sc_decode_batch(spec, llr[None, table])
        _, x_plain = sc_decode_batch(spec, llr[None, :])
        if not np.array_equal(x_perm[0], x_plain[0][table]):
            failures += 1
    return VerificationReport("lta-commutation", trials, failures)


def conjugated_sc_branch(spec: CodeSpec, aut: AffineAutomorphism, llr) -> np.ndarray:
    """Codeword estimate of the SC branch conjugated by `aut`: the one
    decode_branches branch whose table is that of aut^{-1}.

    Interleaving by the inverse table and de-interleaving by the forward
    one is the orientation in which a lower-triangular left factor cancels
    against the decoder exactly: vector gathers compose in the reverse
    order of the automorphisms.  Over a whole subgroup the set of branches
    is unchanged (each element is simply relabelled by its inverse).
    """
    table = compile_tables([inverse(aut)])[0]
    x = np.empty(spec.n, np.uint8)
    x[table] = sc_decode_batch(spec, np.asarray(llr, dtype=np.float64)[None, table])[1][0]
    return x


def verify_lta_absorption(spec: CodeSpec, trials: int,
                          rng: np.random.Generator) -> VerificationReport:
    """Check that factoring pi = L o U o P makes the lower-triangular factor
    irrelevant: the conjugated SC branch under pi equals the branch under
    U o P, bit-exactly, for random pi drawn from the full affine group."""
    if not is_decreasing(spec):
        raise ValueError("absorption holds for decreasing monomial codes only")
    failures = 0
    for _ in range(trials):
        aut = sample(spec.m, "ga", rng)
        _, u_part, p_part = mlup_decompose(aut)
        llr = rng.normal(0.0, 2.0, spec.n)
        full = conjugated_sc_branch(spec, aut, llr)
        reduced = conjugated_sc_branch(spec, compose(u_part, p_part), llr)
        if not np.array_equal(full, reduced):
            failures += 1
    return VerificationReport("lta-absorption", trials, failures)
