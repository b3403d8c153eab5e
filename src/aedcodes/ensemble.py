"""Automorphism ensemble decoding: M conjugated constituent decoders plus a
best-correlation (ML-in-the-list) selection, and executable verification of
the SC/permutation commutation properties.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

import numpy as np

from .automorphisms import (AffineAutomorphism, compile_tables, compose,
                            format_automorphism, inverse, mlup_decompose,
                            sample, sample_ensemble)
from .codes import CodeSpec, is_decreasing, polar_transform
from .decoders import (Bp, Sc, Scl, bp_decode_batch, sc_decode_batch,
                       scl_decode_batch)

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
    `seed`.  dedupe forces pairwise-distinct compiled permutations.

    kind, descriptor and to_dict(m) are shared with the plain configs: the
    kind and list size are the constituent's, subgroup and M the ensemble's.
    """

    size: int
    subgroup: str
    constituent: DecoderConfig
    resample_per_frame: bool = False
    seed: int = 0
    dedupe: bool = True
    include_identity: bool = False
    # manifest key -> (field, type), in manifest order
    _KEYS = {"seed": ("seed", int), "subgroup": ("subgroup", str),
             "M": ("size", int), "resample_per_frame": ("resample_per_frame", bool),
             "dedupe": ("dedupe", bool), "include_identity": ("include_identity", bool)}

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("ensemble size must be >= 1")
        check_seed(self.seed)

    @property
    def kind(self) -> str:
        return self.constituent.kind

    @property
    def descriptor(self) -> tuple[str, str, int, int]:
        return self.kind, self.subgroup, self.size, self.constituent.descriptor[3]

    def to_dict(self, m: int) -> dict:
        """Manifest form; a fixed ensemble also lists its automorphisms in
        the text format (replay draws them again from `seed`)."""
        out = {key: getattr(self, name) for key, (name, _) in self._KEYS.items()}
        out["constituent"] = self.constituent.to_dict(m)
        if not self.resample_per_frame:
            out["automorphisms"] = [format_automorphism(a)
                                    for a in self.sample_automorphisms(m)]
        return out

    def sample_automorphisms(self, m: int, rng=None) -> list[AffineAutomorphism]:
        if rng is None:
            rng = np.random.default_rng(self.seed)
        return sample_ensemble(m, self.subgroup, self.size, rng,
                               dedupe=self.dedupe,
                               include_identity=self.include_identity)


@dataclass
class CandidateSet:
    """Per-candidate results of one ensemble decode.

    x holds the codeword estimates, de-interleaved by scattering through
    their branch's index table (decode_branches), scores the correlations
    sum_i (-1)^x_i * y_i (-inf for unused list slots), branch the
    originating decoder index (candidates of an SCL constituent share a
    branch).  Candidates are ordered by branch, then by SCL list slot, and
    the winner is the lowest-index candidate of maximal score.  iterations
    carries the per-candidate BP iteration counts (1 for SC/SCL).
    """

    x: np.ndarray
    scores: np.ndarray
    branch: np.ndarray
    permutations: list[AffineAutomorphism]
    iterations: np.ndarray | None = None

    def __len__(self):
        return self.x.shape[0]


def aed_decode(spec: CodeSpec, y, llr, cfg: EnsembleConfig,
               perms: list[AffineAutomorphism]
               ) -> tuple[np.ndarray, int, CandidateSet]:
    """Decode one frame with an automorphism ensemble.

    Branch j decodes the input interleaved by pi_j's compiled table t_j,
    llr[t_j], and de-interleaves its codeword estimate by scattering
    through t_j (decode_branches).  The winner maximises the
    correlation to the received vector y (select_winners); ties go to the
    lowest candidate index, that is the lowest branch and then the lowest
    SCL list slot.  Returns the winner estimate, its candidate index and the
    full candidate set.
    """
    if len(perms) == 0:
        raise ValueError("ensemble needs at least one automorphism")
    if len(perms) != cfg.size:
        raise ValueError(f"got {len(perms)} automorphisms for ensemble size {cfg.size}")
    y = np.asarray(y, dtype=np.float64)
    llr = np.asarray(llr, dtype=np.float64)
    if y.shape != (spec.n,) or llr.shape != (spec.n,):
        raise ValueError(f"y and llr must have length {spec.n}")

    x_de, branch, iters, valid = decode_branches(spec, llr[None, :],
                                                 compile_tables(perms),
                                                 cfg.constituent)
    win, scores = select_winners(x_de, valid, y[None, :])
    winner = int(win[0])
    return x_de[0, winner], winner, CandidateSet(
        x=x_de[0], scores=scores[0], branch=branch[0],
        permutations=list(perms), iterations=iters[0])


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


def decode_branches(spec: CodeSpec, llrs: np.ndarray, tables: np.ndarray,
                    constituent: DecoderConfig, bp_dtype=np.float64
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run every ensemble branch of a batch of frames.

    llrs is (F, N).  tables holds compiled index tables t, either (M, N)
    shared by all frames or (F, M, N) per frame.  Branch j interleaves by
    gathering, llr[t_j], and de-interleaves its estimates by scattering
    through the same table, out[t_j[i]] = x[i]; no inverse table is built.
    Returns de-interleaved candidates (F, C, N), branch indices (F, C),
    per-candidate iteration counts (F, C) and a validity mask (F, C) that
    disqualifies unused list slots (short SCL lists).  C = M, or
    M * list_size for SCL constituents.
    """
    fsz, n = llrs.shape
    tables = np.broadcast_to(tables, (fsz,) + tables.shape[-2:])
    msz = tables.shape[1]
    rows = fsz * msz
    permuted = np.take_along_axis(llrs[:, None, :], tables, axis=2).reshape(rows, n)
    if isinstance(constituent, Sc):
        x, lsz, iters, valid = (sc_decode_batch(spec, permuted)[1], 1,
                                np.ones(rows, dtype=np.int64), np.ones(rows, dtype=bool))
    elif isinstance(constituent, Scl):
        lsz = constituent.list_size
        _, x, pm = scl_decode_batch(spec, permuted, lsz)
        iters, valid = np.ones(pm.size, dtype=np.int64), np.isfinite(pm)
    elif isinstance(constituent, Bp):
        u, _, it, _ = bp_decode_batch(spec, permuted, constituent.max_iters,
                                      constituent.stopping, constituent.reduce_graph,
                                      dtype=bp_dtype)
        # candidates must be codewords for the correlation selection to be
        # meaningful: re-encode the message estimate (equal to the codeword
        # hard decision whenever the branch converged)
        x, lsz, iters, valid = polar_transform(u), 1, it, np.ones(rows, dtype=bool)
    else:
        raise TypeError(f"unsupported constituent decoder {constituent!r}")
    out = np.empty((fsz, msz, lsz, n), dtype=x.dtype)
    np.put_along_axis(out, tables[:, :, None, :], x.reshape(out.shape), axis=3)
    csz = msz * lsz
    branch = np.broadcast_to(np.arange(msz).repeat(lsz), (fsz, csz))
    return (out.reshape(fsz, csz, n), branch, iters.reshape(fsz, csz),
            valid.reshape(fsz, csz))


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
    llr = np.asarray(llr, dtype=np.float64)[None, :]
    return decode_branches(spec, llr, compile_tables([inverse(aut)]), Sc())[0][0, 0]


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


# ---------------------------------------------------------------------------
# manifest

def decoder_from_dict(d: dict) -> DecoderConfig | EnsembleConfig:
    """Rebuild a decoder config from its to_dict() form: an ensemble when
    the dict nests a constituent, else the plain decoder named by "kind".
    A manifest is outside input: a value must already have its field's
    JSON type (booleans for bool fields, integers other than booleans for
    int fields) and is never converted; missing optional keys take their
    defaults, and unknown keys, missing required keys (an ensemble's "M"
    and "subgroup"), wrong types and unknown kinds raise ValueError."""
    if "constituent" in d:
        _check_manifest_keys(d, {*EnsembleConfig._KEYS, "constituent", "automorphisms"})
        required = {f.name for f in fields(EnsembleConfig) if f.default is MISSING}
        return EnsembleConfig(
            constituent=decoder_from_dict(_manifest_value(d, "constituent", dict)),
            **{name: _manifest_value(d, key, typ)
               for key, (name, typ) in EnsembleConfig._KEYS.items()
               if key in d or name in required})
    cls = {c.kind: c for c in (Sc, Scl, Bp)}.get(d.get("kind"))
    if cls is None:
        raise ValueError(f"unknown decoder kind {d.get('kind')!r}")
    _check_manifest_keys(d, {"kind", *(f.name for f in fields(cls))})
    return cls(**{f.name: _manifest_value(d, f.name, type(f.default))
                  for f in fields(cls) if f.name in d})


def _check_manifest_keys(d: dict, known: set[str]) -> None:
    unknown = sorted(set(d) - known)
    if unknown:
        raise ValueError(f"unknown manifest keys {unknown}")


def _manifest_value(d: dict, key: str, typ: type):
    if key not in d:
        raise ValueError(f"manifest lacks {key!r}")
    value = d[key]
    if not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
        raise ValueError(f"manifest key {key!r} must be {typ.__name__}, got {value!r}")
    return value
