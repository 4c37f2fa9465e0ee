"""Candidate ranking, Recall@k, CWF rescoring, and ensemble averaging.

Ranking uses pessimistic tie-breaking: candidates tied with the correct one
count against it, so every reported recall is a lower bound under any other
tie policy.  The common-words-frequency (CWF) adjustment is evaluation-time
only: adjusted score = model probability + scale * cwf, with the scale tuned
on a validation split by maximizing recall@1 (ties go to the smaller scale).
Ensembles are unweighted means of member probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import score_members
from .numerics import ContractError
from .vocab import cwf_score

RECALL_KS = (1, 2, 5)

DEFAULT_SCALE_GRID = tuple(
    sorted({0.0} | {10.0**e for e in range(-4, 3)} | {3 * 10.0**e for e in range(-4, 2)})
)


def rank_candidates(scores) -> int:
    """1-based rank of the correct candidate (the first), ties counting against it."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ContractError("rank_candidates requires finite scores")
    return int(1 + (scores[1:] >= scores[0]).sum())


def recall_at_k(ranks, k) -> float:
    """Fraction of instances whose correct candidate ranks in the top k."""
    ranks = np.asarray(ranks)
    if len(ranks) == 0:
        raise ContractError("recall_at_k requires at least one rank")
    return float((ranks <= k).mean())


@dataclass(eq=False)
class ScoredCandidateSet:
    """Parallel per-candidate arrays for one eval instance."""

    probabilities: np.ndarray
    cwf: np.ndarray

    def __post_init__(self):
        self.probabilities = np.asarray(self.probabilities, dtype=np.float64)
        self.cwf = np.asarray(self.cwf, dtype=np.float64)
        if self.probabilities.shape != self.cwf.shape:
            raise ContractError("probabilities and cwf must be parallel arrays")


@dataclass
class RecallReport:
    recall_at: dict
    n_instances: int
    scale: float = 0.0

    def to_tsv(self) -> str:
        lines = [f"recall@{k}\t{self.recall_at[k]:.6f}" for k in sorted(self.recall_at)]
        lines.append(f"n_instances\t{self.n_instances}")
        lines.append(f"scale\t{self.scale:g}")
        return "\n".join(lines) + "\n"


def check_scale(scale):
    """Raise ContractError unless the cwf scale is finite and >= 0."""
    if not 0 <= scale < np.inf:  # NaN fails too
        raise ContractError(f"cwf scale must be finite and >= 0, got {scale}")


def cwf_rescore(scored: ScoredCandidateSet, scale) -> np.ndarray:
    """Adjusted scores: probability + scale * cwf (no renormalization)."""
    check_scale(scale)
    return scored.probabilities + scale * scored.cwf


def ensemble_scores(member_probabilities) -> np.ndarray:
    """Unweighted elementwise mean over the member models' probabilities."""
    if len(member_probabilities) == 0:
        raise ContractError("ensemble requires at least one member")
    stacked = np.stack([np.asarray(m, dtype=np.float64) for m in member_probabilities])
    return stacked.mean(axis=0)


def _check_shared_vocabulary(models):
    if not models:
        raise ContractError("need at least one model")
    if len({m.vocab_hash for m in models}) != 1:
        raise ContractError("models must share one vocabulary (hash mismatch)")


def score_instances(models, instances):
    """ScoredCandidateSets: ensembled model probabilities plus CWF per candidate."""
    _check_shared_vocabulary(models)
    vocab = models[0].vocab
    n_candidates = len(instances[0].candidates) if instances else 0
    pairs = [(inst.context, cand) for inst in instances for cand in inst.candidates]
    probs = ensemble_scores(score_members(models, pairs)).reshape(len(instances), n_candidates)
    scored = []
    for i, inst in enumerate(instances):
        cwf = np.array([cwf_score(inst.context, cand, vocab) for cand in inst.candidates])
        scored.append(ScoredCandidateSet(probabilities=probs[i], cwf=cwf))
    return scored


def ranks_at_scale(scored_sets, scale):
    return [rank_candidates(cwf_rescore(s, scale)) for s in scored_sets]


def report_from_scored(scored_sets, scale) -> RecallReport:
    ranks = ranks_at_scale(scored_sets, scale)
    return RecallReport(
        recall_at={k: recall_at_k(ranks, k) for k in RECALL_KS},
        n_instances=len(scored_sets),
        scale=float(scale),
    )


def evaluate(models, instances, scale=0.0) -> RecallReport:
    """Score, ensemble, CWF-rescore, and rank an eval set into a RecallReport."""
    scored = score_instances(models, instances)
    return report_from_scored(scored, scale)


def tune_scale_from_scored(scored_sets, grid=DEFAULT_SCALE_GRID) -> float:
    """Grid value maximizing recall@1; ties go to the smaller scale."""
    grid = sorted(float(s) for s in grid)
    if not grid or 0.0 not in grid:
        raise ContractError("scale grid must be non-empty and include 0")
    best_scale, best_recall = None, -1.0
    for scale in grid:
        r1 = recall_at_k(ranks_at_scale(scored_sets, scale), 1)
        if r1 > best_recall:
            best_recall, best_scale = r1, scale
    return best_scale


def tune_scale(models, validation_instances) -> float:
    """Pick the CWF scale on a validation split by recall@1 over ``DEFAULT_SCALE_GRID``."""
    scored = score_instances(models, validation_instances)
    return tune_scale_from_scored(scored)
