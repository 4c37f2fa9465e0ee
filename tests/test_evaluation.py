import numpy as np
import pytest

from ccnrank import evaluation
from ccnrank.corpus import generate_splits
from ccnrank.evaluation import (
    DEFAULT_SCALE_GRID,
    RecallReport,
    ScoredCandidateSet,
    cwf_rescore,
    ensemble_scores,
    evaluate,
    rank_candidates,
    ranks_at_scale,
    recall_at_k,
    tune_scale,
    tune_scale_from_scored,
)
from ccnrank.numerics import ContractError
from ccnrank.vocab import build_vocab


class TestRankCandidates:
    def test_strictly_highest_is_rank_one(self):
        scores = [0.9] + [0.1] * 9
        assert rank_candidates(scores) == 1

    def test_all_equal_is_rank_ten(self):
        assert rank_candidates([0.5] * 10) == 10

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            scores = rng.normal(size=10)
            if rng.random() < 0.3:  # force some exact ties
                scores[rng.integers(1, 10)] = scores[0]
            got = rank_candidates(scores)
            expected = 1
            for j in range(1, 10):
                if scores[j] > scores[0] or scores[j] == scores[0]:
                    expected += 1
            assert got == expected

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError):
            rank_candidates([np.nan] + [0.0] * 9)


class TestRecallAtK:
    def test_fraction(self):
        assert recall_at_k([1, 1, 1, 3], 1) == 0.75

    def test_k_ten_is_total(self):
        rng = np.random.default_rng(1)
        ranks = rng.integers(1, 11, size=50)
        assert recall_at_k(ranks, 10) == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(2)
        ranks = rng.integers(1, 11, size=200)
        values = [recall_at_k(ranks, k) for k in range(1, 11)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestCwfRescore:
    def test_scale_zero_preserves_ranking(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            scored = ScoredCandidateSet(rng.random(10), rng.random(10) * 5)
            base = rank_candidates(scored.probabilities)
            assert rank_candidates(cwf_rescore(scored, 0.0)) == base

    def test_positive_cwf_breaks_probability_tie(self):
        cwf = np.zeros(10)
        cwf[0] = 2.0
        scored = ScoredCandidateSet(np.full(10, 0.5), cwf)
        assert rank_candidates(scored.probabilities) == 10
        assert rank_candidates(cwf_rescore(scored, 0.5)) == 1

    def test_adjusted_matches_arithmetic_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p, c = rng.random(10), rng.random(10)
            scale = float(rng.random() * 3)
            got = cwf_rescore(ScoredCandidateSet(p, c), scale)
            np.testing.assert_array_equal(got, p + scale * c)


class TestEnsemble:
    def test_single_member_identity(self):
        v = np.linspace(0, 1, 10)
        np.testing.assert_array_equal(ensemble_scores([v]), v)

    def test_two_member_mean(self):
        a, b = np.full(10, 0.2), np.full(10, 0.4)
        np.testing.assert_allclose(ensemble_scores([a, b]), np.full(10, 0.3))

    def test_identical_members_idempotent(self):
        v = np.random.default_rng(5).random(10)
        np.testing.assert_allclose(ensemble_scores([v] * 7), v)

    def test_matches_arithmetic_oracle(self):
        rng = np.random.default_rng(6)
        members = [rng.random(10) for _ in range(5)]
        got = ensemble_scores(members)
        expected = np.array([sum(m[i] for m in members) / 5 for i in range(10)])
        np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            ensemble_scores([])


class TestTuneScale:
    def test_noop_rescoring_returns_zero(self):
        rng = np.random.default_rng(7)
        scored = [ScoredCandidateSet(rng.random(10), np.zeros(10)) for _ in range(20)]
        assert tune_scale_from_scored(scored) == 0.0

    def test_scale_that_fixes_one_and_breaks_none(self):
        # instance A: correct trails 0.6 > 0.5 at scale 0, its cwf 2.0 fixes it at 0.1
        fix_cwf = np.zeros(10)
        fix_cwf[0] = 2.0
        a_probs = np.full(10, 0.1)
        a_probs[0], a_probs[1] = 0.5, 0.6
        # instance B: already right, rescoring cannot break it
        b_probs = np.full(10, 0.1)
        b_probs[0] = 0.9
        b_cwf = np.zeros(10)
        b_cwf[0] = 0.5
        scored = [ScoredCandidateSet(a_probs, fix_cwf), ScoredCandidateSet(b_probs, b_cwf)]
        assert recall_at_k(ranks_at_scale(scored, 0.0), 1) == 0.5
        assert recall_at_k(ranks_at_scale(scored, 0.1), 1) == 1.0
        assert tune_scale_from_scored(scored, grid=[0.0, 0.1]) == 0.1

    def test_singleton_grid(self):
        scored = [ScoredCandidateSet(np.random.default_rng(8).random(10), np.zeros(10))]
        assert tune_scale_from_scored(scored, grid=[0.0]) == 0.0

    def test_grid_must_include_zero(self):
        scored = [ScoredCandidateSet(np.zeros(10), np.zeros(10))]
        with pytest.raises(ContractError):
            tune_scale_from_scored(scored, grid=[0.1])

    def test_default_grid_shape(self):
        assert 0.0 in DEFAULT_SCALE_GRID
        assert DEFAULT_SCALE_GRID == tuple(sorted(DEFAULT_SCALE_GRID))
        assert 100.0 in DEFAULT_SCALE_GRID and 1e-4 in DEFAULT_SCALE_GRID


class FixedScoreModel:
    """Test double for a RankingModel's scores: ``TestEvaluate`` has
    ``evaluation.score_members`` call each member's ``score_pairs``."""

    def __init__(self, vocab, score_fn):
        self.vocab = vocab
        self.vocab_hash = vocab.content_hash()
        self.score_fn = score_fn

    def score_pairs(self, pairs):
        return np.array([self.score_fn(c, r) for c, r in pairs])


class TestEvaluate:
    @pytest.fixture(autouse=True)
    def score_doubles(self, monkeypatch):
        monkeypatch.setattr(evaluation, "score_members",
                            lambda members, pairs: np.array([m.score_pairs(pairs) for m in members]))

    def setup_method(self):
        self.train, self.evals, _ = generate_splits(17, 400, 100, 0)
        self.vocab = build_vocab(self.train)

    def test_oracle_model_reaches_perfect_recall(self):
        correct = {id(inst.candidates[0]) for inst in self.evals}
        model = FixedScoreModel(self.vocab, lambda c, r: 1.0 if id(r) in correct else 0.0)
        report = evaluate([model], self.evals, scale=0.0)
        assert report.recall_at[1] == 1.0
        assert report.recall_at[5] == 1.0

    def test_constant_model_scores_zero_below_k10(self):
        model = FixedScoreModel(self.vocab, lambda c, r: 0.5)
        report = evaluate([model], self.evals, scale=0.0)
        assert report.recall_at[1] == 0.0
        assert report.recall_at[2] == 0.0
        assert report.recall_at[5] == 0.0

    def test_report_matches_independent_recomputation(self):
        rng = np.random.default_rng(9)
        lookup = {}

        def noisy(c, r):
            key = (id(c), id(r))
            if key not in lookup:
                lookup[key] = float(rng.random())
            return lookup[key]

        model = FixedScoreModel(self.vocab, noisy)
        instances = self.evals[:100]
        scale = 0.3
        report = evaluate([model], instances, scale=scale)

        hits = {1: 0, 2: 0, 5: 0}
        for inst in instances:
            adjusted = []
            for cand in inst.candidates:
                p = noisy(inst.context, cand)
                common = set()
                total = 0.0
                for w in cand:
                    if w in ("__eou__", "__eot__") or w in common or w not in set(inst.context):
                        continue
                    common.add(w)
                    total += 1.0 / self.vocab.counts.get(w, 1)
                adjusted.append(p + scale * total)
            rank = 1 + sum(1 for v in adjusted[1:] if v >= adjusted[0])
            for k in hits:
                hits[k] += rank <= k
        for k in hits:
            assert report.recall_at[k] == hits[k] / len(instances)

    def test_order_independence(self):
        rng = np.random.default_rng(10)
        values = {}

        def fixed(c, r):
            return values.setdefault((id(c), id(r)), float(rng.random()))

        model = FixedScoreModel(self.vocab, fixed)
        instances = self.evals[:50]
        report_a = evaluate([model], instances, scale=0.1)
        permuted = [instances[i] for i in np.random.default_rng(0).permutation(len(instances))]
        report_b = evaluate([model], permuted, scale=0.1)
        assert report_a.recall_at == report_b.recall_at

    def test_vocab_hash_mismatch_rejected(self):
        other = build_vocab(self.train[:10])
        models = [FixedScoreModel(self.vocab, lambda c, r: 0.0), FixedScoreModel(other, lambda c, r: 0.0)]
        with pytest.raises(ContractError, match="hash"):
            evaluate(models, self.evals)

    def test_report_tsv_format(self):
        report = RecallReport(recall_at={1: 0.5, 2: 0.75, 5: 1.0}, n_instances=4, scale=0.1)
        text = report.to_tsv()
        assert "recall@1\t0.500000" in text
        assert "n_instances\t4" in text
        assert text.endswith("scale\t0.1\n")

    def test_tune_scale_on_real_scoring_surface(self):
        model = FixedScoreModel(self.vocab, lambda c, r: 0.5)  # ties everywhere
        scale = tune_scale([model], self.evals[:40])
        # cwf alone must then decide, and the correct candidate shares the rare keyword
        assert scale > 0
        report = evaluate([model], self.evals[:40], scale=scale)
        assert report.recall_at[1] > 0.9
