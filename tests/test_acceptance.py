"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The learnability
criterion trains all three architectures on the pinned synthetic corpus and
takes a few minutes; everything else is fast.
"""

import time
from functools import reduce

import numpy as np
import pytest

from ccnrank import numerics as nm
from ccnrank.corpus import generate_splits, topic_keywords
from ccnrank.evaluation import (
    ScoredCandidateSet,
    cwf_rescore,
    ensemble_scores,
    evaluate,
    rank_candidates,
    ranks_at_scale,
    recall_at_k,
    score_instances,
    tune_scale_from_scored,
)
from ccnrank.layers import kmax_pool
from ccnrank.models import (
    ARCHITECTURES,
    ModelConfig,
    build_model,
    forward_batch,
    load_checkpoint,
    prepare_pairs,
    randomize_parameters,
    save_checkpoint,
)
from ccnrank.numerics import Tensor, backward, finite_diff_check
from ccnrank.training import TrainConfig, batch_loss, train
from ccnrank.vocab import (
    HIGH,
    LOW,
    PAD_ID,
    Vocabulary,
    build_vocab,
    cwf_score,
    encode,
    filter_rows,
    split_by_frequency,
)

SEED = 7
LEARNABILITY = dict(n_train=4000, n_eval=500, embedding_dim=32, hidden_size=32, max_len=40,
                    batch_size=64, learning_rate=1e-3, max_epochs=10)
RECALL_FLOORS = {"dual_lstm": 0.60, "ccn_lstm": 0.80, "mfcw_lstm": 0.80}


def verdict(criterion, description, passed, detail=""):
    print(f"[acceptance {criterion}] {description}: {'PASS' if passed else 'FAIL'} {detail}".rstrip())


@pytest.fixture(scope="module")
def corpus7():
    train_set, eval_set, val_set = generate_splits(SEED, LEARNABILITY["n_train"],
                                                   LEARNABILITY["n_eval"], 500)
    return train_set, eval_set, val_set, build_vocab(train_set)


@pytest.fixture(scope="module")
def trained(corpus7):
    """The three architectures trained at the pinned learnability settings."""
    train_set, eval_set, val_set, vocabulary = corpus7
    out = {}
    for arch in ARCHITECTURES:
        config = ModelConfig(
            architecture=arch,
            embedding_dim=LEARNABILITY["embedding_dim"],
            hidden_size=LEARNABILITY["hidden_size"],
            max_len=LEARNABILITY["max_len"],
            seed=SEED,
        )
        model, _ = build_model(config, vocabulary)
        train_config = TrainConfig(
            batch_size=LEARNABILITY["batch_size"],
            learning_rate=LEARNABILITY["learning_rate"],
            max_epochs=LEARNABILITY["max_epochs"],
            seed=SEED,
            patience=LEARNABILITY["max_epochs"],  # run the full budget
            validation=val_set,
            epsilon=1e-8,  # spec-configurable; default 1e-6 floors tiny gradients
        )
        started = time.perf_counter()
        model, reports = train(model, train_set, train_config)
        out[arch] = (model, time.perf_counter() - started, reports)
    return out


def toy_vocab_50():
    """Exactly 50 ids: pad, oov, 24 high-band and 24 low-band words."""
    counts = {f"hi{i:02d}": 12 + i for i in range(24)}
    counts.update({f"lo{i:02d}": 1 + i % 5 for i in range(24)})
    ordered = sorted(counts, key=lambda w: (-counts[w], w))
    return Vocabulary(
        word_to_id={w: i + 2 for i, w in enumerate(ordered)},
        counts=counts,
        words_by_id=tuple(ordered),
    )


class TestCriterion1GradientCorrectness:
    def test_all_architectures_match_finite_differences(self):
        vocabulary = toy_vocab_50()
        assert vocabulary.size == 50
        words = list(vocabulary.word_to_id)
        rng = np.random.default_rng(SEED)
        started = time.perf_counter()
        worst = {}
        for arch in ARCHITECTURES:
            config = ModelConfig(architecture=arch, embedding_dim=8, hidden_size=8,
                                 max_len=12, k=2, seed=SEED)
            model, _ = build_model(config, vocabulary)
            randomize_parameters(model, np.random.default_rng(SEED))
            pairs = []
            for _ in range(6):
                ctx = tuple(words[i] for i in rng.integers(0, len(words), size=rng.integers(3, 12)))
                resp = tuple(words[i] for i in rng.integers(0, len(words), size=rng.integers(1, 10)))
                pairs.append((ctx, resp))
            labels = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
            prepared = prepare_pairs(model, pairs)

            def objective():
                return batch_loss(forward_batch(model, prepared), labels)

            report = finite_diff_check(objective, model.params, h=1e-4, tolerance=1e-4, seed=SEED)
            worst[arch] = report.max_relative_error
            assert report.passed, (arch, report.worst_parameter, report.max_relative_error)
        elapsed = time.perf_counter() - started
        passed = elapsed < 60 and all(v < 1e-4 for v in worst.values())
        verdict(1, "gradient correctness (3 architectures, rel err < 1e-4)", passed,
                f"worst={max(worst.values()):.2e}, {elapsed:.1f}s")
        assert passed


class TestCriterion2OracleEquivalence:
    def test_all_oracles_exact(self, corpus7):
        train_set, _, _, vocabulary = corpus7
        rng = np.random.default_rng(SEED)

        for _ in range(10_000):
            values = rng.normal(size=int(rng.integers(2, 24)))
            k = int(rng.integers(1, len(values) + 1))
            pooled = kmax_pool(Tensor(values.reshape(1, 1, -1)), k, [len(values)], [1], 1)
            assert pooled.data[0].tolist() == np.sort(values)[::-1][:k].tolist()

        checked = 0
        for inst in train_set:
            if checked == 1000:
                break
            expected, seen = 0.0, set()
            for w in inst.response:
                if w in ("__eou__", "__eot__") or w in seen or w not in set(inst.context):
                    continue
                seen.add(w)
                expected += 1.0 / vocabulary.counts.get(w, 1)
            assert cwf_score(inst.context, inst.response, vocabulary) == expected
            checked += 1
        assert checked == 1000

        for _ in range(10_000):
            scores = rng.normal(size=10)
            if rng.random() < 0.25:
                scores[rng.integers(1, 10)] = scores[0]
            expected = 1 + sum(1 for j in range(1, 10) if scores[j] >= scores[0])
            assert rank_candidates(scores) == expected

        for _ in range(200):
            members = [rng.random(10) for _ in range(int(rng.integers(1, 20)))]
            oracle = reduce(np.add, [m.copy() for m in members]) / len(members)
            assert ensemble_scores(members).tolist() == oracle.tolist()

        verdict(2, "oracle equivalence (kmax/cwf/rank/ensemble, exact)", True)


class TestCriterion3RandomBaseline:
    def test_uniform_scoring_recall_bands(self):
        _, eval_set, _ = generate_splits(SEED + 1, 2, 10_000, 0)
        assert len(eval_set) == 10_000
        rng = np.random.default_rng(SEED)
        ranks = [rank_candidates(rng.random(len(inst.candidates))) for inst in eval_set]
        r = {k: recall_at_k(ranks, k) for k in (1, 2, 5)}
        passed = 0.08 <= r[1] <= 0.12 and 0.17 <= r[2] <= 0.23 and 0.46 <= r[5] <= 0.54
        verdict(3, "random-baseline sanity on 10000 instances", passed,
                f"r@1={r[1]:.3f} r@2={r[2]:.3f} r@5={r[5]:.3f}")
        assert passed


class TestCriterion4SyntheticLearnability:
    def test_recall_floors_and_budget(self, corpus7, trained):
        _, eval_set, _, _ = corpus7
        results = {}
        for arch in ARCHITECTURES:
            model, elapsed, _ = trained[arch]
            report = evaluate([model], eval_set, scale=0.0)
            results[arch] = (report.recall_at[1], elapsed)
        passed = all(
            recall >= RECALL_FLOORS[arch] and elapsed < 600
            for arch, (recall, elapsed) in results.items()
        )
        detail = " ".join(f"{a}:r@1={r:.3f}/{e:.0f}s" for a, (r, e) in results.items())
        verdict(4, "synthetic learnability (seed 7, <=10 epochs, <10 min each)", passed, detail)
        assert passed, results


class TestCriterion5CwfRescoring:
    def constructed_subset(self, eval_set):
        subset = []
        for i, inst in enumerate(eval_set):
            ctx_kw = topic_keywords(inst.context)
            shares = bool(ctx_kw & topic_keywords(inst.candidates[0]))
            unique = all(not (ctx_kw & topic_keywords(c)) for c in inst.candidates[1:])
            if shares and unique:
                subset.append(i)
        return subset

    def test_positive_scale_improves_recall(self, corpus7, trained):
        _, eval_set, val_set, vocabulary = corpus7
        subset = self.constructed_subset(eval_set)
        construction_ok = len(subset) >= 0.3 * len(eval_set)

        # base model: an untrained high-band encoder; it cannot see the rare
        # keywords, which leaves CWF rescoring room for a strict improvement
        config = ModelConfig(architecture="dual_lstm", embedding_dim=16, hidden_size=16,
                             max_len=40, seed=SEED)
        model, _ = build_model(config, vocabulary)
        tuned = tune_scale_from_scored(score_instances([model], val_set))
        scored = score_instances([model], eval_set)
        base_ranks = np.array(ranks_at_scale(scored, 0.0))
        tuned_ranks = np.array(ranks_at_scale(scored, tuned))
        overall_ok = recall_at_k(tuned_ranks, 1) >= recall_at_k(base_ranks, 1)
        strict_ok = recall_at_k(tuned_ranks[subset], 1) > recall_at_k(base_ranks[subset], 1)

        # trained models must not regress under their tuned scale either
        trained_ok = True
        for arch in ARCHITECTURES:
            t_model, _, _ = trained[arch]
            t_scored = score_instances([t_model], eval_set)
            t_scale = tune_scale_from_scored(score_instances([t_model], val_set))
            trained_ok &= recall_at_k(ranks_at_scale(t_scored, t_scale), 1) >= recall_at_k(
                ranks_at_scale(t_scored, 0.0), 1
            )

        passed = construction_ok and tuned > 0 and overall_ok and strict_ok and trained_ok
        verdict(5, "CWF rescoring (positive tuned scale, strict gain on subset)", passed,
                f"subset={len(subset)}/{len(eval_set)} scale={tuned:g} "
                f"r@1 {recall_at_k(base_ranks, 1):.3f}->{recall_at_k(tuned_ranks, 1):.3f}")
        assert passed


class TestCriterion6DeterminismPersistence:
    def run_once(self, tmp_path, tag):
        train_set, _, val_set = generate_splits(11, 240, 1, 40)
        vocabulary = build_vocab(train_set)
        config = ModelConfig(architecture="ccn_lstm", embedding_dim=8, hidden_size=8,
                             max_len=16, seed=3)
        model, _ = build_model(config, vocabulary)
        log_path = tmp_path / f"{tag}.log"
        cfg = TrainConfig(batch_size=32, max_epochs=3, seed=3, patience=3,
                          validation=val_set, log_path=str(log_path))
        model, reports = train(model, train_set, cfg)
        ckpt = tmp_path / f"{tag}.ckpt"
        save_checkpoint(model, ckpt)
        return model, vocabulary, ckpt, log_path, reports

    @staticmethod
    def strip_seconds(log_text):
        return "\n".join("\t".join(line.split("\t")[:-1]) for line in log_text.splitlines())

    def test_reruns_round_trips_and_loaded_equality(self, tmp_path):
        model_a, vocab_a, ckpt_a, log_a, reports_a = self.run_once(tmp_path, "a")
        model_b, _, ckpt_b, log_b, reports_b = self.run_once(tmp_path, "b")

        checkpoints_identical = ckpt_a.read_bytes() == ckpt_b.read_bytes()
        # wall-clock seconds is the one nondeterministic log column
        logs_identical = self.strip_seconds(log_a.read_text()) == self.strip_seconds(log_b.read_text())
        metrics_identical = [
            (r.epoch, r.train_loss, r.val_accuracy, r.val_recall1) for r in reports_a
        ] == [(r.epoch, r.train_loss, r.val_accuracy, r.val_recall1) for r in reports_b]

        loaded = load_checkpoint(ckpt_a, vocab=vocab_a)
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(loaded, resaved)
        round_trip_exact = resaved.read_bytes() == ckpt_a.read_bytes()

        _, eval_set, _ = generate_splits(12, 40, 30, 0)
        pairs = [(inst.context, cand) for inst in eval_set for cand in inst.candidates]
        in_memory = model_a.score_pairs(pairs)
        from_disk = loaded.score_pairs(pairs)
        eval_identical = np.array_equal(in_memory, from_disk)

        passed = all(
            [checkpoints_identical, logs_identical, metrics_identical, round_trip_exact, eval_identical]
        )
        verdict(6, "determinism and bit-exact persistence", passed,
                f"ckpt={checkpoints_identical} log={logs_identical} roundtrip={round_trip_exact} "
                f"eval={eval_identical}")
        assert passed


class TestCriterion7InvariantSuites:
    def test_named_invariants(self):
        rng = np.random.default_rng(SEED)
        results = {}

        # pad rows receive no gradient and pad embeddings contribute nothing
        from ccnrank.layers import embed_lookup, init_embedding_matrix
        from ccnrank.numerics import ParameterSet, tsum

        ps = ParameterSet()
        table = ps.add("emb", init_embedding_matrix(6, 4, rng))  # row 0, the padding row, is zero
        out = embed_lookup(np.array([3, 0, 0, 5]), table)
        backward(tsum(nm.mul(out, out)))
        results["pad_gradient_frozen"] = bool(
            np.array_equal(table.grad[PAD_ID], np.zeros(4))
            and np.array_equal(out.data[:, 1], np.zeros(4))
        )

        # lstm encoding ignores positions beyond the true length
        from ccnrank.layers import lstm_encode
        from ccnrank.layers import init_lstm_arrays

        w_in, w_rec, bias = init_lstm_arrays(3, 4, rng)
        ps2 = ParameterSet()
        params = (ps2.add("w", w_in), ps2.add("u", w_rec), ps2.add("b", bias))
        x = rng.normal(size=(1, 3, 7))
        y = x.copy()
        y[..., 4:] = rng.normal(size=(3, 3))
        length = np.array([4])
        results["lstm_padding_invariance"] = bool(
            np.array_equal(
                lstm_encode(Tensor(x), length, *params).data, lstm_encode(Tensor(y), length, *params).data
            )
        )

        # recall is monotone in k and total at k = 10
        ranks = rng.integers(1, 11, size=500)
        values = [recall_at_k(ranks, k) for k in range(1, 11)]
        results["recall_monotone"] = bool(
            all(a <= b for a, b in zip(values, values[1:])) and values[-1] == 1.0
        )

        # scale-0 rescoring never changes any instance's ranking
        ok = True
        for _ in range(200):
            scored = ScoredCandidateSet(rng.random(10), rng.random(10) * 3)
            ok &= rank_candidates(cwf_rescore(scored, 0.0)) == rank_candidates(scored.probabilities)
        results["scale_zero_invariance"] = bool(ok)

        # pessimistic ties lower-bound any other tie policy
        ok = True
        for _ in range(500):
            scores = rng.integers(0, 4, size=10).astype(float)  # many ties
            pessimistic = rank_candidates(scores)
            optimistic = 1 + int((scores[1:] > scores[0]).sum())
            ok &= pessimistic >= optimistic
        results["tie_pessimism"] = bool(ok)

        # frequency split partitions the real-word ids at every threshold
        train_set, _, _ = generate_splits(SEED + 2, 200, 2, 0)
        vocabulary = build_vocab(train_set)
        ok = True
        for threshold in (0, 1, 5, 9, 50):
            split = split_by_frequency(vocabulary, threshold)
            ok &= not (split.high & split.low)
            ok &= (split.high | split.low) == frozenset(vocabulary.word_to_id.values())
            ids, lengths = encode([train_set[0].context], vocabulary, 24)
            ok &= (filter_rows(ids, split, HIGH)[1] + filter_rows(ids, split, LOW)[1] == lengths).all()
        results["frequency_partition"] = bool(ok)

        passed = all(results.values())
        failing = [k for k, v in results.items() if not v]
        verdict(7, "invariant suites", passed, f"failing={failing}" if failing else "")
        assert passed, results
