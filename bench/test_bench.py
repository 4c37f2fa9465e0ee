"""Tests of the benchmark's own machinery: span self times, patching, the rank
oracle, the numpy reference, the gradient check, and BENCHMARK.json's list of
per-layer metrics.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
from tracing import Tracer  # noqa: E402

from ccnrank import models, numerics, training  # noqa: E402
from ccnrank.corpus import generate_splits  # noqa: E402
from ccnrank.vocab import build_vocab  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    t = Tracer()
    #         name     arch   start end parent phase
    t.spans = [["a", "x", 0.0, 10.0, -1, "train"],
               ["b", "x", 1.0, 5.0, 0, "train"],
               ["c", "x", 2.0, 3.0, 1, "train"],
               ["b", "x", 6.0, 7.0, 0, "train"]]
    own = t.self_times()
    assert own[("train", "a", "x")] == pytest.approx(10 - 4 - 1)
    assert own[("train", "b", "x")] == pytest.approx(4 - 1 + 1)
    assert own[("train", "c", "x")] == pytest.approx(1)


def test_wrap_records_nested_spans_inherits_arch_and_restores():
    t = Tracer()
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda model, x: ns.inner(x) * 2
    original = ns.inner
    t.wrap(ns, "inner", "inner")
    t.wrap(ns, "outer", "outer", arch_of=lambda args: args[0])
    t.phase = "rank"
    assert ns.outer("dual_lstm", 1) == 4
    assert [(s[0], s[1], s[4], s[5]) for s in t.spans] == [
        ("outer", "dual_lstm", -1, "rank"), ("inner", "dual_lstm", 0, "rank")]
    t.restore()
    assert ns.inner is original


def test_counter_counts_only_inside_training_batches():
    t = Tracer()
    ns = types.SimpleNamespace(op=lambda: None, batch=lambda: ns.op())
    t.wrap_counter(ns, "op", "ops", only_in_training_batch=True)
    t.wrap(ns, "batch", "batch", counts_ops=True)
    t.phase = "train"
    ns.op()
    ns.batch()
    ns.batch()
    assert t.counts == {("train", "ops", None): 2}


def test_oracle_rank_counts_ties_against_the_correct_candidate():
    assert reference.oracle_rank([0.9, 0.1, 0.5]) == 1
    assert reference.oracle_rank([0.5, 0.5, 0.1]) == 2
    assert reference.oracle_rank([0.5, 0.5, 0.5]) == 3
    assert reference.oracle_rank([0.2, 0.5, 0.1]) == 2


def test_cwf_counts_each_common_type_once_and_skips_markers():
    counts = {"a": 2, "b": 4}
    ctx = ("a", "b", "__eou__", "z")
    assert reference.cwf(ctx, ("b", "a", "a", "__eou__", "z"), counts) == pytest.approx(0.5 + 0.25 + 1.0)


@pytest.fixture(scope="module")
def tiny():
    train, evals, _ = generate_splits(3, 40, 2, 0)
    return train, evals, build_vocab(train)


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_numpy_reference_matches_the_program(tiny, arch):
    train, evals, vocab = tiny
    config = models.ModelConfig(architecture=arch, embedding_dim=4, hidden_size=3, max_len=12, k=2, seed=1)
    model, _ = models.build_model(config, vocab)
    models.randomize_parameters(model, np.random.default_rng(0))
    pairs = [(inst.context, c) for inst in evals for c in inst.candidates]
    program = model.score_pairs(pairs)
    params = {name: t.data for name, t in model.params.items()}
    highs = reference.high_ids(vocab, config.frequency_threshold)
    ours = [reference.probability(arch, params, vars(config), vocab, highs, c, r) for c, r in pairs]
    np.testing.assert_allclose(ours, program, rtol=0, atol=1e-12)


def test_gradient_check_passes_and_catches_a_wrong_gradient(tiny):
    train, _, vocab = tiny
    config = models.ModelConfig(architecture="ccn_lstm", embedding_dim=4, hidden_size=3, max_len=12, seed=1)
    pairs = [(i.context, i.response) for i in train[:2]]
    labels = np.array([float(i.label) for i in train[:2]])

    def loss_of(model, prepared, y):
        return training.batch_loss(models.forward_batch(model, prepared), y)

    def scaled_backward(out):
        numerics.backward(out)
        model.params["bilinear"].grad *= 1.01

    for backward, should_pass in ((numerics.backward, True), (scaled_backward, False)):
        model, _ = models.build_model(config, vocab)
        errors = reference.gradient_errors(model, models.prepare_pairs(model, pairs), labels,
                                           np.random.default_rng(0), loss_of, backward,
                                           numerics.no_grad)
        assert (max(errors.values()) <= 1e-4) == should_pass


def test_benchmark_json_declares_the_per_layer_metrics_a_traced_run_prints():
    import run

    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert declared == run.per_layer_metric_names()
