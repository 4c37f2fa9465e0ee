"""The benchmark's traced run wraps ccnrank functions by name (bench/run.py,
``instrument``).  If one of those names disappears, ``--trace 1`` fails
before its first round; these tests catch that in the ordinary test run.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

from ccnrank import corpus, evaluation, layers, models, numerics, training, vocab  # noqa: E402

OWNERS = (corpus, evaluation, layers, models, numerics, training, vocab,
          models.RankingModel, numerics.RmsProp)


def attributes():
    return {(owner.__name__, name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_instrument_wraps_the_public_names_and_restore_puts_the_originals_back():
    before = attributes()
    tracer = Tracer()
    try:  # restore even when instrument fails halfway, so later tests see the originals
        run.instrument(tracer)
        wrapped = {(owner.__name__, name) for owner, name, _ in tracer._patches}
        for owner, name, original in tracer._patches:
            assert getattr(owner, name) is not original
    finally:
        tracer.restore()
    after = attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    ops = ("add", "sub", "mul", "scale", "sigmoid", "tanh", "matmul", "transpose_last", "reshape",
           "narrow", "tsum", "mean", "custom_op")
    expected = {("ccnrank.numerics", op) for op in ops} | {
        ("ccnrank.layers", "kmax_pool"),
        ("ccnrank.models", "lstm_encode"),
        ("ccnrank.models", "forward_batch"),
        ("ccnrank.training", "backward"),
        ("RankingModel", "score_pairs"),
        ("RmsProp", "step"),
    }
    assert expected <= wrapped
