"""Print one sha256 over the trained parameters and scores of 32 configurations and 8 ensembles.

A change that is meant to leave every computed bit as it was prints the same
digest as its parent.  Run it in both checkouts and compare the output:

    python tools/fingerprint.py

It prints one line per configuration and, last, one digest over them all.
It imports ``ccnrank`` from the checkout's ``src`` directory, so each
checkout measures its own code.  Like ``bench/run.py``, it sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1
before numpy is imported, so every total is taken with BLAS at one thread
and no environment needs setting by hand.  Configurations: ``dual_lstm``,
``mfcw_lstm``, ``ccn_lstm`` and ``ccn_lstm`` with the parallel head, each at
k 1 and 2, max_len 40 and 160, float64 and float32.  At k=2 gradients are clipped to
norm 1e-4, below the first batch's gradient norm of every architecture, so
the clipping path runs too (k changes nothing else in the two LSTM models).
Each trains 2 epochs on a synthetic seed-11 corpus (8-turn contexts, 240
train pairs, embedding and hidden size 8, batch 32).  Files are under the
digest too, all in one temporary directory.  The corpus is written with
``write_train``/``write_eval`` and the runs use what ``load_train``/
``load_eval`` read back, so the tokenizer and the loader count.  Each trained
model is saved with ``save_checkpoint`` and loaded back with
``load_checkpoint``, so checkpoints count: the digest covers every parameter
of the loaded model and its ``score_pairs`` over the eval pairs at batch
sizes 256 and 10.

For each k, max_len and precision, one more line digests the ensemble path:
``evaluation.score_instances`` over the loaded ``dual_lstm``, ``mfcw_lstm``
and ``ccn_lstm`` (sigmoid head), once per eval instance (a request, whose
encoders run stacked) and once over the whole eval split.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ccnrank import corpus, evaluation, models, training, vocab as vb  # noqa: E402

VARIANTS = (("dual_lstm", "sigmoid"), ("mfcw_lstm", "sigmoid"), ("ccn_lstm", "sigmoid"),
            ("ccn_lstm", "parallel"))
ENSEMBLE = VARIANTS[:3]


def fingerprint(arch, head, k, max_len, precision, data, tmp):
    """sha256 of one configuration's trained, saved and reloaded parameters
    and eval scores, and the reloaded model."""
    train_set, eval_set, val_set = data
    config = models.ModelConfig(architecture=arch, embedding_dim=8, hidden_size=8, max_len=max_len,
                                k=k, seed=11, precision=precision, ccn_head=head)
    model, _ = models.build_model(config, vb.build_vocab(train_set))
    train_config = training.TrainConfig(batch_size=32, learning_rate=0.01, max_epochs=2, seed=11,
                                        validation=val_set, clip_norm=1e-4 if k == 2 else None)
    model, _ = training.train(model, train_set, train_config)
    path = Path(tmp) / "model.ckpt"
    models.save_checkpoint(model, path)
    model = models.load_checkpoint(path, vocab=model.vocab)
    digest = hashlib.sha256()
    for name in sorted(model.params.names()):
        digest.update(name.encode() + model.params[name].data.tobytes())
    pairs = [(inst.context, cand) for inst in eval_set for cand in inst.candidates]
    for batch_size in (256, 10):
        digest.update(model.score_pairs(pairs, batch_size=batch_size).tobytes())
    return digest.hexdigest(), model


def ensemble_fingerprint(members, eval_set):
    """sha256 of ``score_instances`` over the members, per instance and over the whole split."""
    digest = hashlib.sha256()
    scored = [evaluation.score_instances(members, [inst])[0] for inst in eval_set]
    for s in scored + evaluation.score_instances(members, eval_set):
        digest.update(s.probabilities.tobytes() + s.cwf.tobytes())
    return digest.hexdigest()


def read_back(tmp, train_set, eval_set, val_set):
    """The splits as the loader reads them from their CSV files."""
    paths = [Path(tmp) / name for name in ("train.csv", "eval.csv", "validation.csv")]
    corpus.write_train(train_set, paths[0])
    corpus.write_eval(eval_set, paths[1])
    corpus.write_eval(val_set, paths[2])
    return corpus.load_train(paths[0]), corpus.load_eval(paths[1]), corpus.load_eval(paths[2])


def main():
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        data = read_back(tmp, *corpus.generate_splits(11, 240, 20, 10, corpus.SyntheticConfig(context_turns=8)))
        settings = list(itertools.product((1, 2), (40, 160), ("float64", "float32")))
        trained = {}
        for (arch, head), (k, max_len, precision) in itertools.product(VARIANTS, settings):
            digest, trained[arch, head, k, max_len, precision] = fingerprint(
                arch, head, k, max_len, precision, data, tmp)
            total.update(digest.encode())
            print(f"{arch}\t{head}\tk={k}\tmax_len={max_len}\t{precision}\t{digest}")
        for k, max_len, precision in settings:
            members = [trained[arch, head, k, max_len, precision] for arch, head in ENSEMBLE]
            digest = ensemble_fingerprint(members, data[1])
            total.update(digest.encode())
            print(f"ensemble\tk={k}\tmax_len={max_len}\t{precision}\t{digest}")
    print(total.hexdigest())


if __name__ == "__main__":
    main()
