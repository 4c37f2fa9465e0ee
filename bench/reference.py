"""Independent computations the benchmark checks the program against.

* ``probability``: a plain-numpy re-implementation of the three
  architectures' pair probabilities, from the token strings, the vocabulary
  and a model's parameter arrays.  It uses no ``ccnrank`` code.
* ``cwf``: the common-words-frequency score.
* ``oracle_rank``: a sort-based rank in which candidates tied with the
  correct one count against it.
* ``gradient_errors``: central differences through ``forward_batch``
  against the program's taped gradients.
"""

from __future__ import annotations

import numpy as np

PAD, OOV = 0, 1
MARKERS = frozenset({"__eou__", "__eot__"})


# -- rank oracle and CWF --------------------------------------------------------


def oracle_rank(scores, correct=0):
    """1-based position of ``correct`` after sorting by descending score,
    the correct candidate placed after every candidate tied with it."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i == correct))
    return order.index(correct) + 1


def common_types(context, response):
    """Types in both sequences, in order of first appearance in the response."""
    in_context = set(context) - MARKERS
    out = []
    for token in response:
        if token in in_context and token not in out:
            out.append(token)
    return out


def cwf(context, response, counts):
    return float(sum(1.0 / counts.get(w, 1) for w in common_types(context, response)))


# -- encoding -------------------------------------------------------------------


def _ids(tokens, vocab, max_len, keep_last):
    kept = tokens[-max_len:] if keep_last else tokens[:max_len]
    return [vocab.word_to_id.get(t, OOV) for t in kept]


def _band(ids, high_ids, band):
    keep_high = band == "high"
    return [i for i in ids if i != PAD and ((i in high_ids) == keep_high)]


def high_ids(vocab, threshold):
    return {i for w, i in vocab.word_to_id.items() if vocab.counts[w] > threshold}


# -- layers -----------------------------------------------------------------------


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _lstm(ids, table, w_in, w_rec, bias):
    hidden = w_rec.shape[1]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    for token in ids:
        pre = w_in @ table[token] + w_rec @ h + bias
        i, f, g, o = (pre[k * hidden : (k + 1) * hidden] for k in range(4))
        c = _sigmoid(f) * c + _sigmoid(i) * np.tanh(g)
        h = _sigmoid(o) * np.tanh(c)
    return h


def _encoder(p, prefix, ids, table):
    return _lstm(ids, p[table], p[f"{prefix}.w_in"], p[f"{prefix}.w_rec"], p[f"{prefix}.bias"])


def _kmax_rows(ctx_vectors, resp_vectors, k, n_rows):
    """For each of ``n_rows`` response slots, the k largest inner products
    with the context words, descending, zero-filled."""
    pooled = np.zeros((n_rows, k))
    for row, r in enumerate(resp_vectors):
        top = sorted((float(r @ c) for c in ctx_vectors), reverse=True)[:k]
        pooled[row, : len(top)] = top
    return pooled.reshape(-1)


def probability(arch, p, config, vocab, highs, context, response):
    """Pair probability of ``arch`` from parameter arrays ``p`` (name -> array)."""
    length = config["max_len"]
    ctx = _ids(context, vocab, length, keep_last=True)
    resp = _ids(response, vocab, length, keep_last=False)
    if arch == "dual_lstm":
        c = _encoder(p, "encoder", _band(ctx, highs, "high"), "embedding_high")
        r = _encoder(p, "encoder", _band(resp, highs, "high"), "embedding_high")
        return float(_sigmoid(c @ p["bilinear"] @ r))
    if arch == "mfcw_lstm":
        common = _ids(common_types(context, response), vocab, length, keep_last=False)
        scores = []
        for band in ("high", "low"):
            table = f"embedding_{band}"
            c = _encoder(p, f"encoder_{band}", _band(ctx, highs, band), table)
            r = _encoder(p, f"encoder_{band}", _band(resp, highs, band), table)
            scores.append(c @ p[f"bilinear_{band}"] @ r)
        for band in ("high", "low"):
            h = _encoder(p, f"encoder_common_{band}", _band(common, highs, band), f"embedding_{band}")
            scores.append(h @ p[f"common_head_{band}"])
        return float(_sigmoid(np.dot(p["branch_weights"], scores)))
    if arch == "ccn_lstm":
        if config["ccn_head"] == "parallel":
            raise ValueError("the reference covers the single-head cross-convolution branch only")
        ctx_h, resp_h = _band(ctx, highs, "high"), _band(resp, highs, "high")
        c = _encoder(p, "encoder", ctx_h, "embedding_lstm")
        r = _encoder(p, "encoder", resp_h, "embedding_lstm")
        s_lstm = c @ p["bilinear"] @ r
        table = p["embedding_ccn"]
        pooled = _kmax_rows(table[ctx_h], table[resp_h], config["k"], length)
        s_ccn = pooled @ p["ccn.weight"] + p["ccn.bias"][0]
        return float(_sigmoid(p["branch_weights"][0] * s_lstm + p["branch_weights"][1] * s_ccn))
    raise ValueError(f"unknown architecture {arch!r}")


# -- gradient check ---------------------------------------------------------------


def gradient_errors(model, prepared, labels, rng, loss_of, backward, no_grad, coords=2, h=1e-6):
    """Worst |analytic - numeric| / max(|analytic|, |numeric|, 1e-5) per parameter.

    Parameters are redrawn uniform in [-0.5, 0.5] (pad rows stay zero) so the
    loss is far from flat.  Per parameter the ``coords - 1`` coordinates with
    the largest analytic gradient are checked plus one drawn at random.
    ``loss_of(model, prepared, labels)`` returns the scalar loss, taped
    unless run inside ``no_grad()``.
    """
    for name in sorted(model.params.names()):
        t = model.params[name]
        t.data = rng.uniform(-0.5, 0.5, size=t.shape)
        if name.startswith("embedding"):
            t.data[0, :] = 0.0
    model.params.zero_gradients()
    backward(loss_of(model, prepared, labels))
    analytic = {name: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for name, t in model.params.items()}
    model.params.zero_gradients()
    worst = {}
    for name, t in model.params.items():
        flat, grad = t.data.reshape(-1), analytic[name].reshape(-1)
        picks = set(np.argsort(-np.abs(grad))[: coords - 1].tolist())
        picks.add(int(rng.integers(flat.size)))
        err = 0.0
        for i in sorted(picks):
            orig = flat[i]
            with no_grad():
                flat[i] = orig + h
                plus = float(loss_of(model, prepared, labels).data)
                flat[i] = orig - h
                minus = float(loss_of(model, prepared, labels).data)
            flat[i] = orig
            numeric = (plus - minus) / (2 * h)
            err = max(err, abs(grad[i] - numeric) / max(abs(grad[i]), abs(numeric), 1e-5))
        worst[name] = err
    return worst
