"""Model building blocks: embeddings, LSTM encoder, scorers, cross-convolution.

All operations accept a single instance (rank-2 inputs, e.g. an embedded
sequence of shape [dim, length]) or a batch (one extra leading axis) and run
on the numerics tape, so gradients flow to every parameter they touch.

Conventions baked in here:
  * embedding row 0 is the padding vector: all-zero, and the lookup never
    scatters gradient into it, so it stays zero through training;
  * the LSTM cell uses input/forget/candidate/output gate blocks in that
    order, forget bias initialized to 1;
  * cross-convolution pools the k largest inner products per response word
    over context positions, with padded context columns masked out so they
    can never win the pooling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import ContractError, ShapeError, Tensor
from .vocab import EncodedSequence

class ConfigurationError(ValueError):
    """A layer was configured with unusable sizes."""


# -- parameter containers ----------------------------------------------------


@dataclass(eq=False)
class EmbeddingTable:
    """V x N embedding matrix; row 0 is the frozen all-zero padding row."""

    matrix: Tensor

    def __post_init__(self):
        self.matrix.data[0, :] = 0.0

    @property
    def vocab_size(self):
        return self.matrix.shape[0]

    @property
    def dim(self):
        return self.matrix.shape[1]


@dataclass(eq=False)
class LstmParams:
    """Gate blocks stacked as [input; forget; candidate; output]."""

    w_in: Tensor  # [4H x N]
    w_rec: Tensor  # [4H x H]
    bias: Tensor  # [4H]

    @property
    def hidden_size(self):
        return self.w_rec.shape[1]


@dataclass(eq=False)
class BilinearParams:
    weight: Tensor  # [H x H]


@dataclass(eq=False)
class DenseScorerParams:
    weight: Tensor  # [H]


@dataclass(eq=False)
class CcnParams:
    """Dense head over the pooled grid; a second weight/bias pair makes it
    the parallel head, sigmoid(first) + second."""

    k: int
    weight: Tensor  # [k * L]
    bias: Tensor  # [1]
    weight2: Tensor | None = None  # parallel head only
    bias2: Tensor | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")
        if (self.weight2 is None) != (self.bias2 is None):
            raise ConfigurationError("parallel head needs both a second weight and a second bias")


# -- initializers -------------------------------------------------------------


def init_embedding_matrix(vocab_size, dim, rng, limit=0.1):
    m = rng.uniform(-limit, limit, size=(vocab_size, dim))
    m[0, :] = 0.0
    return m


def init_lstm_arrays(input_dim, hidden_size, rng, limit=0.08):
    w_in = rng.uniform(-limit, limit, size=(4 * hidden_size, input_dim))
    w_rec = rng.uniform(-limit, limit, size=(4 * hidden_size, hidden_size))
    bias = np.zeros(4 * hidden_size)
    bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate starts open
    return w_in, w_rec, bias


# -- pretrained vectors --------------------------------------------------------


def load_word_vectors(path, dim=None) -> dict:
    """Read a text embedding file: one ``word v1 v2 ... vN`` line per word."""
    vectors = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            parts = raw.rstrip("\n").split(" ")
            if len(parts) < 2:
                continue
            word, values = parts[0], parts[1:]
            if dim is not None and len(values) != dim:
                raise ContractError(
                    f"{path}: line {lineno}: expected {dim} values, got {len(values)}"
                )
            vectors[word] = np.asarray(values, dtype=np.float64)
    return vectors


def apply_pretrained(matrix: np.ndarray, vocab, vectors: dict) -> int:
    """Overwrite rows of ``matrix`` with pretrained vectors where available.

    Words absent from the file keep their random initialization; the padding
    row is untouched.  Returns the number of covered words.
    """
    covered = 0
    for word, token_id in vocab.word_to_id.items():
        vec = vectors.get(word)
        if vec is None:
            continue
        if vec.shape[0] != matrix.shape[1]:
            raise ShapeError(
                f"pretrained vector for {word!r} has dim {vec.shape[0]}, table has {matrix.shape[1]}"
            )
        matrix[token_id, :] = vec
        covered += 1
    return covered


# -- operations ---------------------------------------------------------------


def _ids_array(ids):
    if isinstance(ids, EncodedSequence):
        return ids.ids
    return np.asarray(ids, dtype=np.int64)


def embed_lookup(ids, table: EmbeddingTable) -> Tensor:
    """Columns of the result are the embeddings of the ids, pads map to zero.

    Accepts id vectors [L] (returns [N x L]) or id batches [B x L]
    (returns [B x N x L]).  Backward scatters into the looked-up rows only,
    never into the padding row.
    """
    arr = _ids_array(ids)
    if arr.min(initial=0) < 0 or arr.max(initial=0) >= table.vocab_size:
        raise ContractError(
            f"token id out of range [0, {table.vocab_size}) in lookup: "
            f"min={arr.min()}, max={arr.max()}"
        )
    matrix = table.matrix
    gathered = matrix.data[arr]  # [..., L, N]
    data = gathered.swapaxes(-1, -2).copy()

    def backward_fn(g):
        grad = np.zeros_like(matrix.data)
        g_rows = g.swapaxes(-1, -2).reshape(-1, matrix.data.shape[1])
        flat = arr.reshape(-1)
        keep = flat != 0
        np.add.at(grad, flat[keep], g_rows[keep])
        return (grad,)

    return nm.custom_op(data, (matrix,), backward_fn)


def lstm_encode(x: Tensor, true_length, params: LstmParams) -> Tensor:
    """Final hidden state of an LSTM run over the first ``true_length`` columns.

    ``x`` is [N x L] with an int length (returns [H]) or [B x N x L] with a
    length vector (returns [B x H]).  Zero-length sequences encode to the
    zero vector; padding beyond the true length never affects the output.
    """
    single = x.ndim == 2
    if single:
        x = x.reshape(1, x.shape[0], x.shape[1])
        lengths = np.asarray([int(true_length)])
    else:
        lengths = np.asarray(true_length, dtype=np.int64)
    batch, _, max_cols = x.shape
    if lengths.shape != (batch,):
        raise ContractError(f"expected {batch} lengths, got shape {lengths.shape}")
    if lengths.max(initial=0) > max_cols:
        raise ContractError("true_length exceeds the sequence length")
    hidden = params.hidden_size

    w_in_t = params.w_in.transpose_last()  # [N x 4H]
    w_rec_t = params.w_rec.transpose_last()  # [H x 4H]
    h = Tensor(np.zeros((batch, hidden), dtype=x.data.dtype))
    c = Tensor(np.zeros((batch, hidden), dtype=x.data.dtype))
    steps = int(lengths.max(initial=0))
    for t in range(steps):
        x_t = x.narrow(2, t, 1).reshape(batch, x.shape[1])
        pre = nm.add(nm.add(nm.matmul(x_t, w_in_t), nm.matmul(h, w_rec_t)), params.bias)
        gate_in = pre.narrow(1, 0, hidden).sigmoid()
        gate_forget = pre.narrow(1, hidden, hidden).sigmoid()
        candidate = pre.narrow(1, 2 * hidden, hidden).tanh()
        gate_out = pre.narrow(1, 3 * hidden, hidden).sigmoid()
        c_new = nm.add(nm.mul(gate_forget, c), nm.mul(gate_in, candidate))
        h_new = nm.mul(gate_out, c_new.tanh())
        active = lengths > t
        if active.all():
            c, h = c_new, h_new
        else:
            mask = Tensor(active.astype(x.dtype).reshape(batch, 1))
            keep = Tensor((~active).astype(x.dtype).reshape(batch, 1))
            c = nm.add(nm.mul(c_new, mask), nm.mul(c, keep))
            h = nm.add(nm.mul(h_new, mask), nm.mul(h, keep))
    if single:
        return h.reshape(hidden)
    return h


def bilinear_score(c: Tensor, r: Tensor, params: BilinearParams) -> Tensor:
    """c^T W r, batched over rows when given [B x H] inputs."""
    single = c.ndim == 1
    if single:
        c = c.reshape(1, c.shape[0])
        r = r.reshape(1, r.shape[0])
    if c.shape != r.shape or c.shape[1] != params.weight.shape[0]:
        raise ShapeError(
            f"bilinear_score: shapes {c.shape}, {r.shape}, weight {params.weight.shape}"
        )
    scores = nm.tsum(nm.mul(nm.matmul(c, params.weight), r), axis=1)
    return scores.reshape(()) if single else scores


def dense_score(h: Tensor, params: DenseScorerParams) -> Tensor:
    """Inner product with the scorer weight, batched over rows."""
    single = h.ndim == 1
    if single:
        h = h.reshape(1, h.shape[0])
    dim = params.weight.shape[0]
    if h.shape[1] != dim:
        raise ShapeError(f"dense_score: input {h.shape} vs weight {params.weight.shape}")
    scores = nm.matmul(h, params.weight.reshape(dim, 1)).reshape(h.shape[0])
    return scores.reshape(()) if single else scores


def kmax(values, k, n_valid=None) -> Tensor:
    """The k largest entries in descending order (ties: first occurrence).

    ``n_valid`` limits the candidates to a leading prefix (non-pad entries);
    when fewer than k are available, remaining slots are zero and carry no
    gradient.
    """
    if k < 1:
        raise ContractError("kmax requires k >= 1")
    t = values if isinstance(values, Tensor) else Tensor(np.asarray(values, dtype=np.float64))
    if t.ndim != 1:
        raise ShapeError(f"kmax expects a rank-1 sequence, got shape {t.shape}")
    n = t.shape[0]
    valid = n if n_valid is None else int(n_valid)
    pooled = kmax_pool(t.reshape(1, 1, n), k, np.asarray([valid]))
    return pooled.reshape(k)


def kmax_pool(scores: Tensor, k, col_valid, row_valid=None) -> Tensor:
    """Per-row k-max over the last axis of [B x R x C], flattened to [B, R*k].

    Columns at or beyond ``col_valid[b]`` are padding and are masked out
    before selection; rows at or beyond ``row_valid[b]`` (padded response
    words) emit gradient-free zeros.  Gradient is routed to the selected
    positions only, first occurrence winning ties; short rows pad with
    gradient-free zeros.
    """
    b, rows, cols = scores.shape
    if k > cols:
        raise ConfigurationError(f"k={k} exceeds the {cols} available positions")
    col_valid = np.asarray(col_valid, dtype=np.int64)
    masked = scores.data.copy()
    col_index = np.arange(cols)
    invalid = col_index[None, None, :] >= col_valid[:, None, None]
    masked[np.broadcast_to(invalid, masked.shape)] = -np.inf
    if row_valid is not None:
        row_valid = np.asarray(row_valid, dtype=np.int64)
        dead = np.arange(rows)[None, :, None] >= row_valid[:, None, None]
        masked[np.broadcast_to(dead, masked.shape)] = -np.inf
    order = np.argsort(-masked, axis=2, kind="stable")[:, :, :k]
    vals = np.take_along_axis(masked, order, axis=2)
    selected = np.isfinite(vals)
    data = np.where(selected, vals, 0.0).reshape(b, rows * k)

    def backward_fn(g):
        grad = np.zeros_like(scores.data)
        g_sel = np.where(selected, g.reshape(b, rows, k), 0.0)
        np.put_along_axis(grad, order, g_sel, axis=2)
        return (grad,)

    return nm.custom_op(data, (scores,), backward_fn)


def cross_convolution(
    context_emb: Tensor,
    response_emb: Tensor,
    params: CcnParams,
    context_length=None,
    response_length=None,
):
    """All pairwise word inner products, k-max pooled per response word, densed.

    Inputs are embedded sequences [N x L] (or batches [B x N x L]); entry
    (i, j) of the inner-product grid is response word i against context
    word j.  Padded context columns (at or beyond ``context_length``) are
    excluded from pooling, and padded response rows (at or beyond
    ``response_length``) pool to gradient-free zeros, so padding influences
    neither the score nor any gradient.  Pooled values are concatenated in
    response order and fed to the dense head.  Returns the raw score; the
    model combines it with its other branch under one sigmoid.
    """
    single = context_emb.ndim == 2
    if single:
        context_emb = context_emb.reshape(1, *context_emb.shape)
        response_emb = response_emb.reshape(1, *response_emb.shape)
    b, _, ctx_cols = context_emb.shape
    resp_cols = response_emb.shape[2]
    if params.k > ctx_cols:
        raise ConfigurationError(f"k={params.k} exceeds the context length {ctx_cols}")
    if params.weight.shape[0] != params.k * resp_cols:
        raise ShapeError(
            f"dense weight has {params.weight.shape[0]} entries, needs k*L = {params.k * resp_cols}"
        )
    if context_length is None:
        ctx_valid = np.full(b, ctx_cols, dtype=np.int64)
    else:
        ctx_valid = np.atleast_1d(np.asarray(context_length, dtype=np.int64))
    if response_length is None:
        resp_valid = None
    else:
        resp_valid = np.atleast_1d(np.asarray(response_length, dtype=np.int64))

    grid = nm.matmul(response_emb.transpose_last(), context_emb)  # [B x Lr x Lc]
    pooled = kmax_pool(grid, params.k, ctx_valid, resp_valid)  # [B, Lr*k]
    kl = params.k * resp_cols
    score = nm.add(
        nm.matmul(pooled, params.weight.reshape(kl, 1)).reshape(b), params.bias
    )
    if params.weight2 is not None:
        second = nm.add(
            nm.matmul(pooled, params.weight2.reshape(kl, 1)).reshape(b), params.bias2
        )
        score = nm.add(score.sigmoid(), second)
    return score.reshape(()) if single else score
