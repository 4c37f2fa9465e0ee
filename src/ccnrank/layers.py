"""Model building blocks: embeddings, LSTM encoder, scorers, cross-convolution.

The sequence operations take batches only: a sequence is a row, e.g. an
[B x L] id matrix, embedded to [B x N x L] and encoded to [B x H], and a
lone sequence is a one-row batch.  ``gather_rows`` copies rows of a batch.
All of them run on the numerics tape, so gradients flow to every parameter
they touch.  The module depends on ``numerics`` alone: lookups take plain
id arrays, which ``models.prepare_pairs`` builds.

Conventions baked in here:
  * embedding row 0 is the padding vector: all-zero, and the lookup never
    scatters gradient into it, so it stays zero through training;
  * the LSTM cell uses input/forget/candidate/output gate blocks in that
    order, forget bias initialized to 1;
  * ``lstm_encode`` is one tape op with a hand-written backward through
    time (one input-projection matmul for all steps, then the recurrence in
    plain numpy), not a chain of per-step ops, so its cost does not grow
    with the tape, and a sequence encodes to the same bits alone as in any
    batch;
  * cross-convolution pools the k largest inner products per response word
    over context positions, with padded context columns masked out so they
    can never win the pooling.  The grid covers only the columns it is given
    (``models`` trims each batch to its longest true lengths), and the pooled
    values are zero-padded to the dense head's k*L inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import ContractError, ShapeError, Tensor


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
    """Read a text embedding file: one ``word v1 v2 ... vN`` line per word.

    A wrong value count, a value that is not a number and a non-finite value
    raise ContractError naming the file and line.
    """
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
            try:
                vector = np.asarray(values, dtype=np.float64)
            except ValueError as err:
                raise ContractError(f"{path}: line {lineno}: {err}") from None
            if not np.isfinite(vector).all():
                raise ContractError(f"{path}: line {lineno}: non-finite value for {word!r}")
            vectors[word] = vector
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


def embed_lookup(ids, table: EmbeddingTable) -> Tensor:
    """Embeddings of a [B x L] id batch as [B x N x L]: column j of row b is
    the embedding of ids[b, j], and pads map to zero.

    Backward scatters into the looked-up rows only, never into the padding
    row.
    """
    arr = np.asarray(ids, dtype=np.int64)
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


def gather_rows(x: Tensor, index) -> Tensor:
    """Rows ``index`` of the [U x H] ``x``, as a [B x H] tensor.

    Backward adds the gradient of every row taken into the row it was taken
    from, so a row read by several outputs gets their sum.
    """
    index = np.asarray(index, dtype=np.int64)

    def backward_fn(g):
        grad = np.zeros_like(x.data)
        np.add.at(grad, index, g)
        return (grad,)

    return nm.custom_op(x.data[index], (x,), backward_fn)


def lstm_encode(x: Tensor, true_length, params: LstmParams) -> Tensor:
    """Final hidden state of an LSTM run over the first ``true_length`` columns.

    ``x`` is [B x N x L] with a [B] length vector; returns [B x H].
    Zero-length sequences encode to the zero vector; padding beyond the true
    length never affects the output and receives exactly zero gradient.  The
    result has ``x``'s dtype.

    The whole recurrence is one tape op with a hand-written backward
    (backpropagation through time): one matmul projects the inputs of every
    step, the recurrence runs in plain numpy with sigmoid computed as
    0.5 * (1 + tanh(z / 2)), and a row whose sequence has ended carries its
    state forward unchanged.  Activations are kept only when the tape
    records the op, so the no_grad serving path stores none.
    """
    if x.ndim != 3:
        raise ShapeError(f"lstm_encode expects a [B x N x L] batch, got shape {x.shape}")
    data = x.data
    lengths = np.asarray(true_length, dtype=np.int64)
    batch, n_in, max_cols = data.shape
    if lengths.shape != (batch,):
        raise ContractError(f"expected {batch} lengths, got shape {lengths.shape}")
    if lengths.max(initial=0) > max_cols:
        raise ContractError("true_length exceeds the sequence length")
    rows = batch
    if batch == 1:
        # numpy sends one-row products to gemv, which rounds unlike the gemm a
        # batch gets; a zero-length second row keeps a lone sequence's bits
        # equal to its bits in any batch
        data = np.concatenate([data, np.zeros_like(data)])
        lengths = np.append(lengths, 0)
        rows = 2
    dtype = data.dtype
    hidden = params.hidden_size
    i_, f_, g_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))  # gate blocks
    w_in = params.w_in.data.astype(dtype, copy=False)  # [4H x N]
    w_rec = params.w_rec.data.astype(dtype, copy=False)  # [4H x H]
    bias = params.bias.data.astype(dtype, copy=False)  # [4H]
    # With the weight rows scaled by ``half`` (exact: a power of two),
    # tanh(pre-activation) * half + shift is sigmoid(z) = 0.5 * (1 + tanh(z / 2))
    # on the input, forget and output blocks and tanh(z) on the candidate block.
    half = np.full(4 * hidden, 0.5, dtype=dtype)
    half[g_] = 1.0
    shift = np.full(4 * hidden, 0.5, dtype=dtype)
    shift[g_] = 0.0
    # Both products take contiguous [in x 4H] weights: with a transposed view,
    # OpenBLAS rounds products of fewer than ten rows unlike longer ones, and a
    # row must encode to the same bits in any batch.
    w_in_half_t = np.ascontiguousarray((w_in * half[:, None]).T)  # [N x 4H]
    w_rec_half_t = np.ascontiguousarray((w_rec * half[:, None]).T)  # [H x 4H]
    # full-shape copies: in-place ops on equal shapes skip numpy's broadcasting
    half_rows, shift_rows = (np.broadcast_to(v, (rows, 4 * hidden)).copy() for v in (half, shift))

    steps = int(lengths.max(initial=0))
    xs = data[:, :, :steps].transpose(2, 0, 1).reshape(steps * rows, n_in)  # step-major rows
    gates_seq = xs @ w_in_half_t
    gates_seq += bias * half
    gates_seq = gates_seq.reshape(steps, rows, 4 * hidden)  # each step's slice becomes its gates
    active = (lengths > np.arange(steps)[:, None])[:, :, None]  # [T x B x 1]
    keep = nm.records((x, params.w_in, params.w_rec, params.bias))
    if keep:  # the state entering each step, and tanh of each step's new cell
        h_seq, c_seq, tanh_c_seq = (np.empty((steps, rows, hidden), dtype=dtype) for _ in range(3))
    h = np.zeros((rows, hidden), dtype=dtype)
    c = np.zeros((rows, hidden), dtype=dtype)
    rec = np.empty((rows, 4 * hidden), dtype=dtype)
    for t in range(steps):
        gates = gates_seq[t]
        gates += np.matmul(h, w_rec_half_t, out=rec)
        np.tanh(gates, out=gates)
        gates *= half_rows
        gates += shift_rows
        c_new = gates[:, f_] * c + gates[:, i_] * gates[:, g_]
        tanh_c = np.tanh(c_new)
        if keep:
            h_seq[t], c_seq[t], tanh_c_seq[t] = h, c, tanh_c
        c = np.where(active[t], c_new, c)
        h = np.where(active[t], gates[:, o_] * tanh_c, h)

    def backward_fn(g):
        d_pre = np.empty_like(gates_seq)
        slope = np.empty((rows, 4 * hidden), dtype=dtype)
        candidate = 1.0 - 2.0 * shift  # 1 on the tanh block, 0 on the sigmoid blocks
        dh = np.zeros((rows, hidden), dtype=g.dtype)
        dh[:batch] = g.reshape(batch, hidden)
        dc = np.zeros_like(dh)  # stays zero on the rows of ended sequences: only h is output
        for t in reversed(range(steps)):
            on, gates, tanh_c = active[t], gates_seq[t], tanh_c_seq[t]
            dh_t = np.where(on, dh, 0.0)  # an ended row passes dh straight through
            dc_t = dc + dh_t * gates[:, o_] * (1.0 - tanh_c * tanh_c)
            d = d_pre[t]
            np.multiply(dc_t, gates[:, g_], out=d[:, i_])
            np.multiply(dc_t, c_seq[t], out=d[:, f_])
            np.multiply(dc_t, gates[:, i_], out=d[:, g_])
            np.multiply(dh_t, tanh_c, out=d[:, o_])
            # d gate / d pre-activation: s (1 - s) for a sigmoid, (1 - a)(1 + a) for tanh
            d *= np.subtract(1.0, gates, out=slope)
            d *= np.add(gates, candidate, out=slope)
            dh = np.where(on, d @ w_rec, dh)
            dc = dc_t * gates[:, f_]
        d_rows = d_pre.reshape(steps * rows, 4 * hidden)
        dx = None
        if x.requires_grad:
            dx = np.zeros(data.shape, dtype=dtype)
            dx[:, :, :steps] = (d_rows @ w_in).reshape(steps, rows, n_in).transpose(1, 2, 0)
            dx = dx[:batch].reshape(x.shape)
        d_w_rec = d_rows.T @ h_seq.reshape(steps * rows, hidden)
        return dx, d_rows.T @ xs, d_w_rec, d_rows.sum(axis=0)

    return nm.custom_op(h[:batch], (x, params.w_in, params.w_rec, params.bias), backward_fn)


def bilinear_score(c: Tensor, r: Tensor, weight: Tensor) -> Tensor:
    """c^T W r per row of the [B x H] ``c`` and ``r``, for the [H x H] ``weight`` W; returns [B]."""
    if c.ndim != 2 or c.shape != r.shape or c.shape[1] != weight.shape[0]:
        raise ShapeError(
            f"bilinear_score: shapes {c.shape}, {r.shape}, weight {weight.shape}"
        )
    return nm.tsum(nm.mul(nm.matmul(c, weight), r), axis=1)


def dense_score(h: Tensor, weight: Tensor) -> Tensor:
    """Inner product of each row of the [B x H] ``h`` with the [H] scorer ``weight``; returns [B]."""
    dim = weight.shape[0]
    if h.ndim != 2 or h.shape[1] != dim:
        raise ShapeError(f"dense_score: input {h.shape} vs weight {weight.shape}")
    return nm.matmul(h, weight.reshape(dim, 1)).reshape(h.shape[0])


def kmax_pool(scores: Tensor, k, col_valid, row_valid=None, out_rows=None) -> Tensor:
    """Per-row k-max over the last axis of [B x R x C], flattened to [B, out_rows*k].

    Columns at or beyond ``col_valid[b]`` are padding and never win the
    pooling; rows at or beyond ``row_valid[b]`` (padded response words) emit
    gradient-free zeros, as do slots left over when a row has fewer than k
    real columns.  ``out_rows`` (at least R, default R) zero-pads the result
    to a fixed width, so a grid trimmed to a batch's real rows feeds the same
    dense head as a full one.  What was selected follows from the masks
    alone, so infinite and NaN values pool like any other (NaN counts as the
    largest, as in ``np.argmax``).  Gradient is routed to the selected
    positions only, first occurrence winning ties.
    """
    b, rows, cols = scores.shape
    out_rows = rows if out_rows is None else out_rows
    if k > cols:
        raise ConfigurationError(f"k={k} exceeds the {cols} available positions")
    if out_rows < rows:
        raise ShapeError(f"kmax_pool: {rows} grid rows do not fit in {out_rows} output rows")
    col_valid = np.asarray(col_valid, dtype=np.int64)[:, None, None]
    masked = np.where(np.arange(cols) < col_valid, scores.data, -np.inf)
    if k == 1:
        order = np.argmax(masked, axis=2)[:, :, None]  # first occurrence on ties
    else:
        key = -masked
        key[np.isnan(key)] = -np.inf  # NaN first, as argmax takes it
        order = np.argsort(key, axis=2, kind="stable")[:, :, :k]
    selected = order < col_valid
    if row_valid is not None:
        row_valid = np.asarray(row_valid, dtype=np.int64)
        selected &= (np.arange(rows) < row_valid[:, None])[:, :, None]
    vals = np.where(selected, np.take_along_axis(scores.data, order, axis=2), 0.0)
    data = np.zeros((b, out_rows, k), dtype=vals.dtype)
    data[:, :rows] = vals

    def backward_fn(g):
        grad = np.zeros_like(scores.data)
        g_sel = np.where(selected, g.reshape(b, out_rows, k)[:, :rows], 0.0)
        np.put_along_axis(grad, order, g_sel, axis=2)
        return (grad,)

    return nm.custom_op(data.reshape(b, out_rows * k), (scores,), backward_fn)


def cross_convolution(
    context_emb: Tensor,
    response_emb: Tensor,
    params: CcnParams,
    context_length=None,
    response_length=None,
):
    """All pairwise word inner products, k-max pooled per response word, densed.

    Inputs are embedded batches [B x N x Lc] and [B x N x Lr]; entry (i, j)
    of a row's inner-product grid is response word i against context word j.
    The dense head has k*L weights for L response slots; a response may be
    narrower than L (a batch trimmed to its longest true length), and the
    slots beyond its columns pool to zeros.  Padded context columns (at or
    beyond ``context_length``) are excluded from pooling, and padded
    response rows (at or beyond ``response_length``) pool to gradient-free
    zeros, so padding influences neither the score nor any gradient.  Pooled
    values are concatenated in response order and fed to the dense head.
    Returns the [B] raw scores; the model combines them with its other
    branch under one sigmoid.
    """
    if context_emb.ndim != 3 or response_emb.ndim != 3:
        raise ShapeError(f"cross_convolution expects [B x N x L] batches, got "
                         f"{context_emb.shape} and {response_emb.shape}")
    b, _, ctx_cols = context_emb.shape
    resp_cols = response_emb.shape[2]
    if params.k > ctx_cols:
        raise ConfigurationError(f"k={params.k} exceeds the context length {ctx_cols}")
    kl = params.weight.shape[0]
    if kl % params.k or resp_cols > kl // params.k:
        raise ShapeError(
            f"dense weight has {kl} entries, needs k*L with k={params.k} and L >= {resp_cols}"
        )
    ctx_valid = np.full(b, ctx_cols, dtype=np.int64) if context_length is None else context_length

    grid = nm.matmul(response_emb.transpose_last(), context_emb)  # [B x Lr x Lc]
    pooled = kmax_pool(grid, params.k, ctx_valid, response_length, out_rows=kl // params.k)  # [B, kL]
    score = nm.add(
        nm.matmul(pooled, params.weight.reshape(kl, 1)).reshape(b), params.bias
    )
    if params.weight2 is not None:
        second = nm.add(
            nm.matmul(pooled, params.weight2.reshape(kl, 1)).reshape(b), params.bias2
        )
        score = nm.add(score.sigmoid(), second)
    return score
