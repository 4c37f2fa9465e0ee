"""Model building blocks: embeddings, LSTM encoder, scorers, cross-convolution.

The sequence operations take batches only: a sequence is a row, e.g. an
[B x L] id matrix, embedded to [B x N x L] and encoded to [B x H], and a
lone sequence is a one-row batch.  ``gather_rows`` copies rows of a batch.
All of them run on the numerics tape, so gradients flow to every parameter
they touch.  The module depends on ``numerics`` (and on ``corpus`` only to
read a text file): lookups take plain id arrays, which
``models.prepare_pairs`` builds, and every parameter is a plain ``Tensor``
argument, which ``models.forward_batch`` looks up by the names
``models.BRANCHES`` gives.

Conventions baked in here:
  * embedding row 0 is the padding vector: the caller keeps it all-zero
    (``models.RankingModel`` zeroes it), and the lookup never scatters
    gradient into it, so it stays zero through training;
  * the LSTM cell uses input/forget/candidate/output gate blocks in that
    order, forget bias initialized to 1;
  * there is one recurrence, ``lstm_encode_stack``: E encoders, each with
    its own weights, in one time loop (a stacked ``[E x B x H] @
    [E x H x 4H]`` product and elementwise ops over all E*B rows), with a
    hand-written backward through time per encoder.  ``lstm_encode`` is its
    E=1 case.  Each encoder is one tape op, not a chain of per-step ops, so
    its cost does not grow with the tape, and a sequence encodes to the same
    bits alone, in any batch and in any stack.  Every row runs every step,
    with no mask: a row's encoding is read right after its own last step;
  * cross-convolution pools the k largest inner products per response word
    over context positions, with padded context columns masked out so they
    can never win the pooling.  The grid covers only the columns it is given
    (``models`` trims each batch to its longest true lengths), and the pooled
    values are zero-padded to the dense head's k*L inputs.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .corpus import text_lines
from .numerics import ContractError, ShapeError, Tensor


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


def load_word_vectors(path, dim, dtype=np.float64) -> dict:
    """Read a text embedding file: one ``word v1 v2 ... vN`` line per word.

    Vectors are returned as ``dtype``.  A line that is not UTF-8, a wrong
    value count, a value that is not a number, a non-finite value and a
    value beyond ``dtype``'s range (e.g. 1e39 for float32) raise
    ContractError naming the file and line.
    """
    vectors = {}
    for lineno, raw in text_lines(path, ContractError):
        parts = raw.rstrip("\n").split(" ")
        if len(parts) < 2:
            continue
        word, values = parts[0], parts[1:]
        if len(values) != dim:
            raise ContractError(
                f"{path}: line {lineno}: expected {dim} values, got {len(values)}"
            )
        try:
            vector = np.asarray(values, dtype=np.float64)
        except ValueError as err:
            raise ContractError(f"{path}: line {lineno}: {err}") from None
        if not np.isfinite(vector).all():
            raise ContractError(f"{path}: line {lineno}: non-finite value for {word!r}")
        with np.errstate(over="ignore"):
            vector = vector.astype(dtype)
        if not np.isfinite(vector).all():
            raise ContractError(f"{path}: line {lineno}: vector for {word!r} overflows {vector.dtype}")
        vectors[word] = vector
    return vectors


def apply_pretrained(matrix: np.ndarray, vocab, vectors: dict) -> int:
    """Overwrite rows of ``matrix`` with pretrained vectors where available.

    Words absent from the file keep their random initialization; the padding
    row is untouched.  A vector that does not fit the table's dtype (e.g.
    1e39 in a float32 table) raises ContractError naming the word.  Returns
    the number of covered words.
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
        with np.errstate(over="ignore"):
            row = vec.astype(matrix.dtype)
        if not np.isfinite(row).all():
            raise ContractError(f"pretrained vector for {word!r} overflows the table's {matrix.dtype}")
        matrix[token_id, :] = row
        covered += 1
    return covered


# -- operations ---------------------------------------------------------------


def embed_lookup(ids, table: Tensor) -> Tensor:
    """Embeddings of a [B x L] id batch in the [V x N] ``table`` as
    [B x N x L]: column j of row b is row ids[b, j] of the table, so pads
    map to its zero row 0.

    Backward scatters into the looked-up rows only, never into the padding
    row.
    """
    arr = np.asarray(ids, dtype=np.int64)
    vocab_size = table.shape[0]
    if arr.min(initial=0) < 0 or arr.max(initial=0) >= vocab_size:
        raise ContractError(
            f"token id out of range [0, {vocab_size}) in lookup: "
            f"min={arr.min()}, max={arr.max()}"
        )
    gathered = table.data[arr]  # [..., L, N]
    data = gathered.swapaxes(-1, -2).copy()

    def backward_fn(g):
        grad = np.zeros_like(table.data)
        g_rows = g.swapaxes(-1, -2).reshape(-1, table.shape[1])
        flat = arr.reshape(-1)
        keep = flat != 0
        np.add.at(grad, flat[keep], g_rows[keep])
        return (grad,)

    return nm.custom_op(data, (table,), backward_fn)


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


def lstm_encode(x: Tensor, lengths, w_in: Tensor, w_rec: Tensor, bias: Tensor) -> Tensor:
    """Final hidden state of an LSTM run over the first ``lengths[b]`` columns of each row.

    ``x`` is [B x N x L] with a [B] length vector; returns [B x H].  The
    weights are ``w_in`` [4H x N], ``w_rec`` [4H x H] and ``bias`` [4H], each
    stacking the input, forget, candidate and output gate blocks.
    Zero-length sequences encode to the zero vector; padding beyond the true
    length never affects the output and receives exactly zero gradient.  The
    result has ``x``'s dtype.  This is ``lstm_encode_stack`` on one job.
    """
    return lstm_encode_stack([(x, lengths, w_in, w_rec, bias)])[0]


def lstm_encode_stack(jobs) -> list:
    """``lstm_encode`` of E jobs ``(x, lengths, w_in, w_rec, bias)``, each
    with its own weights, in one time loop; returns the E encodings.

    The jobs must share their row count B, step count (longest length),
    input and hidden sizes and dtype.  Each step runs one stacked product
    ``[E x B x H] @ [E x H x 4H]`` (one gemm per job) and each elementwise op
    once over all E*B rows, so a job encodes to the same bits as alone, in
    fewer numpy calls than E separate loops.

    The recurrence has a hand-written backward (backpropagation through
    time), and each job is its own tape op with its own backward over its
    rows, so a stacked call gives the gradients of separate calls.  One
    matmul per job projects the inputs of every step; the recurrence runs in
    plain numpy with sigmoid computed as 0.5 * (1 + tanh(z / 2)).  Every row
    runs every step, with no mask: a row's encoding is its ``h`` right after
    its own last step, and the backward adds its output gradient there, so
    its padding gets exactly zero gradient whatever it holds.  Activations
    are kept only when the tape records an op, so the no_grad serving path
    stores none.
    """
    x0, _, _, w_rec0, _ = jobs[0]
    if x0.ndim != 3:
        raise ShapeError(f"lstm_encode expects a [B x N x L] batch, got shape {x0.shape}")
    batch, n_in = x0.shape[:2]
    dtype, hidden = x0.dtype, w_rec0.shape[1]
    all_lengths, ends = [], []  # ends: per job, step -> the rows whose sequence ends at that step
    for x, lengths, _, w_rec, _ in jobs:
        lengths = np.asarray(lengths, dtype=np.int64)
        if x.ndim != 3 or x.shape[:2] != (batch, n_in) or x.dtype != dtype or w_rec.shape[1] != hidden:
            raise ShapeError(f"stacked LSTM jobs must share rows, sizes and dtype: {x.shape} {x.dtype}, "
                             f"hidden {w_rec.shape[1]} against {x0.shape} {dtype}, hidden {hidden}")
        if lengths.shape != (batch,):
            raise ContractError(f"expected {batch} lengths, got shape {lengths.shape}")
        if lengths.min(initial=0) < 0 or lengths.max(initial=0) > x.shape[2]:
            raise ContractError(f"each length must lie in [0, {x.shape[2]}], the sequence length")
        all_lengths.append(lengths)
        ends.append({})
        for row, n in enumerate(lengths.tolist()):
            ends[-1].setdefault(n - 1, []).append(row)  # a zero-length row lands at step -1, which never runs
    steps = int(all_lengths[0].max(initial=0))
    if any(lengths.max(initial=0) != steps for lengths in all_lengths):
        raise ContractError("stacked LSTM jobs must share their longest length")
    datas = [x.data for x, *_ in jobs]
    rows = batch
    if batch == 1:
        # numpy sends one-row products to gemv, which rounds unlike the gemm a
        # batch gets; a second row of zeros keeps a lone sequence's bits equal
        # to its bits in any batch.  No step ends it, so no output is read from it.
        datas = [np.concatenate([data, np.zeros_like(data)]) for data in datas]
        rows = 2
    stack = len(jobs)
    i_, f_, g_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))  # gate blocks
    # With the weight rows scaled by ``half`` (exact: a power of two),
    # tanh(pre-activation) * half + shift is sigmoid(z) = 0.5 * (1 + tanh(z / 2))
    # on the input, forget and output blocks and tanh(z) on the candidate block.
    half = np.full(4 * hidden, 0.5, dtype=dtype)
    half[g_] = 1.0
    shift = np.full(4 * hidden, 0.5, dtype=dtype)
    shift[g_] = 0.0
    saved, projections, w_rec_half_t = [], [], []  # saved: each job's inputs and weights for its backward
    for data, (_, _, w_in, w_rec, bias) in zip(datas, jobs):
        w_in, w_rec, bias = (t.data.astype(dtype, copy=False) for t in (w_in, w_rec, bias))
        xs = data[:, :, :steps].transpose(2, 0, 1).reshape(steps * rows, n_in)  # step-major rows
        saved.append((xs, w_in, w_rec))
        # Both products take contiguous [in x 4H] weights: with a transposed
        # view, OpenBLAS rounds products of fewer than ten rows unlike longer
        # ones, and a row must encode to the same bits in any batch.
        gates = xs @ np.ascontiguousarray((w_in * half[:, None]).T)  # [T*B x 4H]
        gates += bias * half
        projections.append(gates.reshape(steps, rows, 4 * hidden))
        w_rec_half_t.append(np.ascontiguousarray((w_rec * half[:, None]).T))  # [H x 4H]
    # [T x E*B x 4H], job e's rows at e*B: each step's slice becomes its gates
    gates_seq = projections[0] if stack == 1 else np.concatenate(projections, axis=1)
    w_rec_half_t = np.stack(w_rec_half_t)  # [E x H x 4H]
    # full-shape copies: in-place ops on equal shapes skip numpy's broadcasting
    half_rows, shift_rows = (np.broadcast_to(v, (stack * rows, 4 * hidden)).copy() for v in (half, shift))
    keep = any(nm.records((x, *params)) for x, _, *params in jobs)
    if keep:  # the state entering each step, and tanh of each step's new cell
        h_seq, c_seq, tanh_c_seq = (np.empty((steps, stack * rows, hidden), dtype=dtype) for _ in range(3))
    h = np.zeros((stack * rows, hidden), dtype=dtype)
    c = np.zeros((stack * rows, hidden), dtype=dtype)
    rec = np.empty((stack * rows, 4 * hidden), dtype=dtype)
    h_jobs, rec_jobs = h.reshape(stack, rows, hidden), rec.reshape(stack, rows, 4 * hidden)  # views
    out = np.zeros((stack, rows, hidden), dtype=dtype)  # zero-length rows keep the zero vector
    for t in range(steps):
        gates = gates_seq[t]
        np.matmul(h_jobs, w_rec_half_t, out=rec_jobs)
        gates += rec
        np.tanh(gates, out=gates)
        gates *= half_rows
        gates += shift_rows
        c_new = gates[:, f_] * c + gates[:, i_] * gates[:, g_]
        tanh_c = np.tanh(c_new)
        if keep:
            h_seq[t], c_seq[t], tanh_c_seq[t] = h, c, tanh_c
        c = c_new
        np.multiply(gates[:, o_], tanh_c, out=h)
        for e, job_ends in enumerate(ends):
            if t in job_ends:
                out[e, job_ends[t]] = h_jobs[e, job_ends[t]]

    def backward_for(e, x, xs, w_in, w_rec):
        job_rows, job_ends = slice(e * rows, (e + 1) * rows), ends[e]

        def backward_fn(g):
            d_pre = np.empty((steps, rows, 4 * hidden), dtype=dtype)
            slope = np.empty((rows, 4 * hidden), dtype=dtype)
            candidate = 1.0 - 2.0 * shift  # 1 on the tanh block, 0 on the sigmoid blocks
            dh = np.zeros((rows, hidden), dtype=g.dtype)
            dc = np.zeros_like(dh)
            for t in reversed(range(steps)):
                gates, tanh_c = gates_seq[t, job_rows], tanh_c_seq[t, job_rows]
                if t in job_ends:  # dh and dc are exactly 0 past a row's end: setting adds, keeps -0.0
                    dh[job_ends[t]] = g[job_ends[t]]
                dc_t = dc + dh * gates[:, o_] * (1.0 - tanh_c * tanh_c)
                d = d_pre[t]
                np.multiply(dc_t, gates[:, g_], out=d[:, i_])
                np.multiply(dc_t, c_seq[t, job_rows], out=d[:, f_])
                np.multiply(dc_t, gates[:, i_], out=d[:, g_])
                np.multiply(dh, tanh_c, out=d[:, o_])
                # d gate / d pre-activation: s (1 - s) for a sigmoid, (1 - a)(1 + a) for tanh
                d *= np.subtract(1.0, gates, out=slope)
                d *= np.add(gates, candidate, out=slope)
                dh = d @ w_rec
                dc = dc_t * gates[:, f_]
            d_rows = d_pre.reshape(steps * rows, 4 * hidden)
            dx = None
            if x.requires_grad:
                dx = np.zeros((rows, n_in, x.shape[2]), dtype=dtype)
                dx[:, :, :steps] = (d_rows @ w_in).reshape(steps, rows, n_in).transpose(1, 2, 0)
                dx = dx[:batch].reshape(x.shape)
            d_w_rec = d_rows.T @ h_seq[:, job_rows].reshape(steps * rows, hidden)
            return dx, d_rows.T @ xs, d_w_rec, d_rows.sum(axis=0)

        return backward_fn

    return [nm.custom_op(out[e, :batch], (x, *params), backward_for(e, x, *job_saved))
            for e, ((x, _, *params), job_saved) in enumerate(zip(jobs, saved))]


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
    return nm.reshape(nm.matmul(h, nm.reshape(weight, (dim, 1))), (h.shape[0],))


def kmax_pool(scores: Tensor, k, col_valid, row_valid, out_rows) -> Tensor:
    """Per-row k-max over the last axis of [B x R x C], flattened to [B, out_rows*k].

    Columns at or beyond ``col_valid[b]`` are padding and never win the
    pooling; rows at or beyond ``row_valid[b]`` (padded response words) emit
    gradient-free zeros, as do slots left over when a row has fewer than k
    real columns, and so when the grid itself is narrower than k (C may be
    0).  ``out_rows`` (at least R) zero-pads the result to a fixed width, so
    a grid trimmed to a batch's real rows feeds the same dense head as a
    full one.  What was selected follows from the masks alone, so infinite
    and NaN values pool like any other (NaN counts as the largest, as in
    ``np.argmax``).  Gradient is routed to the selected positions only,
    first occurrence winning ties.
    """
    b, rows, cols = scores.shape
    if out_rows < rows:
        raise ShapeError(f"kmax_pool: {rows} grid rows do not fit in {out_rows} output rows")
    col_valid = np.asarray(col_valid, dtype=np.int64)[:, None, None]
    row_valid = np.asarray(row_valid, dtype=np.int64)[:, None, None]
    masked = np.where(np.arange(cols) < col_valid, scores.data, -np.inf)
    pooled = min(k, cols)
    if pooled == 1:
        order = np.argmax(masked, axis=2)[:, :, None]  # first occurrence on ties
    else:  # NaN first, as argmax takes it, then descending; lexsort is stable
        order = np.lexsort((-masked, ~np.isnan(masked)), axis=2)[:, :, :pooled]
    selected = (order < col_valid) & (np.arange(rows)[:, None] < row_valid)
    vals = np.where(selected, np.take_along_axis(scores.data, order, axis=2), 0.0)
    data = np.zeros((b, out_rows, k), dtype=vals.dtype)
    data[:, :rows, :pooled] = vals

    def backward_fn(g):
        grad = np.zeros_like(scores.data)
        g_sel = np.where(selected, g.reshape(b, out_rows, k)[:, :rows, :pooled], 0.0)
        np.put_along_axis(grad, order, g_sel, axis=2)
        return (grad,)

    return nm.custom_op(data.reshape(b, out_rows * k), (scores,), backward_fn)


def cross_convolution(context_emb: Tensor, response_emb: Tensor, k, heads, context_length,
                      response_length) -> Tensor:
    """All pairwise word inner products, k-max pooled per response word, densed.

    Inputs are embedded batches [B x N x Lc] and [B x N x Lr]; entry (i, j)
    of a row's inner-product grid is response word i against context word j.
    ``heads`` is one ``(weight, bias)`` pair, the dense head's [k*L] weight
    and [1] bias, or two pairs for the parallel head, scored
    sigmoid(first) + second.  The head has k*L weights for L response
    slots; a response may be narrower than L (a batch trimmed to its longest
    true length), and the slots beyond its columns pool to zeros.  Padded
    context columns (at or beyond ``context_length``) are excluded from
    pooling, and padded response rows (at or beyond ``response_length``)
    pool to gradient-free zeros, so padding influences neither the score nor
    any gradient.  Pooled values are concatenated in response order and fed
    to each head through ``dense_score``.  Returns the [B] raw scores; the
    model combines them with its other branch under one sigmoid.
    """
    if context_emb.ndim != 3 or response_emb.ndim != 3:
        raise ShapeError(f"cross_convolution expects [B x N x L] batches, got "
                         f"{context_emb.shape} and {response_emb.shape}")
    if len(heads) not in (1, 2):
        raise ContractError(f"cross_convolution takes one dense head or two, got {len(heads)}")
    if k < 1:
        raise ContractError(f"cross_convolution needs k >= 1, got {k}")
    kl, resp_cols = heads[0][0].shape[0], response_emb.shape[2]
    if kl % k or resp_cols > kl // k:
        raise ShapeError(f"dense weight has {kl} entries, needs k*L with k={k} and L >= {resp_cols}")

    grid = nm.matmul(nm.transpose_last(response_emb), context_emb)  # [B x Lr x Lc]
    pooled = kmax_pool(grid, k, context_length, response_length, kl // k)  # [B, kL]
    scores = [nm.add(dense_score(pooled, weight), bias) for weight, bias in heads]
    return scores[0] if len(scores) == 1 else nm.add(nm.sigmoid(scores[0]), scores[1])
