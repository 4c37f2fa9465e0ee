import numpy as np
import pytest

from ccnrank import numerics as nm
from ccnrank.layers import (
    BilinearParams,
    CcnParams,
    ConfigurationError,
    DenseScorerParams,
    EmbeddingTable,
    LstmParams,
    apply_pretrained,
    bilinear_score,
    cross_convolution,
    dense_score,
    embed_lookup,
    init_embedding_matrix,
    init_lstm_arrays,
    kmax,
    load_word_vectors,
    lstm_encode,
)
from ccnrank.numerics import ContractError, ParameterSet, ShapeError, Tensor, backward, finite_diff_check
from ccnrank.vocab import EncodedSequence


def table_from(array, ps=None, name="emb"):
    if ps is None:
        ps = ParameterSet()
    return EmbeddingTable(ps.add(name, np.asarray(array, dtype=np.float64))), ps


class TestEmbedLookup:
    def test_all_pad_gives_zero_matrix(self):
        table, _ = table_from(np.arange(12.0).reshape(4, 3))
        out = embed_lookup(np.zeros(5, dtype=np.int64), table)
        np.testing.assert_array_equal(out.data, np.zeros((3, 5)))

    def test_columns_are_rows_of_table(self):
        table, _ = table_from(np.arange(12.0).reshape(4, 3))
        out = embed_lookup(np.array([2, 3, 0, 0]), table)
        np.testing.assert_array_equal(out.data[:, 0], table.matrix.data[2])
        np.testing.assert_array_equal(out.data[:, 1], table.matrix.data[3])
        np.testing.assert_array_equal(out.data[:, 2:], np.zeros((3, 2)))

    def test_accepts_encoded_sequence(self):
        table, _ = table_from(np.arange(8.0).reshape(4, 2))
        enc = EncodedSequence(ids=np.array([1, 2, 0]), true_length=2)
        out = embed_lookup(enc, table)
        assert out.shape == (2, 3)

    def test_out_of_range_id(self):
        table, _ = table_from(np.zeros((4, 2)))
        with pytest.raises(ContractError):
            embed_lookup(np.array([4]), table)

    def test_gradient_counts_occurrences_and_skips_pad(self):
        rng = np.random.default_rng(0)
        table, ps = table_from(rng.normal(size=(5, 3)))
        ids = np.array([2, 2, 4, 0, 0])
        out = embed_lookup(ids, table)
        backward(nm.tsum(out))
        grad = table.matrix.grad
        np.testing.assert_array_equal(grad[2], np.full(3, 2.0))
        np.testing.assert_array_equal(grad[4], np.full(3, 1.0))
        np.testing.assert_array_equal(grad[0], np.zeros(3))
        np.testing.assert_array_equal(grad[1], np.zeros(3))
        np.testing.assert_array_equal(grad[3], np.zeros(3))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        ps = ParameterSet()
        table = EmbeddingTable(ps.add("emb", rng.normal(size=(6, 4))))
        ids = np.array([[2, 5, 1, 0], [3, 3, 0, 0]])

        def loss():
            out = embed_lookup(ids, table)
            return nm.tsum(nm.mul(out, out))

        report = finite_diff_check(loss, ps, max_coords_per_param=24)
        assert report.passed, report

    def test_batched_lookup_shape(self):
        table, _ = table_from(np.arange(12.0).reshape(4, 3))
        out = embed_lookup(np.array([[1, 2], [3, 0]]), table)
        assert out.shape == (2, 3, 2)
        np.testing.assert_array_equal(out.data[1, :, 1], np.zeros(3))


def manual_lstm_cell(x, h, c, w_in, w_rec, bias, hidden):
    """Independent single-step cell using the gate equations directly."""
    pre = w_in @ x + w_rec @ h + bias
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    i = sig(pre[:hidden])
    f = sig(pre[hidden : 2 * hidden])
    g = np.tanh(pre[2 * hidden : 3 * hidden])
    o = sig(pre[3 * hidden :])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def make_lstm(input_dim, hidden, rng, ps=None, prefix="enc"):
    if ps is None:
        ps = ParameterSet()
    w_in, w_rec, bias = init_lstm_arrays(input_dim, hidden, rng)
    params = LstmParams(
        w_in=ps.add(f"{prefix}.w_in", w_in),
        w_rec=ps.add(f"{prefix}.w_rec", w_rec),
        bias=ps.add(f"{prefix}.bias", bias),
    )
    return params, ps


class TestLstmEncode:
    def test_zero_parameters_give_zero_output(self):
        ps = ParameterSet()
        params = LstmParams(
            w_in=ps.add("w", np.zeros((8, 3))),
            w_rec=ps.add("u", np.zeros((8, 2))),
            bias=ps.add("b", np.zeros(8)),
        )
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        out = lstm_encode(x, 4, params)
        np.testing.assert_array_equal(out.data, np.zeros(2))

    def test_zero_length_gives_zero_vector(self):
        rng = np.random.default_rng(1)
        params, _ = make_lstm(3, 2, rng)
        out = lstm_encode(Tensor(rng.normal(size=(3, 5))), 0, params)
        np.testing.assert_array_equal(out.data, np.zeros(2))

    def test_single_step_matches_cell_oracle(self):
        rng = np.random.default_rng(2)
        params, _ = make_lstm(2, 2, rng)
        x = rng.normal(size=(2, 1))
        out = lstm_encode(Tensor(x), 1, params)
        h, _ = manual_lstm_cell(
            x[:, 0], np.zeros(2), np.zeros(2),
            params.w_in.data, params.w_rec.data, params.bias.data, 2,
        )
        np.testing.assert_allclose(out.data, h, atol=1e-10)

    def test_multi_step_matches_cell_oracle(self):
        rng = np.random.default_rng(3)
        params, _ = make_lstm(3, 4, rng)
        x = rng.normal(size=(3, 5))
        out = lstm_encode(Tensor(x), 5, params)
        h, c = np.zeros(4), np.zeros(4)
        for t in range(5):
            h, c = manual_lstm_cell(
                x[:, t], h, c, params.w_in.data, params.w_rec.data, params.bias.data, 4
            )
        np.testing.assert_allclose(out.data, h, atol=1e-10)

    def test_padding_invariance(self):
        rng = np.random.default_rng(4)
        params, _ = make_lstm(3, 4, rng)
        x = rng.normal(size=(3, 6))
        x[:, 4:] = 0.0
        out_a = lstm_encode(Tensor(x), 4, params)
        garbage = x.copy()
        garbage[:, 4:] = rng.normal(size=(3, 2))
        out_b = lstm_encode(Tensor(garbage), 4, params)
        np.testing.assert_array_equal(out_a.data, out_b.data)

    def test_batched_matches_per_instance(self):
        rng = np.random.default_rng(5)
        params, _ = make_lstm(3, 4, rng)
        xs = rng.normal(size=(3, 3, 6))
        lengths = np.array([6, 2, 0])
        batch_out = lstm_encode(Tensor(xs), lengths, params)
        for b in range(3):
            single = lstm_encode(Tensor(xs[b]), int(lengths[b]), params)
            np.testing.assert_allclose(batch_out.data[b], single.data, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(6)
        params, ps = make_lstm(3, 3, rng)
        x = ps.add("x", rng.normal(size=(3, 4)))

        def loss():
            h = lstm_encode(x, 3, params)
            return nm.tsum(nm.mul(h, h))

        report = finite_diff_check(loss, ps, max_coords_per_param=16)
        assert report.passed, report

    def test_ragged_batch_gradients(self):
        # lengths 0, 1, L-1 and L in one batch: every input and weight coordinate
        rng = np.random.default_rng(7)
        length = 5
        params, ps = make_lstm(3, 4, rng)
        for name in ps.names():
            ps[name].data = rng.uniform(-0.5, 0.5, size=ps[name].shape)
        x = ps.add("x", rng.normal(size=(4, 3, length)))
        lengths = np.array([0, 1, length - 1, length])
        weights = Tensor(rng.normal(size=(4, 4)))

        def loss():
            return nm.tsum(nm.tsum(nm.mul(lstm_encode(x, lengths, params), weights), axis=1))

        report = finite_diff_check(loss, ps, max_coords_per_param=60)
        assert set(report.errors_by_parameter) == {"enc.w_in", "enc.w_rec", "enc.bias", "x"}
        assert report.passed, report

    def test_padded_columns_get_exactly_zero_gradient(self):
        rng = np.random.default_rng(8)
        params, ps = make_lstm(3, 4, rng)
        x = ps.add("x", rng.normal(size=(3, 3, 6)))
        lengths = np.array([2, 6, 0])
        backward(nm.tsum(nm.tsum(lstm_encode(x, lengths, params), axis=1)))
        for b, n in enumerate(lengths):
            assert np.all(x.grad[b, :, n:] == 0.0)
            assert np.all(x.grad[b, :, :n] != 0.0)
        single = ps.add("single", rng.normal(size=(3, 6)))
        backward(nm.tsum(lstm_encode(single, 4, params)))
        assert np.all(single.grad[:, 4:] == 0.0)

    def test_no_grad_output_has_no_parents(self):
        rng = np.random.default_rng(9)
        params, ps = make_lstm(3, 4, rng)
        x = ps.add("x", rng.normal(size=(2, 3, 5)))
        with nm.no_grad():
            out = lstm_encode(x, np.array([5, 3]), params)
        assert not out.requires_grad
        assert out._parents == () and out._backward_fn is None
        taped = lstm_encode(x, np.array([5, 3]), params)
        assert taped._parents == (x, params.w_in, params.w_rec, params.bias)
        np.testing.assert_array_equal(out.data, taped.data)

    def test_keeps_float32(self):
        rng = np.random.default_rng(10)
        ps = ParameterSet()
        arrays = init_lstm_arrays(3, 4, rng)
        params = LstmParams(*(ps.add(n, a.astype(np.float32)) for n, a in zip("wub", arrays)))
        x = ps.add("x", rng.normal(size=(2, 3, 5)).astype(np.float32))
        out = lstm_encode(x, np.array([5, 2]), params)
        assert out.dtype == np.float32
        backward(nm.tsum(nm.tsum(out, axis=1)))
        assert {t.grad.dtype for _, t in ps.items()} == {np.dtype(np.float32)}


class TestScorers:
    def test_bilinear_identity(self):
        ps = ParameterSet()
        params = BilinearParams(weight=ps.add("m", np.eye(3)))
        e1 = Tensor(np.array([1.0, 0.0, 0.0]))
        assert bilinear_score(e1, e1, params).item() == 1.0

    def test_bilinear_zero_input(self):
        ps = ParameterSet()
        params = BilinearParams(weight=ps.add("m", np.ones((3, 3))))
        z = Tensor(np.zeros(3))
        assert bilinear_score(z, Tensor(np.ones(3)), params).item() == 0.0

    def test_bilinear_matches_triple_loop(self):
        rng = np.random.default_rng(7)
        ps = ParameterSet()
        m = rng.normal(size=(3, 3))
        params = BilinearParams(weight=ps.add("m", m))
        c, r = rng.normal(size=3), rng.normal(size=3)
        expected = sum(c[i] * m[i, j] * r[j] for i in range(3) for j in range(3))
        got = bilinear_score(Tensor(c), Tensor(r), params).item()
        assert got == pytest.approx(expected, rel=1e-12)

    def test_bilinear_transpose_symmetry(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 4))
        ps = ParameterSet()
        p_m = BilinearParams(weight=ps.add("m", m))
        p_mt = BilinearParams(weight=ps.add("mt", m.T))
        c, r = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
        assert bilinear_score(c, r, p_m).item() == pytest.approx(
            bilinear_score(r, c, p_mt).item(), rel=1e-12
        )

    def test_bilinear_shape_error(self):
        ps = ParameterSet()
        params = BilinearParams(weight=ps.add("m", np.eye(3)))
        with pytest.raises(ShapeError):
            bilinear_score(Tensor(np.zeros(2)), Tensor(np.zeros(2)), params)

    def test_dense_zero_weight(self):
        ps = ParameterSet()
        params = DenseScorerParams(weight=ps.add("d", np.zeros(3)))
        assert dense_score(Tensor(np.ones(3)), params).item() == 0.0

    def test_dense_basis_weight(self):
        ps = ParameterSet()
        params = DenseScorerParams(weight=ps.add("d", np.array([1.0, 0.0, 0.0])))
        assert dense_score(Tensor(np.array([5.0, 7.0, 9.0])), params).item() == 5.0

    def test_dense_matches_dot_oracle(self):
        rng = np.random.default_rng(9)
        ps = ParameterSet()
        d = rng.normal(size=6)
        params = DenseScorerParams(weight=ps.add("d", d))
        h = rng.normal(size=6)
        expected = sum(d[i] * h[i] for i in range(6))
        assert dense_score(Tensor(h), params).item() == pytest.approx(expected, rel=1e-12)

    def test_scorer_gradients(self):
        rng = np.random.default_rng(10)
        ps = ParameterSet()
        bil = BilinearParams(weight=ps.add("m", rng.normal(size=(4, 4))))
        den = DenseScorerParams(weight=ps.add("d", rng.normal(size=4)))
        c = ps.add("c", rng.normal(size=(3, 4)))
        r = ps.add("r", rng.normal(size=(3, 4)))

        def loss():
            s = nm.add(bilinear_score(c, r, bil), dense_score(c, den))
            return nm.tsum(nm.sigmoid(s))

        assert finite_diff_check(loss, ps).passed


class TestKmax:
    def test_single_max(self):
        out = kmax([0.2, -0.5, 0.9], 1)
        np.testing.assert_array_equal(out.data, [0.9])

    def test_descending(self):
        out = kmax([1.0, 3.0, 2.0], 2)
        np.testing.assert_array_equal(out.data, [3.0, 2.0])

    def test_short_input_zero_fills(self):
        out = kmax([4.0, -1.0, 7.0], 3, n_valid=2)
        np.testing.assert_array_equal(out.data, [4.0, -1.0, 0.0])

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            values = rng.normal(size=20)
            k = int(rng.integers(1, 8))
            out = kmax(values, k)
            expected = np.sort(values)[::-1][:k]
            np.testing.assert_array_equal(out.data, expected)

    def test_gradient_on_selected_positions_first_tie_wins(self):
        values = Tensor(np.array([2.0, 5.0, 5.0, 1.0]), requires_grad=True)
        out = kmax(values, 2)
        backward(nm.tsum(out))
        np.testing.assert_array_equal(values.grad, [0.0, 1.0, 1.0, 0.0])
        values2 = Tensor(np.array([2.0, 5.0, 5.0, 1.0]), requires_grad=True)
        backward(nm.tsum(kmax(values2, 1)))
        np.testing.assert_array_equal(values2.grad, [0.0, 1.0, 0.0, 0.0])

    def test_gradient_is_indicator_of_selection(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            arr = rng.normal(size=10)
            k = int(rng.integers(1, 10))
            t = Tensor(arr, requires_grad=True)
            backward(nm.tsum(kmax(t, k)))
            assert t.grad.sum() == k
            assert set(np.unique(t.grad)) <= {0.0, 1.0}


def ccn_params(ps, k, resp_len, weight=None, bias=0.0):
    w = np.zeros(k * resp_len) if weight is None else np.asarray(weight, dtype=np.float64)
    return CcnParams(
        k=k,
        weight=ps.add("ccn.weight", w),
        bias=ps.add("ccn.bias", np.array([bias])),
    )


class TestCrossConvolution:
    def test_zero_response_scores_bias(self):
        ps = ParameterSet()
        params = ccn_params(ps, 1, 3, weight=np.ones(3), bias=0.7)
        ctx = Tensor(np.random.default_rng(0).normal(size=(2, 4)))
        resp = Tensor(np.zeros((2, 3)))
        score = cross_convolution(ctx, resp, params, context_length=4)
        assert score.item() == pytest.approx(0.7)

    def test_hand_evaluated_case(self):
        # unit-basis context columns, response = e1: grid row [1, 0], k=1
        ps = ParameterSet()
        params = ccn_params(ps, 1, 1, weight=[1.0], bias=0.0)
        ctx = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        resp = Tensor(np.array([[1.0], [0.0]]))
        score = cross_convolution(ctx, resp, params, context_length=2)
        assert score.item() == pytest.approx(1.0)

    def test_pooled_in_response_order(self):
        # two response words with distinct best matches
        ps = ParameterSet()
        params = ccn_params(ps, 1, 2, weight=[1.0, 10.0], bias=0.0)
        ctx = Tensor(np.array([[2.0, 0.0], [0.0, 3.0]]))
        resp = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        score = cross_convolution(ctx, resp, params, context_length=2)
        # response word 0 pools 2.0, word 1 pools 3.0 -> 1*2 + 10*3
        assert score.item() == pytest.approx(32.0)

    def test_pad_columns_cannot_win_pooling(self):
        ps = ParameterSet()
        params = ccn_params(ps, 1, 1, weight=[1.0], bias=0.0)
        ctx = Tensor(np.array([[-1.0, 0.0], [-1.0, 0.0]]))  # second column is padding
        resp = Tensor(np.array([[1.0], [1.0]]))
        score = cross_convolution(ctx, resp, params, context_length=1)
        assert score.item() == pytest.approx(-2.0)  # not the 0.0 of the pad column

    def test_invariant_to_permuting_pad_columns(self):
        rng = np.random.default_rng(13)
        ps = ParameterSet()
        params = ccn_params(ps, 2, 3, weight=rng.normal(size=6), bias=0.1)
        ctx = rng.normal(size=(4, 6))
        ctx[:, 4:] = 0.0
        resp = Tensor(rng.normal(size=(4, 3)))
        base = cross_convolution(Tensor(ctx), resp, params, context_length=4)
        permuted = ctx.copy()
        permuted[:, [4, 5]] = permuted[:, [5, 4]]
        swapped = cross_convolution(Tensor(permuted), resp, params, context_length=4)
        assert base.item() == swapped.item()

    def test_k_larger_than_context_rejected(self):
        ps = ParameterSet()
        params = ccn_params(ps, 4, 2, weight=np.zeros(8))
        with pytest.raises(ConfigurationError):
            cross_convolution(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))), params)

    def test_parallel_head(self):
        ps = ParameterSet()
        params = CcnParams(
            k=1,
            weight=ps.add("w1", np.zeros(2)),
            bias=ps.add("b1", np.zeros(1)),
            weight2=ps.add("w2", np.zeros(2)),
            bias2=ps.add("b2", np.full(1, 0.25)),
        )
        ctx = Tensor(np.zeros((2, 2)))
        resp = Tensor(np.zeros((2, 2)))
        score = cross_convolution(ctx, resp, params, context_length=2)
        # sigmoid(first head's 0) + second head's bias
        assert score.item() == pytest.approx(0.75)
        with pytest.raises(ConfigurationError):
            CcnParams(k=1, weight=params.weight, bias=params.bias, weight2=params.weight2)

    def test_full_gradient_small_shapes(self):
        rng = np.random.default_rng(14)
        ps = ParameterSet()
        params = CcnParams(
            k=2,
            weight=ps.add("w", rng.normal(size=8)),
            bias=ps.add("b", rng.normal(size=1)),
        )
        ctx = ps.add("ctx", rng.normal(size=(2, 3, 5)))
        resp = ps.add("resp", rng.normal(size=(2, 3, 4)))
        lengths = np.array([5, 3])

        def loss():
            return nm.tsum(nm.sigmoid(cross_convolution(ctx, resp, params, context_length=lengths)))

        report = finite_diff_check(loss, ps, max_coords_per_param=20)
        assert report.passed, report


class TestPretrainedVectors:
    def test_load_and_apply(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("alpha 1.0 2.0\nbeta 3.0 4.0\ngamma 5.0 6.0\n")
        vectors = load_word_vectors(path, dim=2)
        assert set(vectors) == {"alpha", "beta", "gamma"}

        class FakeVocab:
            word_to_id = {"alpha": 2, "missing": 3}

        rng = np.random.default_rng(0)
        matrix = init_embedding_matrix(4, 2, rng)
        before_missing = matrix[3].copy()
        covered = apply_pretrained(matrix, FakeVocab(), vectors)
        assert covered == 1
        np.testing.assert_array_equal(matrix[2], [1.0, 2.0])
        np.testing.assert_array_equal(matrix[3], before_missing)
        np.testing.assert_array_equal(matrix[0], [0.0, 0.0])

    def test_dim_mismatch(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("alpha 1.0 2.0 3.0\n")
        with pytest.raises(ContractError):
            load_word_vectors(path, dim=2)
