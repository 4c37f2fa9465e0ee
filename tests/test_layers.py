import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccnrank import numerics as nm
from ccnrank.layers import (
    apply_pretrained,
    bilinear_score,
    cross_convolution,
    dense_score,
    embed_lookup,
    gather_rows,
    init_embedding_matrix,
    init_lstm_arrays,
    kmax_pool,
    load_word_vectors,
    lstm_encode,
    lstm_encode_stack,
)
from ccnrank.numerics import ContractError, ParameterSet, ShapeError, Tensor, backward, finite_diff_check


def table_from(array, ps=None, name="emb"):
    """An embedding table parameter with its padding row zeroed, as the models keep it."""
    if ps is None:
        ps = ParameterSet()
    array = np.array(array, dtype=np.float64)
    array[0] = 0.0
    return ps.add(name, array), ps


class TestEmbedLookup:
    def test_all_pad_gives_zero_matrix(self):
        table, _ = table_from(np.arange(12.0).reshape(4, 3))
        out = embed_lookup(np.zeros((1, 5), dtype=np.int64), table)
        np.testing.assert_array_equal(out.data, np.zeros((1, 3, 5)))

    def test_columns_are_rows_of_table(self):
        table, _ = table_from(np.arange(12.0).reshape(4, 3))
        out = embed_lookup(np.array([[2, 3, 0, 0]]), table)
        np.testing.assert_array_equal(out.data[0, :, 0], table.data[2])
        np.testing.assert_array_equal(out.data[0, :, 1], table.data[3])
        np.testing.assert_array_equal(out.data[0, :, 2:], np.zeros((3, 2)))

    def test_out_of_range_id(self):
        table, _ = table_from(np.zeros((4, 2)))
        with pytest.raises(ContractError):
            embed_lookup(np.array([[4]]), table)

    def test_gradient_counts_occurrences_and_skips_pad(self):
        rng = np.random.default_rng(0)
        table, ps = table_from(rng.normal(size=(5, 3)))
        ids = np.array([[2, 2, 4, 0, 0]])
        out = embed_lookup(ids, table)
        backward(nm.tsum(out))
        grad = table.grad
        np.testing.assert_array_equal(grad[2], np.full(3, 2.0))
        np.testing.assert_array_equal(grad[4], np.full(3, 1.0))
        np.testing.assert_array_equal(grad[0], np.zeros(3))
        np.testing.assert_array_equal(grad[1], np.zeros(3))
        np.testing.assert_array_equal(grad[3], np.zeros(3))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        table, ps = table_from(rng.normal(size=(6, 4)))
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
    """(w_in, w_rec, bias) parameters of a freshly initialized encoder, and their set."""
    if ps is None:
        ps = ParameterSet()
    arrays = init_lstm_arrays(input_dim, hidden, rng)
    params = tuple(ps.add(f"{prefix}.{part}", a) for part, a in zip(("w_in", "w_rec", "bias"), arrays))
    return params, ps


class TestLstmEncode:
    def test_zero_parameters_give_zero_output(self):
        ps = ParameterSet()
        params = (ps.add("w", np.zeros((8, 3))), ps.add("u", np.zeros((8, 2))), ps.add("b", np.zeros(8)))
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 4)))
        out = lstm_encode(x, np.array([4]), *params)
        np.testing.assert_array_equal(out.data, np.zeros((1, 2)))

    def test_zero_length_gives_zero_vector(self):
        rng = np.random.default_rng(1)
        params, _ = make_lstm(3, 2, rng)
        out = lstm_encode(Tensor(rng.normal(size=(1, 3, 5))), np.array([0]), *params)
        np.testing.assert_array_equal(out.data, np.zeros((1, 2)))

    @pytest.mark.parametrize("lengths", [[4, -3], [-1], [4, 6]])
    def test_a_length_outside_the_sequence_is_refused(self, lengths):
        rng = np.random.default_rng(1)
        params, _ = make_lstm(3, 2, rng)
        x = Tensor(rng.normal(size=(len(lengths), 3, 5)))
        with pytest.raises(ContractError, match=r"\[0, 5\]"):
            lstm_encode(x, np.array(lengths), *params)

    def test_single_step_matches_cell_oracle(self):
        rng = np.random.default_rng(2)
        params, _ = make_lstm(2, 2, rng)
        x = rng.normal(size=(1, 2, 1))
        out = lstm_encode(Tensor(x), np.array([1]), *params)
        h, _ = manual_lstm_cell(x[0, :, 0], np.zeros(2), np.zeros(2), *(t.data for t in params), 2)
        np.testing.assert_allclose(out.data[0], h, atol=1e-10)

    def test_multi_step_matches_cell_oracle(self):
        rng = np.random.default_rng(3)
        params, _ = make_lstm(3, 4, rng)
        x = rng.normal(size=(1, 3, 5))
        out = lstm_encode(Tensor(x), np.array([5]), *params)
        h, c = np.zeros(4), np.zeros(4)
        for t in range(5):
            h, c = manual_lstm_cell(x[0, :, t], h, c, *(t_.data for t_ in params), 4)
        np.testing.assert_allclose(out.data[0], h, atol=1e-10)

    def test_padding_invariance(self):
        rng = np.random.default_rng(4)
        params, _ = make_lstm(3, 4, rng)
        x = rng.normal(size=(1, 3, 6))
        x[..., 4:] = 0.0
        out_a = lstm_encode(Tensor(x), np.array([4]), *params)
        garbage = x.copy()
        garbage[..., 4:] = rng.normal(size=(3, 2))
        out_b = lstm_encode(Tensor(garbage), np.array([4]), *params)
        np.testing.assert_array_equal(out_a.data, out_b.data)

    def test_batched_matches_per_instance(self):
        rng = np.random.default_rng(5)
        params, _ = make_lstm(3, 4, rng)
        xs = rng.normal(size=(3, 3, 6))
        lengths = np.array([6, 2, 0])
        batch_out = lstm_encode(Tensor(xs), lengths, *params)
        for b in range(3):
            alone = lstm_encode(Tensor(xs[b : b + 1]), lengths[b : b + 1], *params)
            np.testing.assert_allclose(batch_out.data[b], alone.data[0], atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(6)
        params, ps = make_lstm(3, 3, rng)
        x = ps.add("x", rng.normal(size=(1, 3, 4)))

        def loss():
            h = lstm_encode(x, np.array([3]), *params)
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
            return nm.tsum(nm.tsum(nm.mul(lstm_encode(x, lengths, *params), weights), axis=1))

        report = finite_diff_check(loss, ps, max_coords_per_param=60)
        assert set(report.errors_by_parameter) == {"enc.w_in", "enc.w_rec", "enc.bias", "x"}
        assert report.passed, report

    def test_padded_columns_get_exactly_zero_gradient(self):
        rng = np.random.default_rng(8)
        params, ps = make_lstm(3, 4, rng)
        x = ps.add("x", rng.normal(size=(3, 3, 6)))
        lengths = np.array([2, 6, 0])
        backward(nm.tsum(nm.tsum(lstm_encode(x, lengths, *params), axis=1)))
        for b, n in enumerate(lengths):
            assert np.all(x.grad[b, :, n:] == 0.0)
            assert np.all(x.grad[b, :, :n] != 0.0)
        lone = ps.add("lone", rng.normal(size=(1, 3, 6)))
        backward(nm.tsum(lstm_encode(lone, np.array([4]), *params)))
        assert np.all(lone.grad[..., 4:] == 0.0)

    def test_no_grad_output_has_no_parents(self):
        rng = np.random.default_rng(9)
        params, ps = make_lstm(3, 4, rng)
        x = ps.add("x", rng.normal(size=(2, 3, 5)))
        with nm.no_grad():
            out = lstm_encode(x, np.array([5, 3]), *params)
        assert not out.requires_grad
        assert out._parents == () and out._backward_fn is None
        taped = lstm_encode(x, np.array([5, 3]), *params)
        assert taped._parents == (x, *params)
        np.testing.assert_array_equal(out.data, taped.data)

    def test_keeps_float32(self):
        rng = np.random.default_rng(10)
        ps = ParameterSet()
        arrays = init_lstm_arrays(3, 4, rng)
        params = [ps.add(n, a.astype(np.float32)) for n, a in zip("wub", arrays)]
        x = ps.add("x", rng.normal(size=(2, 3, 5)).astype(np.float32))
        out = lstm_encode(x, np.array([5, 2]), *params)
        assert out.dtype == np.float32
        backward(nm.tsum(nm.tsum(out, axis=1)))
        assert {t.grad.dtype for _, t in ps.items()} == {np.dtype(np.float32)}


    @pytest.mark.parametrize("steps", [1, 3, 70])
    def test_a_row_encodes_to_the_same_bits_alone_and_in_any_batch(self, steps):
        # at the models' sizes numpy's one-row products (gemv) and OpenBLAS's
        # short products with a transposed operand round unlike a long batch's
        rng = np.random.default_rng(11)
        params, ps = make_lstm(32, 32, rng)
        for name in ps.names():
            ps[name].data = rng.uniform(-0.5, 0.5, size=ps[name].shape)
        xs = rng.normal(size=(40, 32, steps))
        lengths = rng.integers(0, steps + 1, size=40)
        lengths[0] = steps
        full = lstm_encode(Tensor(xs), lengths, *params).data
        for rows in (1, 2, 3, 9, 10, 26):
            got = lstm_encode(Tensor(xs[:rows]), lengths[:rows], *params).data
            assert got.tobytes() == full[:rows].tobytes(), rows
        for row in (5, 39):  # a lone row from inside the batch
            alone = lstm_encode(Tensor(xs[row : row + 1]), lengths[row : row + 1], *params).data
            assert alone.tobytes() == full[row : row + 1].tobytes(), row

    def test_one_row_batch_gradients(self):
        rng = np.random.default_rng(12)
        params, ps = make_lstm(3, 4, rng)
        x = ps.add("x", rng.normal(size=(1, 3, 5)))
        weights = Tensor(rng.normal(size=(1, 4)))

        def loss():
            return nm.tsum(nm.tsum(nm.mul(lstm_encode(x, np.array([4]), *params), weights), axis=1))

        report = finite_diff_check(loss, ps, max_coords_per_param=20)
        assert report.passed, report
        backward(loss())
        assert x.grad.shape == (1, 3, 5) and not x.grad[:, :, 4].any()


class TestLstmEncodeStack:
    """E jobs in one stacked recurrence give the outputs and gradients of E
    separate ``lstm_encode`` calls, bit for bit."""

    @staticmethod
    def jobs(rng, stack, rows, dim, dtype, steps=9):
        made = []
        for _ in range(stack):
            ps = ParameterSet()
            for name, a in zip(("w_in", "w_rec", "bias"), init_lstm_arrays(dim, dim, rng, limit=0.5)):
                ps.add(name, a.astype(dtype))
            ps.add("x", rng.normal(size=(rows, dim, steps + 2)).astype(dtype))
            lengths = rng.integers(0, steps + 1, size=rows)
            lengths[0] = steps  # the jobs share their longest length
            if rows > 1:
                lengths[1] = 0
            made.append((ps, lengths, rng.normal(size=(rows, dim)).astype(dtype)))
        return made

    @staticmethod
    def run(made, stacked):
        args = [(ps["x"], lengths, ps["w_in"], ps["w_rec"], ps["bias"]) for ps, lengths, _ in made]
        outs = lstm_encode_stack(args) if stacked else [lstm_encode(*a) for a in args]
        for out, (_, _, weights) in zip(outs, made):
            backward(nm.tsum(nm.tsum(nm.mul(out, Tensor(weights)), axis=1)))
        return [out.data for out in outs], [{n: ps[n].grad for n in ps.names()} for ps, _, _ in made]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("dim", [8, 32])
    @pytest.mark.parametrize("rows", [1, 2, 10, 16])
    @pytest.mark.parametrize("stack", [2, 3, 4])
    def test_stack_equals_separate_calls(self, stack, rows, dim, dtype):
        seed = [stack, rows, dim, np.dtype(dtype).itemsize]
        outs, grads = self.run(self.jobs(np.random.default_rng(seed), stack, rows, dim, dtype), stacked=True)
        want_outs, want_grads = self.run(self.jobs(np.random.default_rng(seed), stack, rows, dim, dtype),
                                         stacked=False)
        for out, want in zip(outs, want_outs):
            assert out.dtype == dtype and out.tobytes() == want.tobytes()
        for got, want in zip(grads, want_grads):
            assert {n: g.tobytes() for n, g in got.items()} == {n: g.tobytes() for n, g in want.items()}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_ragged_stack_ignores_what_the_padding_holds(self, dtype):
        # rows keep running after their own end, so a row's output, the weight
        # gradients and the padding's zero gradient must not depend on the padding
        stack, steps, dim = 3, 9, 8
        rng = np.random.default_rng(14)
        weights = [[a.astype(dtype) for a in init_lstm_arrays(dim, dim, rng, limit=0.5)] for _ in range(stack)]
        lengths = [rng.permutation(steps + 1) for _ in range(stack)]  # every length 0..T in each job
        xs = [rng.normal(size=(steps + 1, dim, steps + 2)).astype(dtype) for _ in range(stack)]
        pads = [np.arange(steps + 2) >= n[:, None, None] for n in lengths]  # [B x 1 x L]
        garbage = [rng.choice([-50.0, 50.0], size=x.shape).astype(dtype) for x in xs]
        out_weights = [rng.normal(size=(steps + 1, dim)).astype(dtype) for _ in range(stack)]

        def run(padding):
            made = []
            for job_weights, n, x, pad, fill in zip(weights, lengths, xs, pads, padding):
                ps = ParameterSet()
                params = [ps.add(name, a.copy()) for name, a in zip(("w_in", "w_rec", "bias"), job_weights)]
                made.append((ps, (ps.add("x", np.where(pad, fill, x)), n, *params)))
            outs = lstm_encode_stack([job for _, job in made])
            for out, w in zip(outs, out_weights):
                backward(nm.tsum(nm.tsum(nm.mul(out, Tensor(w)), axis=1)))
            return [out.data for out in outs], [ps for ps, _ in made]

        zero_outs, zero_sets = run([np.zeros_like(x) for x in xs])
        outs, sets = run(garbage)
        for out, want in zip(outs, zero_outs):
            assert out.dtype == dtype and out.tobytes() == want.tobytes()
        for ps, want, pad in zip(sets, zero_sets, pads):
            for name in ("w_in", "w_rec", "bias"):
                assert np.array_equal(ps[name].grad, want[name].grad), name
            assert np.all(ps["x"].grad[np.broadcast_to(pad, ps["x"].shape)] == 0.0)

    def test_no_grad_stack_equals_taped_stack(self):
        made = self.jobs(np.random.default_rng(3), 3, 4, 8, np.float64)
        args = [(ps["x"], lengths, ps["w_in"], ps["w_rec"], ps["bias"]) for ps, lengths, _ in made]
        with nm.no_grad():
            served = lstm_encode_stack(args)
        assert not any(out.requires_grad for out in served)
        taped = lstm_encode_stack(args)
        assert all(out._parents == a[:1] + a[2:] for out, a in zip(taped, args))
        assert [out.data.tobytes() for out in served] == [out.data.tobytes() for out in taped]

    def test_jobs_must_share_rows_and_steps(self):
        rng = np.random.default_rng(4)
        (a, la, _), (b, lb, _) = self.jobs(rng, 2, 3, 8, np.float64)
        job_a = (a["x"], la, a["w_in"], a["w_rec"], a["bias"])
        with pytest.raises(ShapeError, match="share rows"):
            lstm_encode_stack([job_a, (Tensor(b["x"].data[:2]), lb[:2], b["w_in"], b["w_rec"], b["bias"])])
        with pytest.raises(ContractError, match="longest length"):
            lstm_encode_stack([job_a, (b["x"], np.minimum(lb, lb.max() - 1), b["w_in"], b["w_rec"], b["bias"])])
        with pytest.raises(ContractError, match="must lie in"):  # a negative length in the second job
            lstm_encode_stack([job_a, (b["x"], lb - 1, b["w_in"], b["w_rec"], b["bias"])])


class TestGatherRows:
    def test_rows_in_index_order(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(gather_rows(x, [2, 0, 2]).data, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])

    def test_gradient_adds_every_read_of_a_row(self):
        ps = ParameterSet()
        x = ps.add("x", np.zeros((3, 2)))
        g = np.array([[1.0, 2.0], [10.0, 20.0], [100.0, 200.0], [1000.0, 2000.0]])
        backward(nm.tsum(nm.tsum(nm.mul(gather_rows(x, [0, 2, 0, 0]), Tensor(g)), axis=1)))
        np.testing.assert_array_equal(x.grad, [[1101.0, 2202.0], [0.0, 0.0], [10.0, 20.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        ps = ParameterSet()
        x = ps.add("x", rng.normal(size=(3, 4)))
        weights = Tensor(rng.normal(size=(5, 4)))

        def loss():
            y = gather_rows(x, [1, 1, 0, 2, 1])
            return nm.tsum(nm.mul(nm.mul(y, y), weights))

        report = finite_diff_check(loss, ps)
        assert report.passed, report


class TestScorers:
    def test_bilinear_identity(self):
        ps = ParameterSet()
        weight = ps.add("m", np.eye(3))
        e1 = Tensor(np.array([[1.0, 0.0, 0.0]]))
        assert bilinear_score(e1, e1, weight).item() == 1.0

    def test_bilinear_zero_input(self):
        ps = ParameterSet()
        weight = ps.add("m", np.ones((3, 3)))
        z = Tensor(np.zeros((1, 3)))
        assert bilinear_score(z, Tensor(np.ones((1, 3))), weight).item() == 0.0

    def test_bilinear_matches_triple_loop(self):
        rng = np.random.default_rng(7)
        ps = ParameterSet()
        m = rng.normal(size=(3, 3))
        weight = ps.add("m", m)
        c, r = rng.normal(size=3), rng.normal(size=3)
        expected = sum(c[i] * m[i, j] * r[j] for i in range(3) for j in range(3))
        got = bilinear_score(Tensor(c[None]), Tensor(r[None]), weight).item()
        assert got == pytest.approx(expected, rel=1e-12)

    def test_bilinear_transpose_symmetry(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 4))
        ps = ParameterSet()
        p_m = ps.add("m", m)
        p_mt = ps.add("mt", m.T)
        c, r = Tensor(rng.normal(size=(1, 4))), Tensor(rng.normal(size=(1, 4)))
        assert bilinear_score(c, r, p_m).item() == pytest.approx(
            bilinear_score(r, c, p_mt).item(), rel=1e-12
        )

    def test_bilinear_shape_error(self):
        ps = ParameterSet()
        weight = ps.add("m", np.eye(3))
        with pytest.raises(ShapeError):
            bilinear_score(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))), weight)

    def test_dense_zero_weight(self):
        ps = ParameterSet()
        weight = ps.add("d", np.zeros(3))
        assert dense_score(Tensor(np.ones((1, 3))), weight).item() == 0.0

    def test_dense_basis_weight(self):
        ps = ParameterSet()
        weight = ps.add("d", np.array([1.0, 0.0, 0.0]))
        assert dense_score(Tensor(np.array([[5.0, 7.0, 9.0]])), weight).item() == 5.0

    def test_dense_matches_dot_oracle(self):
        rng = np.random.default_rng(9)
        ps = ParameterSet()
        d = rng.normal(size=6)
        weight = ps.add("d", d)
        h = rng.normal(size=6)
        expected = sum(d[i] * h[i] for i in range(6))
        assert dense_score(Tensor(h[None]), weight).item() == pytest.approx(expected, rel=1e-12)

    def test_scorer_gradients(self):
        rng = np.random.default_rng(10)
        ps = ParameterSet()
        bil = ps.add("m", rng.normal(size=(4, 4)))
        den = ps.add("d", rng.normal(size=4))
        c = ps.add("c", rng.normal(size=(3, 4)))
        r = ps.add("r", rng.normal(size=(3, 4)))

        def loss():
            s = nm.add(bilinear_score(c, r, bil), dense_score(c, den))
            return nm.tsum(nm.sigmoid(s))

        assert finite_diff_check(loss, ps).passed


class TestKmax:
    """k-max pooling of one sequence: ``kmax_pool`` on a one-row, one-word grid."""

    def test_single_max(self):
        out = kmax_pool(Tensor(np.array([[[0.2, -0.5, 0.9]]])), 1, [3], [1], 1)
        np.testing.assert_array_equal(out.data, [[0.9]])

    def test_descending(self):
        out = kmax_pool(Tensor(np.array([[[1.0, 3.0, 2.0]]])), 2, [3], [1], 1)
        np.testing.assert_array_equal(out.data, [[3.0, 2.0]])

    def test_short_input_zero_fills(self):
        out = kmax_pool(Tensor(np.array([[[4.0, -1.0, 7.0]]])), 3, [2], [1], 1)
        np.testing.assert_array_equal(out.data, [[4.0, -1.0, 0.0]])

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            values = rng.normal(size=20)
            k = int(rng.integers(1, 8))
            out = kmax_pool(Tensor(values.reshape(1, 1, 20)), k, [20], [1], 1)
            expected = np.sort(values)[::-1][:k]
            np.testing.assert_array_equal(out.data[0], expected)

    def test_gradient_on_selected_positions_first_tie_wins(self):
        values = Tensor(np.array([[[2.0, 5.0, 5.0, 1.0]]]), requires_grad=True)
        out = kmax_pool(values, 2, [4], [1], 1)
        backward(nm.tsum(out))
        np.testing.assert_array_equal(values.grad, [[[0.0, 1.0, 1.0, 0.0]]])
        values2 = Tensor(np.array([[[2.0, 5.0, 5.0, 1.0]]]), requires_grad=True)
        backward(nm.tsum(kmax_pool(values2, 1, [4], [1], 1)))
        np.testing.assert_array_equal(values2.grad, [[[0.0, 1.0, 0.0, 0.0]]])

    def test_gradient_is_indicator_of_selection(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            arr = rng.normal(size=(1, 1, 10))
            k = int(rng.integers(1, 10))
            t = Tensor(arr, requires_grad=True)
            backward(nm.tsum(kmax_pool(t, k, [10], [1], 1)))
            assert t.grad.sum() == k
            assert set(np.unique(t.grad)) <= {0.0, 1.0}


def kmax_pool_oracle(grid, k, col_valid, row_valid, out_rows, upstream):
    """Pooled [B, out_rows*k] and the gradient of sum(pooled * upstream), by
    a stable descending sort of each real row's real columns."""
    b, rows, _ = grid.shape
    pooled = np.zeros((b, out_rows, k))
    grad = np.zeros_like(grid)
    g = upstream.reshape(b, out_rows, k)
    for i in range(b):
        for r in range(min(rows, row_valid[i])):
            winners = sorted(range(col_valid[i]), key=lambda j: -grid[i, r, j])[:k]
            for slot, j in enumerate(winners):
                pooled[i, r, slot] = grid[i, r, j]
                grad[i, r, j] = g[i, r, slot]
    return pooled.reshape(b, out_rows * k), grad


@st.composite
def pooling_cases(draw):
    b, rows, k = draw(st.integers(1, 3)), draw(st.integers(0, 4)), draw(st.integers(1, 3))
    cols = draw(st.integers(0, 6))  # a grid may be narrower than k
    # few distinct values, so rows hold ties
    values = draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
                           min_size=b * rows * cols, max_size=b * rows * cols))
    col_valid = draw(st.lists(st.integers(0, cols), min_size=b, max_size=b))
    row_valid = draw(st.lists(st.integers(0, rows), min_size=b, max_size=b))
    out_rows = rows + draw(st.integers(0, 3))
    return np.array(values).reshape(b, rows, cols), k, col_valid, row_valid, out_rows


class TestKmaxPool:
    @settings(max_examples=300, deadline=None)
    @given(case=pooling_cases(), seed=st.integers(0, 2**32 - 1))
    def test_matches_stable_sort_oracle(self, case, seed):
        grid, k, col_valid, row_valid, out_rows = case
        upstream = np.random.default_rng(seed).normal(size=(grid.shape[0], out_rows * k))
        want, want_grad = kmax_pool_oracle(grid, k, col_valid, row_valid, out_rows, upstream)
        t = Tensor(grid, requires_grad=True)
        got = kmax_pool(t, k, col_valid, row_valid, out_rows=out_rows)
        backward(nm.tsum(nm.mul(got, Tensor(upstream))))
        np.testing.assert_array_equal(got.data, want)  # the zero tail included
        np.testing.assert_array_equal(t.grad, want_grad)  # selected positions, ties to the first

    def test_infinite_winner_pools_and_gets_gradient(self):
        t = Tensor(np.array([[[1.0, np.inf, 3.0]]]), requires_grad=True)
        out = kmax_pool(t, 1, [3], [1], 1)
        np.testing.assert_array_equal(out.data, [[np.inf]])
        backward(nm.tsum(out))
        np.testing.assert_array_equal(t.grad, [[[0.0, 1.0, 0.0]]])
        low = Tensor(np.array([[[-np.inf, 2.0, 5.0]]]), requires_grad=True)
        out = kmax_pool(low, 3, [2], [1], 1)  # a real -inf still beats the padded column
        np.testing.assert_array_equal(out.data, [[2.0, -np.inf, 0.0]])
        backward(nm.tsum(out))
        np.testing.assert_array_equal(low.grad, [[[1.0, 1.0, 0.0]]])

    @pytest.mark.parametrize("k", [1, 2])
    def test_nan_is_pooled_not_dropped(self, k):
        out = kmax_pool(Tensor(np.array([[[1.0, np.nan, 3.0]]])), k, [3], [1], 1)
        assert np.isnan(out.data[0, 0])
        assert out.data[0, 1:].tolist() == [3.0][: k - 1]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nan_outranks_inf_at_every_k(self, k):
        t = Tensor(np.array([[[np.inf, np.nan, 1.0]]]), requires_grad=True)
        out = kmax_pool(t, k, [3], [1], 1)
        np.testing.assert_array_equal(out.data, [[np.nan, np.inf, 1.0][:k]])
        upstream = np.array([[10.0, 20.0, 30.0][:k]])  # one value per slot, to see which column got which
        backward(nm.tsum(nm.mul(out, Tensor(upstream))))
        want_grad = np.zeros(3)
        want_grad[[1, 0, 2][:k]] = upstream[0]  # slot 0 is NaN's column, slot 1 inf's, slot 2 1.0's
        np.testing.assert_array_equal(t.grad[0, 0], want_grad)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("cols", [0, 1, 2])
    def test_grid_narrower_than_k_pools_as_the_grid_padded_with_masked_columns(self, k, cols):
        rng = np.random.default_rng(10 * k + cols)
        grid = rng.normal(size=(3, 2, cols))
        col_valid, row_valid = [cols, max(cols - 1, 0), 0], [2, 1, 2]
        upstream = rng.normal(size=(3, 3 * k))
        results = []
        # the padded grid is at least k wide; its masked columns hold a value above every real one
        for values in (grid, np.pad(grid, ((0, 0), (0, 0), (0, k + 1)), constant_values=7.0)):
            t = Tensor(values, requires_grad=True)
            out = kmax_pool(t, k, col_valid, row_valid, 3)
            backward(nm.tsum(nm.mul(out, Tensor(upstream))))
            results.append((out.data, t.grad[..., :cols], t.grad[..., cols:]))
        (narrow, g_narrow, _), (padded, g_padded, g_masked) = results
        np.testing.assert_array_equal(narrow, padded)
        np.testing.assert_array_equal(g_narrow, g_padded)
        assert not g_masked.any()

    def test_output_rows_cannot_drop_grid_rows(self):
        with pytest.raises(ShapeError):
            kmax_pool(Tensor(np.zeros((1, 3, 2))), 1, [2], [3], 2)


def ccn_head(ps, k, resp_len, weight=None, bias=0.0):
    """One dense head, [(weight, bias)], over k * resp_len pooled values."""
    w = np.zeros(k * resp_len) if weight is None else np.asarray(weight, dtype=np.float64)
    return [(ps.add("ccn.weight", w), ps.add("ccn.bias", np.array([bias])))]


class TestCrossConvolution:
    def test_zero_response_scores_bias(self):
        ps = ParameterSet()
        heads = ccn_head(ps, 1, 3, weight=np.ones(3), bias=0.7)
        ctx = Tensor(np.random.default_rng(0).normal(size=(1, 2, 4)))
        resp = Tensor(np.zeros((1, 2, 3)))
        score = cross_convolution(ctx, resp, 1, heads, [4], [3])
        assert score.item() == pytest.approx(0.7)

    def test_hand_evaluated_case(self):
        # unit-basis context columns, response = e1: grid row [1, 0], k=1
        ps = ParameterSet()
        heads = ccn_head(ps, 1, 1, weight=[1.0], bias=0.0)
        ctx = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        resp = Tensor(np.array([[[1.0], [0.0]]]))
        score = cross_convolution(ctx, resp, 1, heads, [2], [1])
        assert score.item() == pytest.approx(1.0)

    def test_pooled_in_response_order(self):
        # two response words with distinct best matches
        ps = ParameterSet()
        heads = ccn_head(ps, 1, 2, weight=[1.0, 10.0], bias=0.0)
        ctx = Tensor(np.array([[[2.0, 0.0], [0.0, 3.0]]]))
        resp = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        score = cross_convolution(ctx, resp, 1, heads, [2], [2])
        # response word 0 pools 2.0, word 1 pools 3.0 -> 1*2 + 10*3
        assert score.item() == pytest.approx(32.0)

    def test_pad_columns_cannot_win_pooling(self):
        ps = ParameterSet()
        heads = ccn_head(ps, 1, 1, weight=[1.0], bias=0.0)
        ctx = Tensor(np.array([[[-1.0, 0.0], [-1.0, 0.0]]]))  # second column is padding
        resp = Tensor(np.array([[[1.0], [1.0]]]))
        score = cross_convolution(ctx, resp, 1, heads, [1], [1])
        assert score.item() == pytest.approx(-2.0)  # not the 0.0 of the pad column

    def test_invariant_to_permuting_pad_columns(self):
        rng = np.random.default_rng(13)
        ps = ParameterSet()
        heads = ccn_head(ps, 2, 3, weight=rng.normal(size=6), bias=0.1)
        ctx = rng.normal(size=(1, 4, 6))
        ctx[..., 4:] = 0.0
        resp = Tensor(rng.normal(size=(1, 4, 3)))
        base = cross_convolution(Tensor(ctx), resp, 2, heads, [4], [3])
        permuted = ctx.copy()
        permuted[..., [4, 5]] = permuted[..., [5, 4]]
        swapped = cross_convolution(Tensor(permuted), resp, 2, heads, [4], [3])
        assert base.item() == swapped.item()

    def test_k_below_one_rejected_k_beyond_the_context_pools_every_column(self):
        with pytest.raises(ContractError):
            cross_convolution(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 2, 2))), 0,
                              ccn_head(ParameterSet(), 4, 2), [3], [2])
        # k=4 over a 3-column context scores as the context padded to 4 masked columns
        rng = np.random.default_rng(16)
        ctx, resp, weight = rng.normal(size=(1, 2, 3)), Tensor(rng.normal(size=(1, 2, 2))), rng.normal(size=8)
        scores = [cross_convolution(Tensor(c), resp, 4, ccn_head(ParameterSet(), 4, 2, weight=weight), [3], [2]).item()
                  for c in (ctx, np.pad(ctx, ((0, 0), (0, 0), (0, 1)), constant_values=9.0))]
        assert scores[0] == scores[1]

    def test_parallel_head(self):
        ps = ParameterSet()
        heads = [(ps.add("w1", np.zeros(2)), ps.add("b1", np.zeros(1))),
                 (ps.add("w2", np.zeros(2)), ps.add("b2", np.full(1, 0.25)))]
        ctx = Tensor(np.zeros((1, 2, 2)))
        resp = Tensor(np.zeros((1, 2, 2)))
        score = cross_convolution(ctx, resp, 1, heads, [2], [2])
        # sigmoid(first head's 0) + second head's bias
        assert score.item() == pytest.approx(0.75)
        with pytest.raises(ContractError):
            cross_convolution(ctx, resp, 1, heads * 2, [2], [2])

    def test_response_wider_than_the_head_rejected(self):
        heads = ccn_head(ParameterSet(), 2, 2, weight=np.zeros(4))
        with pytest.raises(ShapeError):
            cross_convolution(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 2, 3))), 2, heads, [3], [3])

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("batched", [True, False])
    def test_trimmed_inputs_match_inputs_padded_to_the_head(self, k, batched):
        # trimmed: the longest true lengths (context 4, response 3); padded: L = 6 columns each
        rng = np.random.default_rng(15)
        length = 6
        ctx_len, resp_len = np.array([4, 2, 3]), np.array([3, 0, 1])
        ctx = rng.normal(size=(3, 5, length))
        resp = rng.normal(size=(3, 5, length))
        for i in range(3):
            ctx[i, :, ctx_len[i]:] = 0.0
            resp[i, :, resp_len[i]:] = 0.0
        if not batched:  # a lone pair: a one-row batch
            ctx, resp, ctx_len, resp_len = ctx[:1], resp[:1], ctx_len[:1], resp_len[:1]
        weight = rng.normal(size=k * length)
        results = []
        for ctx_cols, resp_cols in ((4, 3), (length, length)):
            ps = ParameterSet()
            heads = ccn_head(ps, k, length, weight=weight, bias=0.3)
            c = ps.add("ctx", ctx[..., :ctx_cols].copy())
            r = ps.add("resp", resp[..., :resp_cols].copy())
            score = cross_convolution(c, r, k, heads, ctx_len, resp_len)
            backward(nm.tsum(nm.sigmoid(score)))
            (w, b), = heads
            results.append((score.data, c.grad, r.grad, w.grad, b.grad))
        (s_t, dc_t, dr_t, dw_t, db_t), (s_p, dc_p, dr_p, dw_p, db_p) = results
        np.testing.assert_array_equal(s_t, s_p)
        np.testing.assert_array_equal(dw_t, dw_p)  # d weight = pooled values: the same, tail included
        assert not dw_t[3 * k :].any()  # slots beyond the trimmed response pooled exact zeros
        np.testing.assert_array_equal(db_t, db_p)
        np.testing.assert_allclose(dc_t, dc_p[..., :4], rtol=1e-13, atol=0)
        np.testing.assert_allclose(dr_t, dr_p[..., :3], rtol=1e-13, atol=0)
        assert not dc_p[..., 4:].any() and not dr_p[..., 3:].any()

    def test_full_gradient_small_shapes(self):
        rng = np.random.default_rng(14)
        ps = ParameterSet()
        heads = [(ps.add("w", rng.normal(size=8)), ps.add("b", rng.normal(size=1)))]
        ctx = ps.add("ctx", rng.normal(size=(2, 3, 5)))
        resp = ps.add("resp", rng.normal(size=(2, 3, 4)))
        lengths = np.array([5, 3])

        def loss():
            return nm.tsum(nm.sigmoid(cross_convolution(ctx, resp, 2, heads, lengths, [4, 4])))

        report = finite_diff_check(loss, ps, max_coords_per_param=20)
        assert report.passed, report
        heads.append((ps.add("w2", rng.normal(size=8)), ps.add("b2", rng.normal(size=1))))  # parallel
        report = finite_diff_check(loss, ps, max_coords_per_param=20)
        assert report.passed and "w2" in report.errors_by_parameter, report


class TestBatchesOnly:
    """A lone sequence is a one-row batch; unbatched inputs are shape errors."""

    def test_unbatched_inputs_rejected(self):
        rng = np.random.default_rng(16)
        lstm, ps = make_lstm(3, 2, rng)
        with pytest.raises(ShapeError):
            lstm_encode(Tensor(np.zeros((3, 4))), np.array([4]), *lstm)
        with pytest.raises(ShapeError):
            bilinear_score(Tensor(np.zeros(2)), Tensor(np.zeros(2)), ps.add("m", np.eye(2)))
        with pytest.raises(ShapeError):
            dense_score(Tensor(np.zeros(2)), ps.add("d", np.zeros(2)))
        with pytest.raises(ShapeError):
            cross_convolution(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))), 1, ccn_head(ps, 1, 2), [3], [2])


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

    def test_value_beyond_dtype_names_word_and_dtype(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("alpha 1.0 2.0\nbeta 1e39 2.0\n")
        assert load_word_vectors(path, dim=2)["beta"][0] == 1e39
        with pytest.raises(ContractError, match=f"{re.escape(str(path))}: line 2: vector for 'beta' overflows float32"):
            load_word_vectors(path, dim=2, dtype=np.float32)

    def test_apply_rejects_vector_beyond_table_dtype(self):
        class FakeVocab:
            word_to_id = {"alpha": 1}

        matrix = init_embedding_matrix(2, 2, np.random.default_rng(0)).astype(np.float32)
        with pytest.raises(ContractError, match="pretrained vector for 'alpha' overflows the table's float32"):
            apply_pretrained(matrix, FakeVocab(), {"alpha": np.array([1e39, 0.0])})

    @pytest.mark.parametrize("value,problem", [("abc", "'abc'"), ("nan", "non-finite"),
                                               ("-inf", "non-finite"), ("1e999", "non-finite")])
    def test_bad_value_names_file_and_line(self, tmp_path, value, problem):
        path = tmp_path / "vectors.txt"
        path.write_text(f"alpha 1.0 2.0\nbeta 3.0 {value}\n")
        with pytest.raises(ContractError, match=f"{re.escape(str(path))}: line 2: .*{problem}"):
            load_word_vectors(path, dim=2)
