import math

import numpy as np
import pytest

from ccnrank.numerics import (
    ContractError,
    ParameterSet,
    RmsProp,
    ShapeError,
    Tensor,
    add,
    backward,
    custom_op,
    finite_diff_check,
    matmul,
    mean,
    mul,
    narrow,
    no_grad,
    reshape,
    scale,
    sigmoid,
    sub,
    tanh,
    transpose_last,
    tsum,
)


def naive_matmul(a, b):
    """Triple-loop reference used to check the BLAS-backed product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


class TestForwardOps:
    def test_matmul_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        np.testing.assert_array_equal(matmul(a, eye).data, a.data)

    def test_matmul_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(matmul(a, b).data, [[1.0, 2.0], [3.0, 4.0]])

    def test_matmul_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        got = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, naive_matmul(a, b), atol=1e-12)

    def test_matmul_identity_and_zero_laws_exact(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 3)))
        b = Tensor(rng.normal(size=(3, 3)))
        eye = Tensor(np.eye(3))
        zero = Tensor(np.zeros((3, 3)))
        left = matmul(matmul(a, eye), b)
        right = matmul(a, matmul(eye, b))
        np.testing.assert_array_equal(left.data, right.data)
        np.testing.assert_array_equal(matmul(a, zero).data, np.zeros((3, 3)))
        np.testing.assert_array_equal(matmul(zero, a).data, np.zeros((3, 3)))

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(err.value)

    def test_batched_matmul(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 2, 3))
        b = rng.normal(size=(4, 3, 5))
        got = matmul(Tensor(a), Tensor(b)).data
        for i in range(4):
            np.testing.assert_allclose(got[i], a[i] @ b[i], atol=1e-12)

    def test_sigmoid_zero(self):
        assert sigmoid(Tensor(0.0)).item() == 0.5

    def test_tanh_zero(self):
        assert tanh(Tensor(0.0)).item() == 0.0

    def test_add(self):
        out = add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_add_shape_error(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_rank_limit(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2, 2)))

    def test_saturation_stays_finite(self):
        # forward + backward through saturating nonlinearities at |x| <= 50
        for v in (-50.0, -30.0, 30.0, 50.0):
            t = Tensor(np.full(4, v), requires_grad=True)
            out = tsum(mul(sigmoid(t), tanh(t)))
            backward(out)
            assert np.isfinite(out.data).all()
            assert np.isfinite(t.grad).all()


class TestBackward:
    def test_identity_gradient(self):
        w = Tensor(3.0, requires_grad=True)
        backward(tsum(w))
        assert w.grad == pytest.approx(1.0)

    def test_sigmoid_gradient_at_zero(self):
        w = Tensor(0.0, requires_grad=True)
        backward(tsum(sigmoid(w)))
        assert float(w.grad) == pytest.approx(0.25)

    def test_double_backward_doubles(self):
        w = Tensor(0.5, requires_grad=True)
        out = mul(w, w)
        backward(out)
        first = float(w.grad)
        backward(out)
        assert float(w.grad) == pytest.approx(2 * first)

    def test_backward_requires_scalar(self):
        w = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ContractError):
            backward(add(w, w))

    def test_shared_input_accumulates(self):
        # d/dw (w*w) = 2w through the two-parent path
        w = Tensor(3.0, requires_grad=True)
        backward(mul(w, w))
        assert float(w.grad) == pytest.approx(6.0)

    def test_no_grad_suppresses_tape(self):
        w = Tensor(1.0, requires_grad=True)
        with no_grad():
            out = sigmoid(w)
        assert not out.requires_grad


def quadratic_loss(w):
    return tsum(mul(w, w))


class TestFiniteDiffCheck:
    def test_linear_loss_is_exact(self):
        ps = ParameterSet()
        w = ps.add("w", np.array([2.0]))
        report = finite_diff_check(lambda: scale(tsum(w), 3.0), ps)
        assert report.passed
        assert report.max_relative_error < 1e-9

    def test_quadratic_loss(self):
        ps = ParameterSet()
        w = ps.add("w", np.array([1.0]))
        report = finite_diff_check(lambda: quadratic_loss(w), ps, h=1e-6)
        # analytic 2 vs central difference of w^2 at w=1
        assert report.passed
        assert report.max_relative_error < 1e-8

    def test_corrupted_gradient_detected(self):
        ps = ParameterSet()
        w = ps.add("w", np.array([1.0]))

        def square_with_doubled_backward():  # backward gives 4w where d(w^2)/dw is 2w
            x = w.data.copy()
            return tsum(custom_op(x * x, (w,), lambda g: (4.0 * g * x,)))

        report = finite_diff_check(square_with_doubled_backward, ps)
        assert not report.passed
        assert report.max_relative_error == pytest.approx(0.5, abs=1e-5)
        assert report.worst_parameter == "w"

    def test_randomized_composite_ops(self):
        # matmul / narrow / reshape / transpose / sum-axis / pointwise chain
        rng = np.random.default_rng(7)
        for trial in range(5):
            ps = ParameterSet()
            a = ps.add("a", rng.normal(size=(3, 4)))
            b = ps.add("b", rng.normal(size=(4, 5)))
            c = ps.add("c", rng.normal(size=(3, 5)))
            d = ps.add("d", rng.normal(size=(5,)))

            def loss():
                h = matmul(a, b)
                h = add(h, c)
                h = add(h, d)  # row-broadcast bias
                h = tanh(narrow(h, 1, 1, 3))
                h = mul(h, sigmoid(h))
                h = reshape(transpose_last(h), (9,))
                return mean(sub(h, scale(h, 0.25)))

            report = finite_diff_check(loss, ps, seed=trial)
            assert report.passed, report

    def test_sum_axis_gradient(self):
        ps = ParameterSet()
        x = ps.add("x", np.arange(6.0).reshape(2, 3))
        report = finite_diff_check(lambda: tsum(sigmoid(tsum(x, axis=1))), ps)
        assert report.passed


class TestRmsProp:
    def test_zero_gradient_is_identity(self):
        ps = ParameterSet()
        w = ps.add("w", np.array([1.0, -2.0]))
        opt = RmsProp(ps)
        before = w.data.copy()
        opt.step()
        np.testing.assert_array_equal(w.data, before)

    def test_first_step_value(self):
        # derived directly from the update rule at g=1
        lr, rho, eps = 1e-3, 0.9, 1e-6
        expected_delta = lr * 1.0 / math.sqrt((1 - rho) * 1.0 + eps)
        ps = ParameterSet()
        w = ps.add("w", np.array([0.0]))
        w.grad = np.array([1.0])
        opt = RmsProp(ps, learning_rate=lr, epsilon=eps)
        opt.step()
        assert float(w.data[0]) == pytest.approx(-expected_delta, rel=1e-12)
        assert expected_delta == pytest.approx(3.16226e-3, rel=1e-4)
        assert w.grad is None

    def test_accumulator_nonnegative(self):
        rng = np.random.default_rng(3)
        ps = ParameterSet()
        w = ps.add("w", rng.normal(size=(4,)))
        opt = RmsProp(ps)
        for _ in range(10):
            w.grad = rng.normal(size=(4,))
            opt.step()
        assert (opt.accumulators["w"] >= 0).all()


class TestParameterSet:
    def test_duplicate_name_rejected(self):
        ps = ParameterSet()
        ps.add("w", np.zeros(2))
        with pytest.raises(ContractError):
            ps.add("w", np.zeros(2))

    def test_copy_and_load_round_trip(self):
        ps = ParameterSet()
        ps.add("a", np.arange(4.0))
        ps.add("b", np.ones((2, 2)))
        snapshot = ps.copy_values()
        ps["a"].data[:] = 0.0
        ps.load_values(snapshot)
        np.testing.assert_array_equal(ps["a"].data, np.arange(4.0))

    def test_load_shape_mismatch(self):
        ps = ParameterSet()
        ps.add("a", np.zeros(3))
        with pytest.raises(ShapeError):
            ps.load_values({"a": np.zeros(4)})
