"""Autograd correctness tests: analytic gradients vs finite differences."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, concatenate, no_grad, stack, tensor


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x.copy())
        flat[i] = original - eps
        minus = fn(x.copy())
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build, shape, seed=0, atol=1e-4):
    """Compare autograd gradient with a finite-difference estimate."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(shape)

    t = Tensor(x0, requires_grad=True)
    out = build(t)
    out.backward()
    analytic = t.grad

    numeric = numerical_gradient(lambda arr: build(Tensor(arr, requires_grad=False)).item(), x0)
    assert analytic is not None
    np.testing.assert_allclose(analytic, numeric, atol=atol)


class TestBasicOps:
    def test_add_gradient(self):
        check_gradient(lambda t: (t + 3.0).sum(), (4, 3))

    def test_mul_gradient(self):
        check_gradient(lambda t: (t * t).sum(), (3, 2))

    def test_sub_and_neg_gradient(self):
        check_gradient(lambda t: (5.0 - t).sum(), (6,))

    def test_div_gradient(self):
        check_gradient(lambda t: (t / 2.5).sum(), (2, 3))

    def test_pow_gradient(self):
        check_gradient(lambda t: ((t * t + 1.0) ** 0.5).sum(), (5,))

    def test_matmul_gradient(self):
        rng = np.random.default_rng(1)
        other = rng.standard_normal((3, 2))
        check_gradient(lambda t: (t @ Tensor(other)).sum(), (4, 3))

    def test_matmul_gradient_right_operand(self):
        rng = np.random.default_rng(2)
        left = rng.standard_normal((2, 4))
        check_gradient(lambda t: (Tensor(left) @ t).sum(), (4, 3))

    def test_broadcast_add_gradient(self):
        rng = np.random.default_rng(3)
        bias = rng.standard_normal((3,))
        check_gradient(lambda t: (t + Tensor(bias)).sum(), (5, 3))

    def test_radd_and_rmul(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = (3.0 + t) * 2.0
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 2.0])


class TestReductionsAndShape:
    def test_mean_gradient(self):
        check_gradient(lambda t: t.mean(), (4, 5))

    def test_sum_axis_gradient(self):
        check_gradient(lambda t: (t.sum(axis=0) * Tensor([1.0, 2.0, 3.0])).sum(), (4, 3))

    def test_max_gradient(self):
        # Use distinct values so the max is unique and differentiable.
        x = np.arange(6, dtype=np.float64).reshape(2, 3)
        t = Tensor(x, requires_grad=True)
        t.max().backward()
        expected = np.zeros((2, 3))
        expected[1, 2] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_reshape_gradient(self):
        check_gradient(lambda t: (t.reshape(6) * Tensor(np.arange(6.0))).sum(), (2, 3))

    def test_transpose_gradient(self):
        check_gradient(lambda t: (t.transpose() @ Tensor(np.ones((2, 1)))).sum(), (2, 3))

    def test_transpose_with_negative_axes_gradient(self):
        weights = Tensor(np.arange(24.0).reshape(2, 4, 3))
        check_gradient(lambda t: (t.transpose(0, -1, 1) * weights).sum(), (2, 3, 4))

    def test_getitem_gradient(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = Tensor(x, requires_grad=True)
        t[0, 1].backward()
        np.testing.assert_allclose(t.grad, [[0.0, 1.0], [0.0, 0.0]])

    def test_slice_gradient(self):
        check_gradient(lambda t: t[1:, :2].sum(), (3, 4))


class TestNonlinearities:
    def test_tanh_gradient(self):
        check_gradient(lambda t: t.tanh().sum(), (3, 3))

    def test_sigmoid_gradient(self):
        check_gradient(lambda t: t.sigmoid().sum(), (7,))

    def test_relu_gradient(self):
        # Offset from zero so the kink is not sampled.
        check_gradient(lambda t: (t + 10.0).relu().sum(), (4,))

    def test_exp_log_gradient(self):
        check_gradient(lambda t: ((t * 0.1).exp() + 2.0).log().sum(), (5,))

    def test_softmax_rows_sum_to_one(self):
        t = Tensor(np.random.default_rng(0).standard_normal((4, 6)))
        out = t.softmax(axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_softmax_gradient(self):
        weights = np.random.default_rng(4).standard_normal((3,))
        check_gradient(lambda t: (t.softmax(axis=-1) * Tensor(weights)).sum(), (3,))

    def test_clip_gradient_inside_range(self):
        t = Tensor(np.array([0.5, -0.2]), requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [1.0, 1.0])

    def test_clip_gradient_outside_range(self):
        t = Tensor(np.array([5.0, -7.0]), requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 0.0])


class TestGraphMechanics:
    def test_gradient_accumulates_on_reuse(self):
        t = Tensor([2.0], requires_grad=True)
        out = t * t + t * 3.0
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [2 * 2.0 + 3.0])

    def test_no_grad_blocks_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad

    def test_backward_requires_scalar_without_grad_argument(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        t = Tensor([1.0])
        with pytest.raises(RuntimeError):
            t.backward()

    def test_detach_stops_gradients(self):
        t = Tensor([3.0], requires_grad=True)
        out = t.detach() * 2.0
        assert not out.requires_grad

    def test_tensor_constructor_helper(self):
        t = tensor([1, 2, 3], requires_grad=True)
        assert t.requires_grad
        assert t.shape == (3,)


class TestConcatenateAndStack:
    def test_concatenate_values_and_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((3, 2), 2.0), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((3, 2), 2.0))

    def test_stack_values_and_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])
