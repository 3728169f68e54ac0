"""Unit tests for Tensor arithmetic, reductions, shape ops, and autograd
bookkeeping (no_grad, detach, gradient accumulation, broadcasting)."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad
from repro.tensor.tensor import is_grad_enabled


class TestConstruction:
    def test_float_data_becomes_float32(self):
        t = Tensor([1.0, 2.0])
        assert t.dtype == np.float32

    def test_int_data_stays_int(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype.kind == "i"

    def test_explicit_dtype_respected(self):
        t = Tensor([1.0], dtype=np.float64)
        assert t.dtype == np.float64

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24

    def test_item_on_scalar(self):
        assert Tensor(np.array(3.5)).item() == pytest.approx(3.5)

    def test_len(self):
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_constructors(self):
        assert Tensor.zeros(2, 3).data.sum() == 0
        assert Tensor.ones(2, 3).data.sum() == 6


class TestElementwise:
    def test_add(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        assert np.allclose((a + b).data, [4, 6])

    def test_add_scalar(self):
        assert np.allclose((Tensor([1.0]) + 2).data, [3])
        assert np.allclose((2 + Tensor([1.0])).data, [3])

    def test_sub(self):
        assert np.allclose((Tensor([5.0]) - Tensor([2.0])).data, [3])
        assert np.allclose((10 - Tensor([4.0])).data, [6])

    def test_mul_div(self):
        assert np.allclose((Tensor([3.0]) * Tensor([4.0])).data, [12])
        assert np.allclose((Tensor([8.0]) / Tensor([2.0])).data, [4])
        assert np.allclose((1 / Tensor([4.0])).data, [0.25])

    def test_neg_pow(self):
        assert np.allclose((-Tensor([2.0])).data, [-2])
        assert np.allclose((Tensor([3.0]) ** 2).data, [9])

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_exp_log_roundtrip(self):
        x = Tensor([0.5, 1.0, 2.0])
        assert np.allclose(x.exp().log().data, x.data, atol=1e-5)

    def test_sqrt(self):
        assert np.allclose(Tensor([4.0, 9.0]).sqrt().data, [2, 3])

    def test_tanh_sigmoid_range(self):
        x = Tensor(np.linspace(-10, 10, 50))
        assert np.all(np.abs(x.tanh().data) <= 1.0)
        s = x.sigmoid().data
        assert np.all((s >= 0) & (s <= 1))

    def test_sigmoid_extreme_values_stable(self):
        s = Tensor([-1000.0, 1000.0]).sigmoid().data
        assert np.allclose(s, [0.0, 1.0])
        assert np.all(np.isfinite(s))

    def test_relu(self):
        assert np.allclose(Tensor([-1.0, 0.0, 2.0]).relu().data, [0, 0, 2])

    def test_abs_clip(self):
        assert np.allclose(Tensor([-3.0, 2.0]).abs().data, [3, 2])
        assert np.allclose(Tensor([-3.0, 0.5, 2.0]).clip(-1, 1).data, [-1, 0.5, 1])

    def test_maximum(self):
        out = Tensor([1.0, 5.0]).maximum(Tensor([3.0, 2.0]))
        assert np.allclose(out.data, [3, 5])

    def test_comparison_ops_not_differentiable(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        assert not (a > 1.5).requires_grad
        assert not (a < 1.5).requires_grad


class TestBroadcastingGradients:
    def test_add_broadcast_unbroadcasts_grad(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_mul_broadcast_scalar_like(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.array([[2.0]]), requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(b.grad, [[4.0]])

    def test_prepended_axis_broadcast(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        b = Tensor(np.ones((3, 4)), requires_grad=True)
        (a * b).sum().backward()
        assert b.grad.shape == (3, 4)
        assert np.allclose(b.grad, 2.0)


class TestReductions:
    def test_sum_all(self):
        assert Tensor(np.arange(6.0)).sum().item() == 15

    def test_sum_axis_keepdims(self):
        t = Tensor(np.ones((2, 3)))
        assert t.sum(axis=0).shape == (3,)
        assert t.sum(axis=0, keepdims=True).shape == (1, 3)

    def test_mean(self):
        assert Tensor([2.0, 4.0]).mean().item() == 3

    def test_mean_axis(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.allclose(t.mean(axis=1).data, [1, 4])

    def test_max(self):
        t = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))
        assert t.max().item() == 5
        assert np.allclose(t.max(axis=1).data, [5, 3])

    def test_max_grad_routes_to_argmax(self):
        t = Tensor(np.array([1.0, 5.0, 3.0]), requires_grad=True)
        t.max().backward()
        assert np.allclose(t.grad, [0, 1, 0])

    def test_max_grad_splits_ties(self):
        t = Tensor(np.array([5.0, 5.0]), requires_grad=True)
        t.max().backward()
        assert np.allclose(t.grad, [0.5, 0.5])

    def test_var(self):
        x = np.random.randn(10).astype(np.float32)
        assert Tensor(x).var().item() == pytest.approx(x.var(), rel=1e-4)

    def test_sum_grad_is_ones(self):
        t = Tensor(np.zeros((3, 2)), requires_grad=True)
        t.sum().backward()
        assert np.allclose(t.grad, 1.0)

    def test_mean_grad_is_uniform(self):
        t = Tensor(np.zeros(4), requires_grad=True)
        t.mean().backward()
        assert np.allclose(t.grad, 0.25)


class TestShapeOps:
    def test_reshape_roundtrip(self):
        t = Tensor(np.arange(12.0), requires_grad=True)
        out = t.reshape(3, 4).reshape(-1)
        out.sum().backward()
        assert t.grad.shape == (12,)

    def test_reshape_tuple_arg(self):
        assert Tensor(np.zeros(6)).reshape((2, 3)).shape == (2, 3)

    def test_transpose_default_reverses(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.transpose().shape == (4, 3, 2)

    def test_transpose_axes(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.transpose(1, 0, 2).shape == (3, 2, 4)

    def test_transpose_grad_inverse_permutation(self):
        t = Tensor(np.random.randn(2, 3, 4), requires_grad=True)
        t.transpose(2, 0, 1).sum().backward()
        assert t.grad.shape == (2, 3, 4)

    def test_T_property(self):
        assert Tensor(np.zeros((2, 5))).T.shape == (5, 2)

    def test_swapaxes(self):
        assert Tensor(np.zeros((2, 3, 4))).swapaxes(0, 2).shape == (4, 3, 2)

    def test_getitem_and_grad(self):
        t = Tensor(np.arange(10.0), requires_grad=True)
        t[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1
        assert np.allclose(t.grad, expected)

    def test_getitem_duplicate_index_accumulates(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        idx = np.array([0, 0, 1])
        t[idx].sum().backward()
        assert np.allclose(t.grad, [2, 1, 0])

    def test_pad(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        out = t.pad(((1, 1), (1, 1)))
        assert out.shape == (4, 4)
        out.sum().backward()
        assert np.allclose(t.grad, 1.0)

    def test_concat(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.zeros((3, 2)), requires_grad=True)
        out = Tensor.concat([a, b], axis=0)
        assert out.shape == (5, 2)
        out.sum().backward()
        assert np.allclose(a.grad, 1) and np.allclose(b.grad, 1)


class TestMatmul:
    def test_2d(self):
        a = np.random.randn(3, 4).astype(np.float32)
        b = np.random.randn(4, 5).astype(np.float32)
        assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b, atol=1e-5)

    def test_batched(self):
        a = np.random.randn(2, 3, 4).astype(np.float32)
        b = np.random.randn(2, 4, 5).astype(np.float32)
        assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b, atol=1e-5)

    def test_batched_broadcast_grad(self):
        a = Tensor(np.random.randn(2, 3, 4), requires_grad=True)
        b = Tensor(np.random.randn(4, 5), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (4, 5)

    def test_grad_values_2d(self):
        a = Tensor(np.random.randn(3, 4), requires_grad=True)
        b = Tensor(np.random.randn(4, 2), requires_grad=True)
        (a @ b).sum().backward()
        assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T, atol=1e-5)
        assert np.allclose(b.grad, a.data.T @ np.ones((3, 2)), atol=1e-5)


class TestAutogradMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_with_explicit_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 2).backward(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        assert np.allclose(t.grad, [2, 4, 6])

    def test_grad_accumulates_across_backwards(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2).sum().backward()
        (t * 3).sum().backward()
        assert np.allclose(t.grad, [5, 5])

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_no_grad_disables_graph(self):
        t = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            out = t * 2
        assert not out.requires_grad
        assert out._node is None

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_detach_cuts_graph(self):
        t = Tensor(np.ones(2), requires_grad=True)
        d = (t * 2).detach()
        assert not d.requires_grad
        (d * 3).sum()  # must not raise nor leak to t
        assert t.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        # y = x*2; z = y + y -> dz/dx = 4
        x = Tensor(np.ones(1), requires_grad=True)
        y = x * 2
        z = (y + y).sum()
        z.backward()
        assert np.allclose(x.grad, [4])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.ones(1), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1
        y.sum().backward()
        assert np.allclose(x.grad, [1])

    def test_shared_subexpression(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x  # dy/dx = 2x = 4
        y.sum().backward()
        assert np.allclose(x.grad, [4])

    def test_non_requires_grad_input_gets_no_grad(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2))
        (a * b).sum().backward()
        assert b.grad is None
