"""``functional.linear``: one fused node for ``x @ W.T + b``.

The fused node must be the composite's arithmetic GEMM for GEMM on 2-D
inputs (bit-for-bit on the ``numpy`` backend), stay within the published
tolerance when N-D inputs collapse into one flattened GEMM, record the same
MACs, and skip the gradient of an operand that does not ask for one.
"""

import numpy as np
import pytest

from repro.core import LowRankLinear
from repro.distributed import GradientArrivalRecorder
from repro.models import MLP
from repro.nn import CrossEntropyLoss, Linear
from repro.tensor import (
    Tensor,
    backend,
    check_gradients,
    count_macs,
    graph_nodes_created,
    linear,
)
from repro.tensor.backend import TOLERANCE_ATOL, TOLERANCE_RTOL


def _tensors(rng, x_shape, out_features, x_grad=True, bias=True):
    in_features = x_shape[-1]
    x = Tensor(rng.standard_normal(x_shape).astype(np.float32), requires_grad=x_grad)
    w = Tensor(
        rng.standard_normal((out_features, in_features)).astype(np.float32),
        requires_grad=True,
    )
    b = None
    if bias:
        b = Tensor(rng.standard_normal((out_features,)).astype(np.float32), requires_grad=True)
    return x, w, b


def _composite(x, w, b):
    out = x @ w.T
    return out if b is None else out + b


def _run(fn, x, w, b, g):
    for t in (x, w, b):
        if t is not None:
            t.grad = None
    out = fn(x, w, b)
    out.backward(g)
    return [out.data, w.grad, None if b is None else b.grad, x.grad]


class TestMatchesComposite:
    @pytest.mark.parametrize(
        "batch,in_features,out_features",
        [(1, 1, 1), (4, 7, 3), (32, 64, 16), (8, 300, 50), (3, 5, 1)],
    )
    @pytest.mark.parametrize("bias", [True, False])
    def test_2d_bit_for_bit_on_numpy(self, rng, batch, in_features, out_features, bias):
        x, w, b = _tensors(rng, (batch, in_features), out_features, bias=bias)
        g = rng.standard_normal((batch, out_features)).astype(np.float32)
        with backend.use("numpy"):
            ref = _run(_composite, x, w, b, g)
            got = _run(linear, x, w, b, g)
        for name, r, o in zip(("out", "gW", "gb", "gx"), ref, got):
            if r is None:
                assert o is None
                continue
            assert r.shape == o.shape and r.dtype == o.dtype, name
            assert r.tobytes() == o.tobytes(), f"{name} differs from the composite"

    def test_1d_input(self, rng):
        # The composite cannot differentiate a 1-D left operand; check the
        # closed form instead.
        x, w, b = _tensors(rng, (7,), 5)
        g = rng.standard_normal((5,)).astype(np.float32)
        out, gw, gb, gx = _run(linear, x, w, b, g)
        np.testing.assert_allclose(out, w.data @ x.data + b.data, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(gw, np.outer(g, x.data), rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(gx, g @ w.data, rtol=1e-5, atol=1e-6)
        assert np.array_equal(gb, g)

    @pytest.mark.parametrize("x_shape", [(2, 5, 7), (2, 3, 4, 6)])
    def test_nd_within_tolerance(self, rng, x_shape):
        x, w, b = _tensors(rng, x_shape, 5)
        g = rng.standard_normal(x_shape[:-1] + (5,)).astype(np.float32)
        ref = _run(_composite, x, w, b, g)
        got = _run(linear, x, w, b, g)
        for r, o in zip(ref, got):
            assert r.shape == o.shape
            np.testing.assert_allclose(o, r, rtol=TOLERANCE_RTOL, atol=TOLERANCE_ATOL)

    @pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)])
    def test_grad_check(self, rng, x_shape):
        x, w, b = _tensors(rng, x_shape, 2)
        mix = Tensor(rng.standard_normal(x_shape[:-1] + (2,)).astype(np.float32))
        check_gradients(lambda: (linear(x, w, b) * mix).sum(), [x, w, b])

    def test_macs_equal_the_composite(self, rng):
        x, w, b = _tensors(rng, (2, 5, 7), 3)
        with count_macs() as fused:
            linear(x, w, b)
        with count_macs() as composite:
            _composite(x, w, b)
        assert fused.total == composite.total == 2 * 5 * 7 * 3


class _CountingArray(np.ndarray):
    """Counts the ufunc calls (``@`` is ``np.matmul``) it takes part in."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _CountingArray.calls += 1
        plain = [np.asarray(i) if isinstance(i, np.ndarray) else i for i in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


class TestNeedAwareBackward:
    @pytest.mark.parametrize("x_grad,gemms", [(False, 1), (True, 2)])
    def test_linear_skips_input_gradient_for_data(self, rng, x_grad, gemms):
        x, w, b = _tensors(rng, (4, 6), 3, x_grad=x_grad)
        # The weight takes part in the forward GEMM and in ``g @ W`` only.
        w.data = w.data.view(_CountingArray)
        _CountingArray.calls = 0
        linear(x, w, b).sum().backward()
        assert _CountingArray.calls == gemms
        assert (x.grad is not None) == x_grad
        assert w.grad.shape == w.shape and b.grad.shape == b.shape

    @pytest.mark.parametrize("a_grad,b_grad", [(True, False), (False, True), (True, True)])
    def test_matmul_skips_operand_without_grad(self, rng, a_grad, b_grad):
        a = Tensor(rng.standard_normal((4, 6)).astype(np.float32), requires_grad=a_grad)
        b = Tensor(rng.standard_normal((6, 3)).astype(np.float32), requires_grad=b_grad)
        # Operand ``a`` is an input of the forward GEMM and of ``a.T @ g``;
        # ``g @ b.T`` must not run unless ``a`` asked for a gradient.
        b.data = b.data.view(_CountingArray)
        _CountingArray.calls = 0
        (a @ b).sum().backward()
        assert _CountingArray.calls == 1 + int(a_grad)
        assert (a.grad is not None) == a_grad and (b.grad is not None) == b_grad

    def test_elementwise_ops_skip_constant_operands(self, rng):
        x = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 4)).astype(np.float32) + 3.0)
        for out in (x * c, x / c, c / x, x.maximum(c), c.maximum(x)):
            x.grad = None
            out.sum().backward()
            assert x.grad is not None and c.grad is None


class TestNodeCounts:
    def _nodes(self, module, x):
        before = graph_nodes_created()
        module(x)
        return graph_nodes_created() - before

    def test_linear_is_one_node(self, rng):
        x = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        assert self._nodes(Linear(6, 3), x) == 1
        assert self._nodes(Linear(6, 3, bias=False), x) == 1
        assert self._nodes(Linear(6, 3, activation="relu"), x) == 2

    def test_lowrank_linear_is_two_nodes(self, rng):
        x = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        assert self._nodes(LowRankLinear(6, 3, rank=2), x) == 2

    def test_lowrank_linear_matches_effective_weight(self, rng):
        layer = LowRankLinear(6, 3, rank=2)
        x = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        expected = x.data @ layer.effective_weight().T + layer.bias.data
        np.testing.assert_allclose(layer(x).data, expected, rtol=1e-5, atol=1e-6)


def test_arrival_recorder_sees_leaves_in_reverse_layer_order(rng):
    model = MLP(12, [8, 8, 6], 4)
    params = list(model.parameters())
    x = Tensor(rng.standard_normal((5, 12)).astype(np.float32))
    y = rng.integers(0, 4, size=5)
    with GradientArrivalRecorder(params) as rec:
        CrossEntropyLoss()(model(x), y).backward()
    arrivals = rec.arrival_times()
    # Parameters come in (weight, bias) pairs per layer, first layer first.
    per_layer = [max(arrivals[i], arrivals[i + 1]) for i in range(0, len(params), 2)]
    first_of_layer = [min(arrivals[i], arrivals[i + 1]) for i in range(0, len(params), 2)]
    for later, earlier in zip(per_layer[1:], first_of_layer[:-1]):
        assert later <= earlier, "a later layer's gradient arrived after an earlier layer's"
