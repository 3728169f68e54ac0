"""Per-op parity of every non-reference backend against ``numpy``.

Each dispatched op carries a tag in :data:`repro.tensor.backend.PARITY`:
``bit-exact`` ops must return arrays equal under ``==`` to the reference
(``-0.0`` vs ``+0.0`` tolerated), ``tolerance`` ops must agree within the
published rtol/atol (GEMM orientation changes float summation order).
The same tags drive the parity column of ``benchmarks/test_kernels.py``.
"""

import numpy as np
import pytest

from repro.nn import BatchNorm2d
from repro.tensor import Tensor, backend, bias_relu, conv2d, linear
from repro.tensor.backend import PARITY, TOLERANCE_ATOL, TOLERANCE_RTOL

NON_REF = [n for n in backend.available() if n != "numpy"]

CONV_SHAPES = [
    # (n, c_in, h, w, c_out, k, stride, padding)
    (2, 3, 8, 8, 4, 3, 1, 1),
    (2, 3, 9, 9, 4, 3, 2, 1),
    (1, 2, 7, 5, 3, 3, 2, (2, 1)),
    (2, 4, 6, 6, 5, 1, 1, 0),  # 1×1 fast path
    (1, 3, 5, 5, 2, 5, 1, 2),
]


def assert_parity(op: str, ref: np.ndarray, got: np.ndarray) -> None:
    assert op in PARITY, f"op {op!r} missing a parity tag"
    if PARITY[op] == "bit-exact":
        assert np.array_equal(ref, got), f"{op}: bit-exact parity violated"
    else:
        np.testing.assert_allclose(got, ref, rtol=TOLERANCE_RTOL, atol=TOLERANCE_ATOL)


def run_conv(name, x_np, w_np, b_np, g_np, stride, padding):
    with backend.use(name):
        x = Tensor(x_np.copy(), requires_grad=True)
        w = Tensor(w_np.copy(), requires_grad=True)
        b = Tensor(b_np.copy(), requires_grad=True) if b_np is not None else None
        out = conv2d(x, w, b, stride=stride, padding=padding)
        out.backward(g_np)
        return out.data, x.grad, w.grad, None if b is None else b.grad


@pytest.mark.parametrize("name", NON_REF)
class TestOpParity:
    def test_matmul(self, name, rng):
        for a_shape, b_shape in [((5, 7), (7, 3)), ((2, 4, 6), (6, 5))]:
            a = rng.standard_normal(a_shape).astype(np.float32)
            b = rng.standard_normal(b_shape).astype(np.float32)
            ref = backend.get("numpy").matmul(a, b)
            got = backend.get(name).matmul(a, b)
            assert_parity("matmul", ref, got)

    def test_relu_forward_and_mask(self, name, rng):
        x = rng.standard_normal((64, 33)).astype(np.float32)
        x[0, :4] = [0.0, -0.0, 1.0, -1.0]  # signed-zero edge cases
        ref_out, ref_mask = backend.get("numpy").relu(x)
        got_out, got_mask = backend.get(name).relu(x)
        assert_parity("relu", ref_out, got_out)
        rm = ref_mask if ref_mask is not None else ref_out > 0
        gm = got_mask if got_mask is not None else got_out > 0
        assert np.array_equal(rm, gm), "relu backward masks diverge"

    def test_relu_grads(self, name, rng):
        x_np = rng.standard_normal((8, 5)).astype(np.float32)
        g_np = rng.standard_normal((8, 5)).astype(np.float32)
        grads = {}
        for b in ("numpy", name):
            with backend.use(b):
                x = Tensor(x_np.copy(), requires_grad=True)
                x.relu().backward(g_np)
                grads[b] = x.grad
        assert_parity("relu", grads["numpy"], grads[name])

    def test_bias_relu_matches_unfused(self, name, rng):
        x_np = rng.standard_normal((16, 9)).astype(np.float32)
        b_np = rng.standard_normal((9,)).astype(np.float32)
        g_np = rng.standard_normal((16, 9)).astype(np.float32)
        results = {}
        for b in ("numpy", name):
            with backend.use(b):
                x = Tensor(x_np.copy(), requires_grad=True)
                bias = Tensor(b_np.copy(), requires_grad=True)
                out = bias_relu(x, bias)
                out.backward(g_np)
                results[b] = (out.data, x.grad, bias.grad)
        for ref, got in zip(results["numpy"], results[name]):
            assert_parity("bias_relu", ref, got)
        # The fused node must also agree with the unfused add→relu chain.
        x = Tensor(x_np.copy(), requires_grad=True)
        bias = Tensor(b_np.copy(), requires_grad=True)
        unfused = (x + bias).relu()
        unfused.backward(g_np)
        assert np.array_equal(results["numpy"][0], unfused.data)
        assert np.array_equal(results["numpy"][1], x.grad)
        assert np.array_equal(results["numpy"][2], bias.grad)

    @pytest.mark.parametrize("x_shape", [(16, 9), (2, 5, 9)])
    def test_linear(self, name, rng, x_shape):
        x_np = rng.standard_normal(x_shape).astype(np.float32)
        w_np = rng.standard_normal((6, 9)).astype(np.float32)
        b_np = rng.standard_normal((6,)).astype(np.float32)
        g_np = rng.standard_normal(x_shape[:-1] + (6,)).astype(np.float32)
        results = {}
        for b in ("numpy", name):
            with backend.use(b):
                x = Tensor(x_np.copy(), requires_grad=True)
                w = Tensor(w_np.copy(), requires_grad=True)
                bias = Tensor(b_np.copy(), requires_grad=True)
                out = linear(x, w, bias)
                out.backward(g_np)
                results[b] = (out.data, x.grad, w.grad, bias.grad)
        for ref, got in zip(results["numpy"], results[name]):
            assert_parity("linear", ref, got)

    def test_linear_forward_sweep(self, name):
        """Forward bytes of ``linear`` for every row count 1-130 against
        ragged and round widths, straddling any shape rule a backend uses to
        orient the GEMM; the output stays C-contiguous, so whatever reduces
        over it downstream keeps its order."""
        rng = np.random.default_rng(0)
        widths = [(128, 128), (127, 129), (129, 127), (3072, 130), (64, 512), (512, 64),
                  (200, 333), (5, 7)]
        for rows in range(1, 131):
            for in_f, out_f in widths:
                x = rng.standard_normal((rows, in_f)).astype(np.float32)
                w = rng.standard_normal((out_f, in_f)).astype(np.float32)
                outs = {}
                for b in ("numpy", name):
                    with backend.use(b):
                        outs[b] = linear(Tensor(x), Tensor(w)).data
                assert outs[name].flags.c_contiguous, (rows, in_f, out_f)
                assert outs[name].tobytes() == outs["numpy"].tobytes(), (rows, in_f, out_f)

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_conv2d_forward_backward(self, name, rng, shape):
        n, c_in, h, w, c_out, k, stride, padding = shape
        x_np = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
        w_np = (rng.standard_normal((c_out, c_in, k, k)) * 0.1).astype(np.float32)
        b_np = rng.standard_normal((c_out,)).astype(np.float32)
        ph, pw = padding if isinstance(padding, tuple) else (padding, padding)
        oh = (h + 2 * ph - k) // stride + 1
        ow = (w + 2 * pw - k) // stride + 1
        g_np = rng.standard_normal((n, c_out, oh, ow)).astype(np.float32)

        ref = run_conv("numpy", x_np, w_np, b_np, g_np, stride, padding)
        got = run_conv(name, x_np, w_np, b_np, g_np, stride, padding)
        assert_parity("conv2d_forward", ref[0], got[0])
        for ref_g, got_g in zip(ref[1:], got[1:]):
            assert_parity("conv2d_backward", ref_g, got_g)

    @pytest.mark.parametrize("momentum,nesterov,decay", [
        (0.0, False, 0.0),
        (0.9, False, 5e-4),
        (0.9, True, 5e-4),
    ])
    def test_sgd_update(self, name, rng, momentum, nesterov, decay):
        size = 4096
        flat0 = rng.standard_normal(size).astype(np.float32)
        g0 = rng.standard_normal(size).astype(np.float32)
        buf0 = rng.standard_normal(size).astype(np.float32) if momentum else None
        mask = (rng.random(size) > 0.3).astype(np.float32) * decay if decay else None
        states = {}
        for b in ("numpy", name):
            flat, g = flat0.copy(), g0.copy()
            buf = None if buf0 is None else buf0.copy()
            tmp = np.empty(size, dtype=np.float32)
            backend.get(b).sgd_update(flat, g, tmp, mask, buf, 0.05, momentum, nesterov)
            states[b] = (flat, buf)
        assert_parity("sgd_update", states["numpy"][0], states[name][0])
        if momentum:
            assert_parity("sgd_update", states["numpy"][1], states[name][1])

    @pytest.mark.parametrize("decay,step", [(0.0, 1), (1e-2, 1), (1e-2, 7)])
    def test_adam_update(self, name, rng, decay, step):
        size = 4096
        flat0 = rng.standard_normal(size).astype(np.float32)
        g0 = rng.standard_normal(size).astype(np.float32)
        m0 = (rng.standard_normal(size) * 0.1).astype(np.float32)
        v0 = (rng.random(size) * 0.01).astype(np.float32)
        mask = (rng.random(size) > 0.3).astype(np.float32) * decay if decay else None
        states = {}
        for b in ("numpy", name):
            flat, g, m, v = flat0.copy(), g0.copy(), m0.copy(), v0.copy()
            tmp = np.empty(size, dtype=np.float32)
            backend.get(b).adam_update(flat, g, m, v, tmp, mask, 1e-3, 0.9, 0.999, 1e-8, step)
            states[b] = (flat, m, v)
        for ref, got in zip(states["numpy"], states[name]):
            assert_parity("adam_update", ref, got)

    @pytest.mark.parametrize("decay,step", [(0.0, 1), (1e-2, 5)])
    def test_lamb_update(self, name, rng, decay, step):
        sizes = [7, 1, 640, 33, 2048, 5]
        starts = np.array([0, 7, 8, 648, 681, 2729], dtype=np.intp)
        size = int(sum(sizes))
        flat0 = rng.standard_normal(size).astype(np.float32)
        g0 = rng.standard_normal(size).astype(np.float32)
        m0 = (rng.standard_normal(size) * 0.1).astype(np.float32)
        v0 = (rng.random(size) * 0.01).astype(np.float32)
        mask = (rng.random(size) > 0.3).astype(np.float32) * decay if decay else None
        seg_sizes = np.asarray(sizes, dtype=np.intp)
        states = {}
        for b in ("numpy", name):
            flat, g, m, v = flat0.copy(), g0.copy(), m0.copy(), v0.copy()
            backend.get(b).lamb_update(
                flat, g, m, v, mask, starts, seg_sizes, 1e-3, 0.9, 0.999, 1e-6, step
            )
            states[b] = (flat, m, v)
        for ref, got in zip(states["numpy"], states[name]):
            assert_parity("lamb_update", ref, got)

    @pytest.mark.parametrize("shape,axes", [((8, 5, 6, 7), (0, 2, 3)), ((1, 3, 4, 4), (0, 2, 3)),
                                            ((16, 6), (0,)), ((2, 4, 1, 1), (0, 2, 3))])
    @pytest.mark.parametrize("needs", [(True, True, True), (False, False, True),
                                       (True, False, False), (False, True, True)])
    def test_batch_norm_backward_training(self, name, rng, shape, axes, needs):
        """Every ``requires_grad`` subset: the fused path still reduces both
        sums when only ``gx`` is wanted, and returns ``None`` for the rest."""
        stat_shape = tuple(s if i == 1 else 1 for i, s in enumerate(shape))
        g = rng.standard_normal(shape).astype(np.float32)
        x_hat = rng.standard_normal(shape).astype(np.float32)
        inv_std = (rng.random(stat_shape) + 0.5).astype(np.float32)
        gamma = rng.standard_normal(shape[1]).astype(np.float32)
        ref = backend.get("numpy").batch_norm_backward(g, x_hat, inv_std, gamma, axes, True, *needs)
        got = backend.get(name).batch_norm_backward(g, x_hat, inv_std, gamma, axes, True, *needs)
        for need, r, o in zip(needs, ref, got):
            assert (r is None) == (o is None) == (not need)
            if need:
                assert o.shape == r.shape and o.dtype == r.dtype
                assert_parity("batch_norm_backward", r, o)

    def test_batch_norm_backward_eval_is_the_reference(self, name, rng):
        """Running statistics are constants: nothing to fuse, nothing reordered."""
        g = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)
        x_hat = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)
        inv_std = (rng.random((1, 3, 1, 1)) + 0.5).astype(np.float32)
        gamma = rng.standard_normal(3).astype(np.float32)
        args = (g, x_hat, inv_std, gamma, (0, 2, 3), False, True, True, True)
        for r, o in zip(backend.get("numpy").batch_norm_backward(*args),
                        backend.get(name).batch_norm_backward(*args)):
            assert r.tobytes() == o.tobytes()

    @pytest.mark.parametrize("frozen", [(), ("weight",), ("weight", "bias"), ("x",)])
    def test_batch_norm_module_grads(self, name, rng, frozen):
        x_np = rng.standard_normal((6, 4, 5, 5)).astype(np.float32)
        g_np = rng.standard_normal((6, 4, 5, 5)).astype(np.float32)
        runs = {}
        for b in ("numpy", name):
            with backend.use(b):
                bn = BatchNorm2d(4)
                bn.weight.data[:] = [0.5, -1.0, 2.0, 1.5]
                for attr in ("weight", "bias"):
                    getattr(bn, attr).requires_grad = attr not in frozen
                x = Tensor(x_np.copy(), requires_grad="x" not in frozen)
                out = bn(x)
                out.backward(g_np)
                runs[b] = (out.data, bn.running_mean, bn.running_var,
                           x.grad, bn.weight.grad, bn.bias.grad)
        # Forward (output and running statistics) is not dispatched: same bytes.
        for r, o in zip(runs["numpy"][:3], runs[name][:3]):
            assert r.tobytes() == o.tobytes()
        for r, o in zip(runs["numpy"][3:], runs[name][3:]):
            assert (r is None) == (o is None)
            if r is not None:
                assert_parity("batch_norm_backward", r, o)

    def test_segment_norms(self, name, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        starts = np.array([0, 3, 4, 500], dtype=np.intp)
        sizes = np.array([3, 1, 496, 500], dtype=np.intp)
        ref = backend.get("numpy").segment_norms(x, starts, sizes)
        got = backend.get(name).segment_norms(x, starts, sizes)
        np.testing.assert_allclose(got, ref, rtol=TOLERANCE_RTOL, atol=TOLERANCE_ATOL)


class TestParityContract:
    def test_every_dispatched_op_is_tagged(self):
        assert set(PARITY) == {
            "matmul",
            "linear",
            "relu",
            "bias_relu",
            "conv2d_forward",
            "conv2d_backward",
            "batch_norm_backward",
            "sgd_update",
            "adam_update",
            "lamb_update",
        }
        assert set(PARITY.values()) <= {"bit-exact", "tolerance"}

    def test_registry(self):
        assert "numpy" in backend.available()
        assert "fast" in backend.available()
        with pytest.raises(ValueError, match="unknown backend"):
            backend.get("does-not-exist")

    def test_use_restores_previous(self):
        prev = backend.active()
        with backend.use("fast") as be:
            assert be.name == "fast"
            assert backend.active() is be
            with backend.use("numpy"):
                assert backend.active().name == "numpy"
            assert backend.active().name == "fast"
        assert backend.active() is prev

    def test_use_restores_on_error(self):
        prev = backend.active()
        with pytest.raises(RuntimeError):
            with backend.use("fast"):
                raise RuntimeError("boom")
        assert backend.active() is prev

    def test_set_backend(self):
        prev = backend.active()
        try:
            assert backend.set_backend("fast").name == "fast"
            assert backend.active().name == "fast"
        finally:
            backend.set_backend(prev.name)
