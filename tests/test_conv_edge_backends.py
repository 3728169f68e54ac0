"""Conv edge cases exercised under every backend.

Each case is checked two ways: against a direct-loop reference (gold
standard for correctness) where practical, and parity-asserted between
the numpy reference backend and each alternative backend (the contract
`tests/test_backend_parity.py` establishes op-by-op, here at the edges:
stride>1 with asymmetric padding, the 1×1 fast path, non-contiguous
inputs, empty batches, and the corners of the gather + GEMM input gradient).
"""

import numpy as np
import pytest

from repro.tensor import Tensor, backend, conv2d
from repro.tensor.backend import _SCRATCH, TOLERANCE_ATOL, TOLERANCE_RTOL

BACKENDS = backend.available()
NON_REF = [n for n in BACKENDS if n != "numpy"]


def naive_conv2d(x, w, b, stride, pad_h, pad_w):
    """Direct-loop reference convolution with per-axis padding."""
    n, c_in, h, wid = x.shape
    c_out, _, kh, kw = w.shape
    if pad_h or pad_w:
        x = np.pad(x, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    oh = (x.shape[2] - kh) // stride + 1
    ow = (x.shape[3] - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow), dtype=np.float64)
    for ni in range(n):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = x[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[ni, co, i, j] = (patch * w[co]).sum()
            if b is not None:
                out[ni, co] += b[co]
    return out.astype(np.float32)


def run_conv(name, x_np, w_np, b_np, stride, padding, g_np=None):
    with backend.use(name):
        x = Tensor(x_np, requires_grad=True)
        w = Tensor(w_np.copy(), requires_grad=True)
        b = Tensor(b_np.copy(), requires_grad=True) if b_np is not None else None
        out = conv2d(x, w, b, stride=stride, padding=padding)
        if g_np is not None:
            out.backward(g_np)
        return out.data, x.grad, w.grad, None if b is None else b.grad


def assert_close(ref, got):
    np.testing.assert_allclose(got, ref, rtol=TOLERANCE_RTOL, atol=TOLERANCE_ATOL)


@pytest.mark.parametrize("name", BACKENDS)
class TestAsymmetricPadding:
    @pytest.mark.parametrize("stride,padding", [(2, (2, 1)), (2, (0, 2)), (3, (1, 0))])
    def test_matches_naive(self, name, rng, stride, padding):
        x = rng.standard_normal((2, 3, 11, 9)).astype(np.float32)
        w = (rng.standard_normal((4, 3, 3, 3)) * 0.2).astype(np.float32)
        b = rng.standard_normal((4,)).astype(np.float32)
        ref = naive_conv2d(x, w, b, stride, *padding)
        out, *_ = run_conv(name, x, w, b, stride, padding)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-4)

    def test_int_padding_equals_symmetric_tuple(self, name, rng):
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        as_int, *_ = run_conv(name, x, w, None, 1, 1)
        as_tuple, *_ = run_conv(name, x, w, None, 1, (1, 1))
        assert np.array_equal(as_int, as_tuple)


@pytest.mark.parametrize("name", NON_REF)
class TestEdgeParity:
    def test_stride_asymmetric_padding_grads(self, name, rng):
        x = rng.standard_normal((2, 3, 11, 9)).astype(np.float32)
        w = (rng.standard_normal((4, 3, 3, 3)) * 0.2).astype(np.float32)
        b = rng.standard_normal((4,)).astype(np.float32)
        ref_out = run_conv("numpy", x, w, b, 2, (2, 1))[0]
        g = rng.standard_normal(ref_out.shape).astype(np.float32)
        ref = run_conv("numpy", x, w, b, 2, (2, 1), g)
        got = run_conv(name, x, w, b, 2, (2, 1), g)
        for r, o in zip(ref, got):
            assert_close(r, o)

    def test_1x1_fast_path(self, name, rng):
        """k=1, s=1, p=0 — the Pufferfish factorized V-factor hot path —
        takes a dedicated branch in every backend."""
        x = rng.standard_normal((3, 5, 6, 7)).astype(np.float32)
        w = rng.standard_normal((4, 5, 1, 1)).astype(np.float32)
        b = rng.standard_normal((4,)).astype(np.float32)
        ref = naive_conv2d(x, w, b, 1, 0, 0)
        g = rng.standard_normal(ref.shape).astype(np.float32)
        ref_all = run_conv("numpy", x, w, b, 1, 0, g)
        got_all = run_conv(name, x, w, b, 1, 0, g)
        np.testing.assert_allclose(got_all[0], ref, rtol=1e-4, atol=1e-4)
        for r, o in zip(ref_all, got_all):
            assert_close(r, o)

    def test_non_contiguous_input(self, name, rng):
        """Strided views (e.g. a spatially subsampled batch) must conv
        identically to their contiguous copies."""
        base = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
        view = base[:, :, ::2, ::2]
        assert not view.flags["C_CONTIGUOUS"]
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal((4,)).astype(np.float32)
        ref_out = run_conv("numpy", np.ascontiguousarray(view), w, b, 1, 1)[0]
        g = rng.standard_normal(ref_out.shape).astype(np.float32)
        ref = run_conv("numpy", np.ascontiguousarray(view), w, b, 1, 1, g)
        got = run_conv(name, view, w, b, 1, 1, g)
        for r, o in zip(ref, got):
            assert_close(r, o)

    def test_empty_batch(self, name, rng):
        """N=0 must produce an empty output and zero-shaped gradients,
        not crash inside the gather or GEMM."""
        x = np.empty((0, 3, 8, 8), dtype=np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal((4,)).astype(np.float32)
        for be in ("numpy", name):
            out, gx, gw, gb = run_conv(
                be, x, w, b, 1, 1, np.empty((0, 4, 8, 8), dtype=np.float32)
            )
            assert out.shape == (0, 4, 8, 8)
            assert gx.shape == x.shape
            assert np.array_equal(gw, np.zeros_like(w))
            assert np.array_equal(gb, np.zeros_like(b))


# (n, c_in, c_out, h, w, kh, kw, stride, padding) — the corners of the fast
# backend's gather + GEMM input gradient.
INPUT_GRAD_CASES = {
    "one-image-one-channel": (1, 1, 1, 6, 6, 3, 3, 1, 1),
    "one-image": (1, 3, 2, 6, 5, 3, 3, 1, 1),
    "one-channel-in": (3, 1, 2, 6, 5, 3, 3, 1, 1),
    "k1-pad1-border-must-crop": (2, 2, 3, 5, 5, 1, 1, 1, 1),
    "pad-exceeds-k-1": (2, 2, 3, 5, 4, 3, 3, 1, 3),
    "stride2-leftover-rows": (2, 3, 4, 10, 8, 3, 3, 2, 1),  # (h + 2p - k) % s = 1
    "stride2-1x1-shortcut": (2, 4, 8, 8, 8, 1, 1, 2, 0),  # three of four phases see no tap
    "stride3-k2-gap": (1, 2, 2, 11, 9, 2, 2, 3, 0),
    "kh-not-kw": (2, 3, 4, 9, 8, 2, 3, 1, (1, 0)),
    "ph-not-pw": (2, 3, 4, 9, 8, 3, 3, 1, (2, 1)),
    "stride2-kh-not-kw-ph-not-pw": (2, 2, 3, 11, 9, 3, 5, 2, (0, 2)),
    "stem-7x7-stride2": (1, 3, 4, 16, 16, 7, 7, 2, 3),
}


@pytest.mark.parametrize("name", NON_REF)
@pytest.mark.parametrize("case", sorted(INPUT_GRAD_CASES))
class TestInputGradientPath:
    def _run(self, name, case, rng):
        n, c_in, c_out, h, w, kh, kw, stride, padding = INPUT_GRAD_CASES[case]
        ph, pw = padding if isinstance(padding, tuple) else (padding, padding)
        x = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
        wt = (rng.standard_normal((c_out, c_in, kh, kw)) * 0.3).astype(np.float32)
        b = rng.standard_normal((c_out,)).astype(np.float32)
        ref_be, be = backend.get("numpy"), backend.get(name)
        ref_out, ref_ctx = ref_be.conv2d_forward(x, wt, b, stride, ph, pw, True)
        out, ctx = be.conv2d_forward(x, wt, b, stride, ph, pw, True)
        g = rng.standard_normal(ref_out.shape).astype(np.float32)
        ref = ref_be.conv2d_backward(g, ref_ctx, True, True, True)
        got = be.conv2d_backward(g, ctx, True, True, True)
        return g, out, ctx, ref, got

    def test_gx_matches_reference(self, name, case, rng):
        *_, (_, _, ref_gx), (_, _, gx) = self._run(name, case, rng)
        assert gx.shape == ref_gx.shape and gx.dtype == ref_gx.dtype
        assert_close(ref_gx, gx)

    def test_gw_gb_are_the_cached_column_products_bit_for_bit(self, name, case, rng):
        """The input gradient changed route; the other two must not have:
        ``gw`` is still ``gT @ colsT.T`` over the forward's cached columns and
        ``gb`` the row sums of ``gT``, in that orientation, to the bit."""
        g, _, ctx, _, (gw, gb, _) = self._run(name, case, rng)
        if ctx[0] != "gen":
            pytest.skip("the 1x1 stride-1 branch has its own batched products")
        c_out = g.shape[1]
        gT = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(c_out, -1)
        assert gw.tobytes() == (gT @ ctx[1].T).reshape(gw.shape).tobytes()
        assert gb.tobytes() == gT.sum(axis=1).tobytes()

    def test_results_never_alias_pool_scratch(self, name, case, rng):
        """ISSUE 13's col2im bug, for the new route: with one image or one
        channel a transposed copy-out is already contiguous, and
        ``ascontiguousarray`` would hand back a view of pool scratch."""
        _, out, _, _, (gw, gb, gx) = self._run(name, case, rng)
        for arr in (out, gw, gb, gx):
            assert arr.flags.writeable
            assert all(not np.shares_memory(arr, s) for s in _SCRATCH.values())
