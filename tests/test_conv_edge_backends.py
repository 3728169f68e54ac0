"""Conv edge cases exercised under every backend.

Each case is checked two ways: against a direct-loop reference (gold
standard for correctness) where practical, and parity-asserted between
the numpy reference backend and each alternative backend (the contract
`tests/test_backend_parity.py` establishes op-by-op, here at the edges:
stride>1 with asymmetric padding, the 1×1 fast path, non-contiguous
inputs, empty batches, and the corners of the gather + GEMM input gradient).

The last section pins the ``fast`` conv kernels around ``n = 2 * out_w``, the
batch size past which a feature map is narrow enough that the batch axis is the
longer run: the forward to the byte against the column order it has always
used (kept below as ``parent_forward``), the backward against the ``numpy``
reference.  It was recorded before the kernels learnt a second column order,
and is why that order is only taken for whole GEMM tiles of columns: the
forward assertion is the recorded one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import build_hybrid
from repro.models import resnet18, resnet18_hybrid_config, vgg19, vgg19_hybrid_config
from repro.tensor import Tensor, backend, conv2d
from repro.tensor.backend import _SCRATCH, TOLERANCE_ATOL, TOLERANCE_RTOL, conv_grad_atol

from .test_forward_frozen import PLATFORM_CANARY, platform_canary

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
        return x, g, out, ctx, ref, got

    def test_gx_matches_reference(self, name, case, rng):
        *_, (_, _, ref_gx), (_, _, gx) = self._run(name, case, rng)
        assert gx.shape == ref_gx.shape and gx.dtype == ref_gx.dtype
        assert_close(ref_gx, gx)

    def test_gw_gb_are_the_cached_column_products_bit_for_bit(self, name, case, rng):
        """The input gradient has its own route; the other two are products of
        the forward's columns, which the backward gathers again from the input:
        ``gw`` is ``(colsT @ gT.T).T`` and ``gb`` the row sums of ``gT``, to
        the bit.  ``colsT`` is built here from the zero-padded input, rows in
        ``(c, i, j)`` order.  (Every case here is on the batch-outermost side
        of the column-order rule, where the columns and ``gT`` are plain
        ``(·, N·oh·ow)``.)"""
        x, g, _, ctx, _, (gw, gb, _) = self._run(name, case, rng)
        if ctx[0] != "gen":
            pytest.skip("the 1x1 stride-1 branch has its own batched products")
        *_, kh, kw, stride, padding = INPUT_GRAD_CASES[case]
        ph, pw = padding if isinstance(padding, tuple) else (padding, padding)
        colsT = padded_columns(x, kh, kw, stride, ph, pw)
        c_out = g.shape[1]
        gT = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(c_out, -1)
        assert gw.tobytes() == np.ascontiguousarray((colsT @ gT.T).T).tobytes()
        assert gb.tobytes() == gT.sum(axis=1).tobytes()

    def test_results_never_alias_pool_scratch(self, name, case, rng):
        """ISSUE 13's col2im bug, for the new route: with one image or one
        channel a transposed copy-out is already contiguous, and
        ``ascontiguousarray`` would hand back a view of pool scratch."""
        _, _, out, _, _, (gw, gb, gx) = self._run(name, case, rng)
        for arr in (out, gw, gb, gx):
            assert arr.flags.writeable
            assert all(not np.shares_memory(arr, s) for s in _SCRATCH.values())


# ----------------------------------------------------------------------
# Shapes on both sides of n = 2 * out_w
# ----------------------------------------------------------------------


def padded_columns(x, kh, kw, stride, ph, pw):
    """The ``(C·kh·kw, N·oh·ow)`` column matrix of ``np.pad``-ed ``x``: rows in
    ``(c, i, j)`` order, columns with the batch axis outermost."""
    n, c_in, h, wid = x.shape
    oh, ow = (h + 2 * ph - kh) // stride + 1, (wid + 2 * pw - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((c_in, kh, kw, n, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[
                :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
            ].transpose(1, 0, 2, 3)
    return cols.reshape(c_in * kh * kw, -1)


def parent_forward(x, w, b, stride, ph, pw):
    """``FastBackend.conv2d_forward`` as it was with one column order:
    ``np.pad``, a ``(C·kh·kw, N·oh·ow)`` column matrix with the batch axis
    outermost, one ``w2d @ colsT`` GEMM, bias added in place, transposed out."""
    n, _, h, wid = x.shape
    c_out, _, kh, kw = w.shape
    oh, ow = (h + 2 * ph - kh) // stride + 1, (wid + 2 * pw - kw) // stride + 1
    out_t = w.reshape(c_out, -1) @ padded_columns(x, kh, kw, stride, ph, pw)
    if b is not None:
        out_t += b[:, None]
    return out_t.reshape(c_out, n, oh, ow).transpose(1, 0, 2, 3).copy()


def same_blas_kernels():
    """Byte equality of two GEMMs is a property of the BLAS kernels NumPy
    dispatches to; it binds where ``test_forward_frozen``'s table does."""
    return platform_canary() == PLATFORM_CANARY


def check_conv(name, x, w, b, stride, ph, pw):
    """One forward (with and without ctx) and one full backward on ``name``:
    forward bytes equal to ``parent_forward``'s, gradients within tolerance of
    the reference backend's, nothing returned aliases pool scratch."""
    ref_be, be = backend.get("numpy"), backend.get(name)
    ref_out, ref_ctx = ref_be.conv2d_forward(x, w, b, stride, ph, pw, True)
    out, ctx = be.conv2d_forward(x, w, b, stride, ph, pw, True)
    out_no_ctx, no_ctx = be.conv2d_forward(x, w, b, stride, ph, pw, False)
    assert no_ctx is None and out_no_ctx.tobytes() == out.tobytes()
    assert out.shape == ref_out.shape and out.dtype == ref_out.dtype
    assert_close(ref_out, out)
    if name == "fast" and ctx[0] == "gen" and same_blas_kernels():
        assert out.tobytes() == parent_forward(x, w, b, stride, ph, pw).tobytes()
    g = np.random.default_rng(x.size).standard_normal(out.shape).astype(x.dtype)
    ref = ref_be.conv2d_backward(g, ref_ctx, True, True, True)
    got = be.conv2d_backward(g, ctx, True, True, True)
    n, _, out_h, out_w = out.shape
    sums_atol = conv_grad_atol(n, out_h, out_w)  # gw and gb; gx keeps its K order
    for r, o, atol in zip(ref, got, (sums_atol, sums_atol, TOLERANCE_ATOL)):
        assert o.shape == r.shape and o.dtype == r.dtype
        np.testing.assert_allclose(o, r, rtol=TOLERANCE_RTOL, atol=atol)
    only_gx = be.conv2d_backward(g, ctx, False, False, True)
    assert only_gx[:2] == (None, None) and only_gx[2].tobytes() == got[2].tobytes()
    for arr in (out, out_no_ctx, *got):
        assert arr.flags.writeable and arr.flags.c_contiguous
        assert all(not np.shares_memory(arr, s) for s in _SCRATCH.values())


def conv_case(rng, n, c_in, c_out, h, w, kh, kw, bias=True):
    x = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
    wt = (rng.standard_normal((c_out, c_in, kh, kw)) * 0.3).astype(np.float32)
    return x, wt, rng.standard_normal((c_out,)).astype(np.float32) if bias else None


# (n, c_in, c_out, h, w, kh, kw, stride, padding); every n is past 2 * out_w
# unless the name says otherwise.  The second block repeats the corners whose
# n·oh·ow is not a multiple of 16 — a ragged last GEMM tile, which keeps the
# batch-outermost order — at a batch size that is.
RULE_CASES = {
    "n-equals-2-out_w": (8, 3, 4, 4, 4, 3, 3, 1, 1),
    "n-equals-2-out_w-plus-1": (9, 3, 4, 4, 4, 3, 3, 1, 1),
    "2x2-map-n4": (4, 6, 3, 2, 2, 3, 3, 1, 1),
    "2x2-map-n5": (5, 6, 3, 2, 2, 3, 3, 1, 1),
    "wide-short-map-rule-is-on-width": (5, 2, 3, 2, 9, 3, 3, 1, 1),  # n < 2 * 9
    "tall-narrow-map": (5, 2, 3, 9, 2, 3, 3, 1, 1),  # n > 2 * 2
    "vgg-2x2-lowrank-u": (32, 128, 32, 2, 2, 3, 3, 1, 1),
    "vgg-4x4-lowrank-u": (32, 128, 32, 4, 4, 3, 3, 1, 1),
    "stride2-all-four-phases": (20, 3, 4, 8, 8, 3, 3, 2, 1),
    "stride2-leftover-rows": (20, 3, 4, 10, 8, 3, 3, 2, 1),
    "stride2-1x1-shortcut": (20, 4, 8, 8, 8, 1, 1, 2, 0),
    "stride3-k2-gap": (11, 2, 2, 11, 9, 2, 2, 3, 0),  # k < stride: untouched pixels
    "asymmetric-padding": (12, 3, 4, 5, 4, 3, 3, 1, (2, 0)),
    "stride2-kh-not-kw-ph-not-pw": (13, 2, 3, 11, 9, 3, 5, 2, (0, 2)),
    "pad-exceeds-k-1": (14, 2, 3, 5, 4, 3, 3, 1, 3),
    "k1-pad1-border-must-crop": (15, 2, 3, 5, 5, 1, 1, 1, 1),
    "no-padding": (16, 3, 4, 6, 6, 3, 3, 1, 0),
    "one-channel-in": (9, 1, 2, 4, 4, 3, 3, 1, 1),
    "one-channel-out": (9, 3, 1, 4, 4, 3, 3, 1, 1),
    "one-pixel-out": (7, 3, 4, 3, 3, 3, 3, 1, 0),
    "2x2-map-n8": (8, 6, 3, 2, 2, 3, 3, 1, 1),
    "tall-narrow-map-n16": (16, 2, 3, 9, 2, 3, 3, 1, 1),
    "stride3-k2-gap-n16": (16, 2, 2, 11, 9, 2, 2, 3, 0),
    "asymmetric-padding-n16": (16, 3, 4, 5, 4, 3, 3, 1, (2, 0)),
    "stride2-kh-not-kw-ph-not-pw-n16": (16, 2, 3, 11, 9, 3, 5, 2, (0, 2)),
    "pad-exceeds-k-1-n32": (32, 2, 3, 5, 4, 3, 3, 1, 3),
    "k1-pad1-border-must-crop-n16": (16, 2, 3, 5, 5, 1, 1, 1, 1),
    "one-pixel-out-n16": (16, 3, 4, 3, 3, 3, 3, 1, 0),
}


@pytest.mark.parametrize("name", NON_REF)
class TestEitherSideOfTheColumnOrderRule:
    @pytest.mark.parametrize("case", sorted(RULE_CASES))
    def test_forward_bytes_and_gradients(self, name, case, rng):
        n, c_in, c_out, h, w, kh, kw, stride, padding = RULE_CASES[case]
        ph, pw = padding if isinstance(padding, tuple) else (padding, padding)
        check_conv(name, *conv_case(rng, n, c_in, c_out, h, w, kh, kw), stride, ph, pw)

    def test_no_bias(self, name, rng):
        check_conv(name, *conv_case(rng, 9, 3, 4, 4, 4, 3, 3, bias=False), 1, 1, 1)

    def test_float64(self, name, rng):
        x, w, b = conv_case(rng, 9, 3, 4, 4, 4, 3, 3)
        check_conv(name, x.astype(np.float64), w.astype(np.float64), b.astype(np.float64), 1, 1, 1)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_one_layer_at_batch_32_20_32_9(self, name, rng, stride):
        """A smaller batch after a larger one through the same layer: whatever
        the kernels keep between calls (zero frames above all) must not leak
        the larger batch's interior into the smaller one's border."""
        _, w, b = conv_case(rng, 1, 8, 6, 4, 4, 3, 3)
        for n in (32, 20, 32, 9, 3, 32):
            x = rng.standard_normal((n, 8, 4, 4)).astype(np.float32)
            check_conv(name, x, w, b, stride, 1, 1)

    def test_interleaved_layers_share_the_pool(self, name, rng):
        """Two layers whose frames have the same byte size but different
        geometry, alternating, at changing batch sizes."""
        a = conv_case(rng, 1, 4, 4, 2, 8, 3, 3)[1:]
        c = conv_case(rng, 1, 4, 4, 8, 2, 3, 3)[1:]
        for n in (24, 17, 24, 5):
            check_conv(name, rng.standard_normal((n, 4, 2, 8)).astype(np.float32), *a, 1, 1, 1)
            check_conv(name, rng.standard_normal((n, 4, 8, 2)).astype(np.float32), *c, 1, 1, 1)

    @pytest.mark.parametrize("n", [8, 9, 20])
    def test_non_contiguous_input(self, name, rng, n):
        base = rng.standard_normal((n, 3, 8, 8)).astype(np.float32)
        _, w, b = conv_case(rng, 1, 3, 4, 4, 4, 3, 3)
        views = (
            base[:, :, ::2, ::2],
            base.transpose(0, 1, 3, 2)[:, :, :4, :4],
            base[::-1, :, 2:6, 2:6],
        )
        for view in views:
            assert not view.flags.c_contiguous
            check_conv(name, view, w, b, 1, 1, 1)

    def test_non_contiguous_output_gradient(self, name, rng):
        x, w, b = conv_case(rng, 9, 3, 4, 4, 4, 3, 3)
        be, ref_be = backend.get(name), backend.get("numpy")
        g = rng.standard_normal((9, 4, 4, 4)).astype(np.float32).transpose(0, 1, 3, 2)
        _, ctx = be.conv2d_forward(x, w, b, 1, 1, 1, True)
        _, ref_ctx = ref_be.conv2d_forward(x, w, b, 1, 1, 1, True)
        for r, o in zip(
            ref_be.conv2d_backward(np.ascontiguousarray(g), ref_ctx, True, True, True),
            be.conv2d_backward(g, ctx, True, True, True),
        ):
            assert_close(r, o)

    @pytest.mark.parametrize("hw", [2, 8])
    def test_empty_batch(self, name, rng, hw):
        _, w, b = conv_case(rng, 1, 3, 4, hw, hw, 3, 3)
        check_conv(name, np.empty((0, 3, hw, hw), dtype=np.float32), w, b, 1, 1, 1)

    def test_ctx_survives_later_calls(self, name, rng):
        """The input a backward gathers its columns from is the forward's own,
        not a pooled buffer the next conv of the same shape overwrites."""
        be, ref_be = backend.get(name), backend.get("numpy")
        x, w, b = conv_case(rng, 9, 3, 4, 4, 4, 3, 3)
        _, ctx = be.conv2d_forward(x, w, b, 1, 1, 1, True)
        _, ref_ctx = ref_be.conv2d_forward(x, w, b, 1, 1, 1, True)
        for _ in range(2):
            be.conv2d_forward(rng.standard_normal(x.shape).astype(np.float32), w, b, 1, 1, 1, False)
            be.conv2d_forward(rng.standard_normal(x.shape).astype(np.float32), w, b, 1, 1, 1, True)
        g = rng.standard_normal((9, 4, 4, 4)).astype(np.float32)
        for r, o in zip(
            ref_be.conv2d_backward(g, ref_ctx, True, True, True),
            be.conv2d_backward(g, ctx, True, True, True),
        ):
            assert_close(r, o)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 12) | st.sampled_from([8, 12, 16]),  # whole tiles on most maps
        c_in=st.integers(1, 3),
        c_out=st.integers(1, 3),
        h=st.integers(1, 6),
        w=st.integers(1, 6),
        kh=st.integers(1, 3),
        kw=st.integers(1, 3),
        stride=st.integers(1, 3),
        ph=st.integers(0, 3),
        pw=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    def test_any_small_conv(self, name, n, c_in, c_out, h, w, kh, kw, stride, ph, pw, seed):
        if h + 2 * ph < kh or w + 2 * pw < kw:
            return  # no output pixel
        data = np.random.default_rng(seed)
        check_conv(name, *conv_case(data, n, c_in, c_out, h, w, kh, kw), stride, ph, pw)


def test_only_permuted_sums_get_the_wider_absolute_term():
    """``gw`` / ``gb`` keep the plain ``TOLERANCE_ATOL`` wherever the fast
    columns are in the reference's position order; √(terms) of it elsewhere."""
    assert conv_grad_atol(8, 4, 4) == TOLERANCE_ATOL  # n = 2 * out_w
    assert conv_grad_atol(5, 2, 2) == TOLERANCE_ATOL  # ragged last tile
    assert conv_grad_atol(32, 16, 16) == TOLERANCE_ATOL  # the kernel bench's wide rows
    assert conv_grad_atol(32, 4, 4) == pytest.approx(TOLERANCE_ATOL * 512**0.5)


# c_out x (c_in·k²) over K = n·oh·ow: the weight-gradient GEMMs of a hybrid
# VGG-19 train step at batch 32, plus shapes with awkward remainders.
GW_SHAPES = [
    (16, 144, 32768), (32, 288, 8192), (64, 576, 2048), (32, 1152, 512), (32, 1152, 128),
    (16, 27, 32768), (3, 7, 45), (1, 9, 100), (5, 1, 33), (4, 18, 0),
]  # fmt: skip


@pytest.mark.parametrize("c_out,rows,k", GW_SHAPES)
def test_transposed_weight_gradient_gemm_is_the_same_bytes(rng, c_out, rows, k):
    """``(colsT @ gT.T).T`` — the long ``colsT`` streamed once as the left
    operand — rounds exactly as ``gT @ colsT.T`` does on the BLAS kernels the
    frozen-forward table was recorded on: each entry is the same K-ordered dot
    product, only the tiling differs.  ``gw`` is a backward quantity, so where
    the kernels differ only ``TOLERANCE_RTOL`` is contractual (``PARITY``)."""
    colsT = rng.standard_normal((rows, k)).astype(np.float32)
    gT = rng.standard_normal((c_out, k)).astype(np.float32)
    direct, transposed = gT @ colsT.T, (colsT @ gT.T).T
    np.testing.assert_allclose(
        transposed, direct, rtol=TOLERANCE_RTOL, atol=TOLERANCE_ATOL * k**0.5
    )
    if not same_blas_kernels():
        pytest.skip(f"recorded on other BLAS kernels (canary {platform_canary()})")
    assert np.ascontiguousarray(transposed).tobytes() == direct.tobytes()


def _hybrid_vgg19():
    return build_hybrid(vgg19(num_classes=10, width_mult=0.25), vgg19_hybrid_config())[0]


def _hybrid_resnet18():
    model = resnet18(num_classes=10, width_mult=0.25, small_input=True)
    return build_hybrid(model, resnet18_hybrid_config(model))[0]


@pytest.mark.parametrize("build", [_hybrid_vgg19, _hybrid_resnet18])
def test_train_forward_ctx_holds_only_the_input_and_weight(build, rng):
    """A fast conv keeps nothing of its own for the backward: every array in
    its ctx is a view of the input the graph already holds as the conv's
    parent, or of its weight — no column matrix lives from forward to
    backward."""
    model = build()
    be = backend.get("fast")
    forward, calls = be.conv2d_forward, []

    def record(x, w, b, stride, ph, pw, want_ctx):
        out, ctx = forward(x, w, b, stride, ph, pw, want_ctx)
        calls.append((x, w, ctx))
        return out, ctx

    be.conv2d_forward = record
    try:
        with backend.use("fast"):
            model(Tensor(rng.standard_normal((32, 3, 32, 32)).astype(np.float32)))
    finally:
        del be.conv2d_forward
    assert {ctx[0] for _, _, ctx in calls} == {"gen", "1x1"}
    for x, w, ctx in calls:
        for a in ctx:
            if isinstance(a, np.ndarray):
                assert np.shares_memory(a, x) or np.shares_memory(a, w)
