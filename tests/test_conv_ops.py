"""Convolution/pooling kernels: im2col round trips, equivalence with a naive
reference convolution, and gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import (
    Tensor,
    avg_pool2d,
    check_gradients,
    col2im,
    conv2d,
    global_avg_pool2d,
    im2col,
    max_pool2d,
)
from tests.oracles import argmax_pool_oracle, mean_pool_oracle


def naive_conv2d(x, w, b, stride, pad):
    """Direct-loop reference convolution (gold standard for tests)."""
    n, c_in, h, wid = x.shape
    c_out, _, kh, kw = w.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
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


class TestIm2col:
    def test_shape(self, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        cols = im2col(x, 3, 3, 1, 1)
        assert cols.shape == (2 * 8 * 8, 3 * 9)

    def test_stride_shape(self, rng):
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        cols = im2col(x, 2, 2, 2, 0)
        assert cols.shape == (16, 8)

    def test_identity_kernel_content(self, rng):
        x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        cols = im2col(x, 1, 1, 1, 0)
        assert np.allclose(cols.reshape(4, 4), x[0, 0])

    def test_col2im_adjointness(self, rng):
        # <im2col(x), y> == <x, col2im(y)> — the defining adjoint property.
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float64)
        y = rng.standard_normal((2 * 4 * 4, 3 * 9)).astype(np.float64)
        lhs = (im2col(x, 3, 3, 1, 0).astype(np.float64) * y).sum()
        rhs = (x * col2im(y, x.shape, 3, 3, 1, 0)).sum()
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestConv2d:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive(self, rng, stride, pad):
        x = Tensor(rng.standard_normal((2, 3, 7, 7)))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.2)
        b = Tensor(rng.standard_normal(4) * 0.1)
        out = conv2d(x, w, b, stride=stride, padding=pad)
        ref = naive_conv2d(x.data, w.data, b.data, stride, pad)
        assert out.shape == ref.shape
        assert np.allclose(out.data, ref, atol=1e-4)

    def test_1x1_conv_is_channel_mix(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        w = Tensor(rng.standard_normal((2, 3, 1, 1)))
        out = conv2d(x, w, None)
        ref = np.einsum("oc,nchw->nohw", w.data[:, :, 0, 0], x.data)
        assert np.allclose(out.data, ref, atol=1e-5)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        w = Tensor(rng.standard_normal((2, 4, 3, 3)))
        with pytest.raises(ValueError):
            conv2d(x, w, None)

    def test_grad_weight_and_bias(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 5, 5)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.3, requires_grad=True)
        b = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
        check_gradients(
            lambda: (conv2d(x, w, b, padding=1) ** 2).sum(), [w, b], rtol=2e-2, atol=2e-3
        )

    def test_grad_input(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.3)
        check_gradients(
            lambda: (conv2d(x, w, None, stride=2, padding=1) ** 2).sum(),
            [x],
            rtol=2e-2,
            atol=2e-3,
            max_bad_frac=0.04,  # fp32 finite-difference noise
        )

    def test_no_bias(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)))
        out = conv2d(x, w, None, padding=1)
        assert out.shape == (1, 2, 4, 4)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = avg_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_grad_routes_to_max(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        assert np.allclose(x.grad[0, 0], expected)

    def test_avg_pool_grad_uniform(self):
        x = Tensor(np.zeros((1, 1, 4, 4)), requires_grad=True)
        avg_pool2d(x, 2).sum().backward()
        assert np.allclose(x.grad, 0.25)

    def test_max_pool_gradcheck(self, rng):
        # Distinct values (a scaled permutation) avoid argmax ties; the /10
        # scale keeps the squared loss small so fp32 finite differences hold.
        x = Tensor(rng.permutation(2 * 3 * 4 * 4).astype(np.float32).reshape(2, 3, 4, 4) / 10.0,
                   requires_grad=True)
        check_gradients(lambda: (max_pool2d(x, 2) ** 2).sum(), [x], rtol=2e-2, atol=2e-2)

    def test_avg_pool_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        check_gradients(lambda: (avg_pool2d(x, 2) ** 2).sum(), [x], rtol=2e-2, atol=2e-3)

    def test_stride_differs_from_kernel(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 5, 5)))
        out = max_pool2d(x, 3, stride=2)
        assert out.shape == (1, 1, 2, 2)

    def test_global_avg_pool(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)))
        out = global_avg_pool2d(x)
        assert out.shape == (2, 3)
        assert np.allclose(out.data, x.data.mean(axis=(2, 3)), atol=1e-6)


pool_cases = st.fixed_dictionaries(
    {
        "kernel": st.integers(1, 5),
        "stride": st.integers(1, 4),  # < kernel overlaps, > kernel leaves gaps
        "extra_h": st.integers(0, 6),  # h = kernel + extra: mostly not divisible
        "extra_w": st.integers(0, 6),
        "n": st.integers(1, 2),
        "c": st.integers(1, 3),
        # Inputs rounded to a grid of `levels` values, so windows tie often.
        "levels": st.sampled_from((2, 3, 8, None)),
        "seed": st.integers(0, 2**16),
    }
)


def check_pool_against_oracle(pool, oracle, p, forward_bytes=True):
    data = np.random.default_rng(p["seed"])
    k, s = p["kernel"], p["stride"]
    x = data.standard_normal((p["n"], p["c"], k + p["extra_h"], k + p["extra_w"]))
    if p["levels"]:
        x = np.floor(x * p["levels"] / 2) + 0.0  # "+ 0.0": no negative zeros
    x = x.astype(np.float32)
    t = Tensor(x, requires_grad=True)
    out = pool(t, k, s)
    g = data.standard_normal(out.shape)
    if p["levels"]:
        g = np.round(g * p["levels"]) / p["levels"]  # exact zeros of both signs
    g = g.astype(np.float32)
    out.backward(g)
    ref_out, ref_gx = oracle(x, k, s, g)
    if forward_bytes:
        assert out.data.tobytes() == ref_out.tobytes()
    else:
        np.testing.assert_allclose(out.data, ref_out, rtol=1e-6, atol=1e-6)
    # Bytes, not ``==``: the losers' zeros carry the oracle's sign too.
    assert t.grad.tobytes() == ref_gx.tobytes()
    assert t.grad.flags.writeable and t.grad.flags.c_contiguous


class TestMaxPoolMatchesArgmaxOracle:
    @given(pool_cases)
    @settings(max_examples=200, deadline=None)
    def test_output_and_input_gradient(self, p):
        check_pool_against_oracle(max_pool2d, argmax_pool_oracle, p)

    def test_tie_goes_to_the_first_offset_row_major(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
        max_pool2d(x, 2).backward(np.full((1, 1, 1, 1), 3.0, dtype=np.float32))
        assert np.array_equal(x.grad[0, 0], [[3.0, 0.0], [0.0, 0.0]])

    def test_overlapping_windows_accumulate(self):
        # MaxPool2d(3, 2), ResNet's stem pool: the centre pixel wins both windows.
        x = np.zeros((1, 1, 3, 5), dtype=np.float32)
        x[0, 0, 1, 2] = 1.0
        t = Tensor(x, requires_grad=True)
        max_pool2d(t, 3, 2).backward(np.array([[[[2.0, 5.0]]]], dtype=np.float32))
        assert t.grad[0, 0, 1, 2] == 7.0 and t.grad.sum() == 7.0


class TestAvgPoolMatchesMeanOracle:
    @given(pool_cases)
    @settings(max_examples=200, deadline=None)
    def test_output_and_input_gradient(self, p):
        """``mean`` over strided windows rounds in nditer's order: each window
        row left to right, then the rows — unless ``out_w == 1``, where the
        iterator drops that axis and the order follows the input's strides.
        The kernel keeps the first order everywhere."""
        out_w = p["extra_w"] // p["stride"] + 1
        check_pool_against_oracle(avg_pool2d, mean_pool_oracle, p, forward_bytes=out_w > 1)
