"""Convolution and pooling primitives, NCHW throughout.

A convolution is one big matrix multiplication over gathered patches, which
keeps both passes inside BLAS instead of Python loops — the standard trick
for NumPy-only deep-learning stacks.  The kernels live in
:mod:`repro.tensor.backend` and ``conv2d`` dispatches through the active
backend, so the same autograd graph runs on the bit-exact ``numpy`` reference
(im2col rows, GEMM, col2im scatter-add) or the ``fast`` path (transposed
columns, GEMM, input gradient by a second gather + GEMM).  Pooling is one
implementation for both: k² shifted strided slabs of the input.
:func:`im2col` / :func:`col2im` expose the reference conv's two helpers.
``padding`` may be an int or an ``(pad_h, pad_w)`` pair.
"""

from __future__ import annotations

import numpy as np

from . import backend as _backend
from . import profiler as _profiler
from .backend import _out_size, _pad_pair
from .tensor import Tensor, is_grad_enabled

__all__ = ["conv2d", "max_pool2d", "avg_pool2d", "global_avg_pool2d", "im2col", "col2im"]


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int | tuple[int, int]
) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x: ``(N, C, H, W)`` input.

    Returns
    -------
    ``(N * out_h * out_w, C * kh * kw)`` matrix where each row is one
    receptive field.
    """
    ph, pw = _pad_pair(pad)
    return _backend.active().im2col(x, kh, kw, stride, ph, pw)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int | tuple[int, int],
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back to image layout.

    The returned array is always freshly owned by the caller — never a
    view of ``cols`` or of the padded accumulator, which is backend-managed
    scratch — so backward closures donate it to ``Tensor._accumulate``.
    """
    ph, pw = _pad_pair(pad)
    return _backend.active().col2im(cols, x_shape, kh, kw, stride, ph, pw)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    stride: int = 1,
    padding: int | tuple[int, int] = 0,
) -> Tensor:
    """2-D convolution (cross-correlation) in NCHW with OIHW weights.

    ``weight`` has shape ``(c_out, c_in, kh, kw)``.  The forward pass is a
    single GEMM over the patch matrix.  For the weight gradient the backward
    reuses the patches the reference caches, or gathers them again from the
    input (``fast``, which caches none); it gets the input gradient from col2im
    (reference) or a second gather + GEMM (``fast``).  The backend that runs
    the forward owns the cached context, so the backward stays consistent
    even if the active backend changes in between.
    """
    n, c_in, h, w = x.data.shape
    c_out, c_in_w, kh, kw = weight.data.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {c_in_w}")
    ph, pw = _pad_pair(padding)
    out_h = _out_size(h, kh, stride, ph)
    out_w = _out_size(w, kw, stride, pw)

    be = _backend.active()
    want_ctx = is_grad_enabled() and (
        x.requires_grad
        or weight.requires_grad
        or (bias is not None and bias.requires_grad)
    )
    out, ctx = be.conv2d_forward(
        x.data,
        weight.data,
        bias.data if bias is not None else None,
        stride,
        ph,
        pw,
        want_ctx,
    )
    if _profiler.profiling_active():
        # c_in·c_out·k²·H_out·W_out MACs per image (Table 1's conv formula).
        _profiler.record_conv(n * out_h * out_w * c_in * kh * kw * c_out)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(g: np.ndarray) -> None:
        gw, gb, gx = be.conv2d_backward(
            g,
            ctx,
            need_gw=weight.requires_grad,
            need_gb=bias is not None and bias.requires_grad,
            need_gx=x.requires_grad,
        )
        # The backend builds all three for this call; none is kept in ctx.
        if gw is not None:
            weight._accumulate(gw, owned=True)
        if gb is not None:
            bias._accumulate(gb, owned=True)
        if gx is not None:
            x._accumulate(gx, owned=True)

    return Tensor._from_op(out, parents, backward, "conv2d")


def _window_slabs(kernel: int, stride: int, out_h: int, out_w: int) -> list[tuple]:
    """One index per window offset, row-major: ``a[idx]`` is the
    ``(N, C, out_h, out_w)`` slab holding element ``(i, j)`` of every window."""
    return [
        (..., slice(i, i + stride * out_h, stride), slice(j, j + stride * out_w, stride))
        for i in range(kernel)
        for j in range(kernel)
    ]


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling with square window; ``stride`` defaults to ``kernel``.

    Both directions walk the k² window offsets as shifted strided slabs of
    ``x``.  Forward folds them with ``np.maximum``.  Backward hands each
    output gradient to the *first* offset whose input equals the max —
    ``argmax``'s tie rule.  Disjoint windows (stride ≥ kernel) own their
    ``gx`` elements, so each masked slab is written once; overlapping ones
    (``MaxPool2d(3, 2)``) accumulate in offset order, the order the im2col
    scatter-add used, so the sums round identically.  Either way ``gx`` is
    byte-equal to the argmax / ``put_along_axis`` / ``col2im`` route's.
    """
    stride = stride or kernel
    xd = x.data
    out_h = _out_size(xd.shape[2], kernel, stride, 0)
    out_w = _out_size(xd.shape[3], kernel, stride, 0)
    slabs = _window_slabs(kernel, stride, out_h, out_w)
    out = xd[slabs[0]].copy()
    for idx in slabs[1:]:
        np.maximum(out, xd[idx], out=out)

    def backward(g: np.ndarray) -> None:
        gx = np.zeros(xd.shape, dtype=g.dtype)
        taken = None  # windows whose winner is already found
        for idx in slabs:
            first = xd[idx] == out
            if taken is None:
                taken = first
            else:
                np.greater(first, taken, out=first)  # first & ~taken
                taken |= first
            if stride >= kernel:
                np.multiply(g, first, out=gx[idx])
            else:
                gx[idx] += g * first
        if stride >= kernel:
            # g·False is -0.0 where g < 0; a scatter-add leaves +0.0 there.
            gx += 0.0
        x._accumulate(gx, owned=True)

    return Tensor._from_op(out, (x,), backward, "max_pool2d")


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling with square window; ``stride`` defaults to ``kernel``.

    Walks the same shifted slabs as :func:`max_pool2d`.  Forward sums each
    window row left to right, then the rows top to bottom, then divides by k²:
    the order ``mean`` over strided windows rounds in (k < 8, ``out_w`` > 1),
    kept for every shape.  Backward accumulates ``g / k²`` per offset,
    row-major — the order a ``col2im`` scatter-add rounds in.
    """
    stride = stride or kernel
    xd = x.data
    out_h = _out_size(xd.shape[2], kernel, stride, 0)
    out_w = _out_size(xd.shape[3], kernel, stride, 0)
    slabs = _window_slabs(kernel, stride, out_h, out_w)
    out = None
    for i in range(0, len(slabs), kernel):
        row = xd[slabs[i]].copy()
        for idx in slabs[i + 1 : i + kernel]:
            row += xd[idx]
        if out is None:
            out = row
        else:
            out += row
    out /= kernel * kernel

    def backward(g: np.ndarray) -> None:
        share = g * (1.0 / (kernel * kernel))
        gx = np.zeros(xd.shape, dtype=g.dtype)
        for idx in slabs:
            gx[idx] += share
        x._accumulate(gx, owned=True)

    return Tensor._from_op(out, (x,), backward, "avg_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning ``(N, C)``."""
    return x.mean(axis=(2, 3))
