"""Kernels as they were before a rewrite, kept as byte-equal oracles for the
tests and ``benchmarks/test_kernels.py``.

* Pooling before it walked shifted slabs: ``as_strided`` windows forward, a
  scatter-add per kernel offset backward (``tests/test_conv_ops.py``).
* The exact gradient mean as ``NoCompression.decode_aggregate`` and
  ``allreduce_mean`` each wrote it out: whole-array float64 casts, adds in
  worker order, one division, one cast back.
"""

import numpy as np


def _windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Read-only ``(N, C, oh, ow, kernel, kernel)`` view of every window."""
    n, c, h, w = x.shape
    oh, ow = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def _scatter(grad6: np.ndarray, x_shape, kernel: int, stride: int) -> np.ndarray:
    """``(N, C, oh, ow, kernel, kernel)`` window gradients summed into ``gx``
    one kernel offset at a time, row-major: ``col2im``'s order, without its
    transpose shortcut for 1×1 windows (which keeps a -0.0 a sum would not)."""
    oh, ow = grad6.shape[2:4]
    gx = np.zeros(x_shape, dtype=grad6.dtype)
    for i in range(kernel):
        for j in range(kernel):
            gx[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += grad6[..., i, j]
    return gx


def argmax_pool_oracle(x: np.ndarray, kernel: int, stride: int, g: np.ndarray):
    """``(out, gx)`` of max pooling by ``argmax`` (first maximum wins a tie)
    and ``put_along_axis``."""
    windows = _windows(x, kernel, stride)
    flat = windows.reshape(*windows.shape[:4], kernel * kernel)
    argmax = flat.argmax(axis=-1)
    out = np.ascontiguousarray(np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0])
    grad_flat = np.zeros(flat.shape, dtype=g.dtype)
    np.put_along_axis(grad_flat, argmax[..., None], g[..., None], axis=-1)
    return out, _scatter(grad_flat.reshape(windows.shape), x.shape, kernel, stride)


def mean_pool_oracle(x: np.ndarray, kernel: int, stride: int, g: np.ndarray):
    """``(out, gx)`` of average pooling by ``mean`` over the window axes and
    ``g / k²`` broadcast to every window element."""
    windows = _windows(x, kernel, stride)
    out = np.ascontiguousarray(windows.mean(axis=(-1, -2)))
    spread = np.broadcast_to((g * (1.0 / (kernel * kernel)))[..., None, None], windows.shape)
    return out, _scatter(spread, x.shape, kernel, stride)


def exact_mean_oracle(arrays, dtype=None):
    """Element-wise mean of ``arrays`` accumulated in float64 in list order,
    cast to ``dtype`` (default: the first input's)."""
    out = arrays[0].astype(np.float64)
    for a in arrays[1:]:
        out += a
    return (out / len(arrays)).astype(arrays[0].dtype if dtype is None else dtype)
