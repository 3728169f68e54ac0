"""Pluggable op backends for the tensor engine.

Every hot kernel in :mod:`repro.tensor` and :mod:`repro.optim` (convolution
forward and backward, GEMM, the fused ``linear`` node's forward GEMM, relu,
the fused bias+relu chain, BatchNorm's backward, and the fused SGD / Adam /
LAMB arena updates) dispatches through the *active* backend:

``numpy``
    The reference implementation — the exact code the engine has always
    run, bit-for-bit.  Every other backend is validated against it.

``fast``
    BLAS-oriented kernels: the conv path gathers patches directly
    into a transposed ``(C·kh·kw, N·oh·ow)`` layout so the forward pass
    is one ``w2d @ cols`` GEMM (1×1 convs — the Pufferfish factorized
    V-factor hot path — become a single batched ``np.matmul`` with no
    transpose copies at all) and the input gradient is the same gather +
    GEMM over the output gradient, with the batch axis innermost in the
    columns when the feature map is narrow (the low-rank ``U`` convs at
    4×4 / 2×2); a short batch through a wide ``linear`` runs its forward
    GEMM as ``(W @ xᵀ)ᵀ``, the faster orientation there and the same bytes
    (:func:`_linear_transposed`); and fused elementwise chains
    (``bias_relu`` in one pass via ``np.maximum(x + b, 0, out=...)``,
    BatchNorm's training backward from two per-channel sums).

Selection, in precedence order: ``repro.tensor.backend.use()`` context
manager > ``set_backend()`` / the ``--backend`` CLI flag > the
``REPRO_BACKEND`` environment variable (read once at import) > the
``numpy`` default.

Parity policy: every dispatched op carries a tag in :data:`PARITY` —
``bit-exact`` ops must return arrays equal under ``==`` to the numpy
reference (``-0.0`` vs ``+0.0`` is tolerated), ``tolerance`` ops must
agree within a small relative error (GEMM orientation changes the
floating-point summation order).  ``tests/test_backend_parity.py``
enforces the tags; ``benchmarks/test_kernels.py`` re-checks them while
measuring per-op speedups.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Backend",
    "NumpyBackend",
    "FastBackend",
    "PARITY",
    "active",
    "available",
    "get",
    "register",
    "set_backend",
    "use",
]

# Parity contract per dispatched op, shared by the parity tests and the
# kernel benchmark.  ``tolerance`` ops change GEMM orientation and hence
# float summation order; everything else must match the reference under
# ``np.array_equal``.
PARITY: dict[str, str] = {
    "matmul": "bit-exact",
    # functional.linear's forward GEMM; its backward GEMMs are not
    # dispatched.  The fast backend's orientation swap is byte-equal, not
    # merely ``==`` (tests/test_backend_parity.py sweeps rows 1-130).  The
    # tag is also the fused node's contract against the ``x @ W.T + b``
    # composite it replaced, on 2-D inputs (the kernel bench re-checks it).
    "linear": "bit-exact",
    "relu": "bit-exact",
    "bias_relu": "bit-exact",
    "conv2d_forward": "tolerance",
    # gw, gb and gx are backward quantities: the column order and the GEMM
    # orientation they are reduced in are free to change within tolerance.
    # (``(colsT @ gT.T).T`` happens to round as the untransposed product did
    # on the OpenBLAS the tests were recorded on; that is not contractual.)
    "conv2d_backward": "tolerance",
    # Forward is not dispatched (its rounding is frozen, see
    # docs/PERFORMANCE.md); only the backward's reductions are reordered.
    "batch_norm_backward": "tolerance",
    "sgd_update": "bit-exact",
    # Fused-optimizer arena updates.  adam_update runs the identical
    # elementwise chain under both backends; lamb_update's per-layer
    # trust ratios come from segmented reductions whose summation order
    # differs (per-segment BLAS dot vs np.add.reduceat), so it carries
    # the tolerance tag.
    "adam_update": "bit-exact",
    "lamb_update": "tolerance",
}

# Tolerances for ``tolerance``-tagged ops.  fp32 reassociation error in a
# reordered reduction grows with its length (conv bias gradients sum
# N·oh·ow terms); at this repo's widths the observed relative error stays
# under 1e-5, so these bounds leave an order of magnitude of margin.
TOLERANCE_RTOL = 1e-4
TOLERANCE_ATOL = 1e-5


def conv_grad_atol(n: int, out_h: int, out_w: int) -> float:
    """Absolute tolerance on ``conv2d_backward``'s ``gw`` and ``gb``, sums over
    the ``n·oh·ow`` output positions.  Taken in the reference's position order
    they meet ``TOLERANCE_ATOL``.  Batch-innermost columns permute that order,
    and the error of a reordered fp32 sum random-walks with the number of terms
    whether or not the result cancels to ~0: there it is ``TOLERANCE_ATOL·√terms``."""
    if _conv_layout(n, out_h, out_w) is _BATCH_OUTER:
        return TOLERANCE_ATOL
    return TOLERANCE_ATOL * math.sqrt(n * out_h * out_w)


def _out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _pad_pair(padding: int | tuple[int, int]) -> tuple[int, int]:
    """Normalize ``padding`` to per-axis ``(pad_h, pad_w)``."""
    if isinstance(padding, tuple):
        ph, pw = padding
        return int(ph), int(pw)
    return int(padding), int(padding)


# ----------------------------------------------------------------------
# Scratch buffers
# ----------------------------------------------------------------------
# Backward passes and inference loops need the same transient buffers every
# iteration; reusing them avoids a large allocation (and its mmap/page-fault
# churn) per call.  The engine is single-threaded per op, and no scratch
# buffer ever escapes: callers either copy the result out or only use it
# transiently within one call.


class _ScratchPool:
    """One flat arena per tag, grown to the largest request and never shrunk.

    A request is a *view* of its tag's arena, so conv layers of every shape
    and batch size share one ``conv_cols`` arena sized for the largest of
    them: a server that sees batch sizes 1…8 holds the batch-8 buffers, not
    eight sets.  Tags are string literals at the call sites, never built from
    shapes, so the pool holds at most one arena per call site and dtype
    however many geometries, batch sizes or models the process meets.
    """

    def __init__(self) -> None:
        self._arenas: dict[tuple[str, str], np.ndarray] = {}
        self.misses = 0  # arena (re)allocations

    def __len__(self) -> int:
        return len(self._arenas)

    def values(self):
        return self._arenas.values()

    def clear(self) -> None:
        self._arenas.clear()

    def get(self, tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A ``shape`` view of ``tag``'s arena, contents undefined."""
        key = (tag, np.dtype(dtype).str)
        size = math.prod(shape)
        arena = self._arenas.get(key)
        if arena is None or arena.size < size:
            self.misses += 1
            arena = self._arenas[key] = np.empty(size, dtype=dtype)
        return arena[:size].reshape(shape)


_SCRATCH = _ScratchPool()
_scratch = _SCRATCH.get


# A conv's column matrix is ``(C·kh·kw, n·oh·ow)``; which of n, oh, ow runs
# fastest decides how long the contiguous runs of every slab copy are.  A
# layout names the storage order of the zero frame and of the columns, both as
# permutations of the logical (N, C, H, W) axes; the kernels only ever see
# logical views (:func:`_as_nchw`), so the axis order is data, not code.
_BATCH_OUTER = ((0, 1, 2, 3), (1, 0, 2, 3))  # NCHW frame, (C, N, oh, ow) columns: out_w-float runs
_BATCH_INNER = ((1, 2, 3, 0), (1, 2, 3, 0))  # CHWN frame, (C, oh, ow, N) columns: n-float runs


_SGEMM_TILE = 16


def _linear_transposed(rows: int, in_features: int, out_features: int) -> bool:
    """Whether ``linear``'s forward runs as ``(W @ xᵀ)ᵀ``: a batch of 12-32
    rows through a layer at least 128 wide on both sides.  There it is
    1.1-1.9× faster than ``x @ Wᵀ`` (single-thread OpenBLAS, the ratio table
    in docs/PERFORMANCE.md); it loses on narrow layers, at
    batch 1-8 and on ``train_seq``'s 416-448 rows.  On the OpenBLAS the
    tests were recorded on, both orientations give the same bytes on every
    shape swept (rows 1-130, ragged widths, ``tests/test_backend_parity.py``)."""
    return 12 <= rows <= 32 and min(in_features, out_features) >= 128


def _conv_layout(n: int, out_h: int, out_w: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Batch innermost once that at least doubles the runs.  Moving NCHW data
    into and out of a CHWN frame costs more than ``n > out_w`` alone wins back
    (measured at batch 32 on 16×16 maps, docs/PERFORMANCE.md).

    Only whole tiles of columns, though: OpenBLAS runs the last ``columns mod
    16`` of an sgemm through a narrower micro-kernel that rounds differently,
    and which pixels those are depends on the column order.  With no such tail
    every output is the same K-ordered dot product in either order, so the
    forward's bytes do not depend on this choice."""
    whole_tiles = (n * out_h * out_w) % _SGEMM_TILE == 0
    return _BATCH_INNER if n > 2 * out_w and whole_tiles else _BATCH_OUTER


def _as_nchw(buf: np.ndarray, shape: tuple[int, int, int, int], order) -> np.ndarray:
    """Logical ``(N, C, H, W)`` view of contiguous ``buf``, which stores those
    axes (sized ``shape``) in ``order``."""
    return buf.reshape([shape[a] for a in order]).transpose([order.index(a) for a in range(4)])


def _zero_framed(src: np.ndarray, fh: int, fw: int, top: int, left: int, order) -> np.ndarray:
    """``src`` (N, C, h, w) laid at ``(top, left)`` of a pooled all-zero
    ``(N, C, fh, fw)`` frame stored in axis ``order`` — ``np.pad`` without the
    allocation, and with negative offsets: what falls outside the frame is
    cropped.  The whole frame is cleared, not its four border strips: the two
    column strips pull every cache line of the frame through anyway
    (docs/PERFORMANCE.md)."""
    n, c, h, w = src.shape
    a0, a1 = max(0, -top), min(h, fh - top)
    b0, b1 = max(0, -left), min(w, fw - left)
    buf = _scratch("frame", (n * c * fh * fw,), src.dtype)
    buf.fill(0)
    frame = _as_nchw(buf, (n, c, fh, fw), order)
    frame[:, :, top + a0 : top + a1, left + b0 : left + b1] = src[:, :, a0:a1, b0:b1]
    return frame


# ----------------------------------------------------------------------
# Reference backend
# ----------------------------------------------------------------------


class Backend:
    """Op namespace; :class:`NumpyBackend` is the reference semantics.

    Conv ops return/accept an opaque ``ctx`` so each backend can cache
    whatever its own backward pass needs (the reference keeps the im2col
    rows, the fast backend keeps the transposed column matrix).  The
    forward's backend owns the ctx layout, so the autograd closure binds
    the backend that ran the forward even if the active backend changes
    before ``backward()``.
    """

    name = "base"

    # -- GEMM ----------------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def linear(self, x2d: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``x2d @ w.T`` for a ``(rows, in)`` input and an ``(out, in)``
        weight, as a fresh C-contiguous ``(rows, out)`` array."""
        return x2d @ w.T

    # -- elementwise ---------------------------------------------------

    def relu(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Return ``(out, mask)``; ``mask=None`` means derive ``out > 0``."""
        mask = x > 0
        return x * mask, mask

    def bias_relu(self, x: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Fused ``relu(x + b)``; same ``(out, mask)`` contract as relu."""
        y = x + b
        mask = y > 0
        return y * mask, mask

    # -- im2col / col2im: the reference conv's helpers, in no PARITY row --

    def im2col(self, x: np.ndarray, kh: int, kw: int, stride: int, ph: int, pw: int) -> np.ndarray:
        """Patch rows: ``(N*oh*ow, C*kh*kw)``, one receptive field per row."""
        n, c, h, w = x.shape
        out_h = _out_size(h, kh, stride, ph)
        out_w = _out_size(w, kw, stride, pw)
        if kh == 1 and kw == 1 and stride == 1 and ph == 0 and pw == 0:
            # 1×1 convs have one pixel per receptive field: the transform
            # is a pure transpose, no window view, no pad copy.
            return np.ascontiguousarray(x.transpose(0, 2, 3, 1).reshape(n * h * w, c))
        if ph > 0 or pw > 0:
            x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))

        # as_strided view over all (kh, kw) windows: (N, C, oh, ow, kh, kw)
        sn, sc, sh, sw = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, out_h, out_w, kh, kw),
            strides=(sn, sc, sh * stride, sw * stride, sh, sw),
            writeable=False,
        )
        # -> (N, oh, ow, C, kh, kw) -> rows
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kh * kw)
        return np.ascontiguousarray(cols)

    def col2im(
        self,
        cols: np.ndarray,
        x_shape: tuple[int, int, int, int],
        kh: int,
        kw: int,
        stride: int,
        ph: int,
        pw: int,
    ) -> np.ndarray:
        """Adjoint of :meth:`im2col`: scatter-add columns back to NCHW.

        The returned array is always freshly owned by the caller (autograd
        adopts it as a ``.grad``), hence ``.copy()``: ``ascontiguousarray``
        returns a *view* of ``cols`` or of the scratch accumulator when the
        slice is already contiguous (one channel, a single image).
        """
        n, c, h, w = x_shape
        out_h = _out_size(h, kh, stride, ph)
        out_w = _out_size(w, kw, stride, pw)
        if kh == 1 and kw == 1 and stride == 1 and ph == 0 and pw == 0:
            # 1×1 adjoint: windows never overlap, so the scatter-add is a
            # plain transpose back to NCHW.
            return cols.reshape(n, h, w, c).transpose(0, 3, 1, 2).copy()

        cols6 = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
        if ph > 0 or pw > 0:
            padded = _scratch("col2im", (n, c, h + 2 * ph, w + 2 * pw), cols.dtype)
            padded.fill(0)
        else:
            # No pad: the accumulator is the result, so it must be fresh.
            padded = np.zeros((n, c, h, w), dtype=cols.dtype)
        # Accumulate each kernel offset in a vectorized slab assignment.
        for i in range(kh):
            i_max = i + stride * out_h
            for j in range(kw):
                j_max = j + stride * out_w
                padded[:, :, i:i_max:stride, j:j_max:stride] += cols6[:, :, :, :, i, j]
        if ph > 0 or pw > 0:
            return padded[:, :, ph : ph + h, pw : pw + w].copy()
        return padded

    # -- conv2d --------------------------------------------------------

    def conv2d_forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: np.ndarray | None,
        stride: int,
        ph: int,
        pw: int,
        want_ctx: bool,
    ) -> tuple[np.ndarray, tuple | None]:
        """NCHW conv forward; returns ``(out, ctx)`` for :meth:`conv2d_backward`."""
        n, c_in, h, w = x.shape
        c_out, _, kh, kw = weight.shape
        out_h = _out_size(h, kh, stride, ph)
        out_w = _out_size(w, kw, stride, pw)

        cols = self.im2col(x, kh, kw, stride, ph, pw)  # (N*oh*ow, C*kh*kw)
        w2d = weight.reshape(c_out, -1)  # (c_out, C*kh*kw)
        out = cols @ w2d.T  # (N*oh*ow, c_out)
        if bias is not None:
            out = out + bias
        out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
        ctx = (cols, w2d, x.shape, kh, kw, stride, ph, pw)
        return np.ascontiguousarray(out), ctx

    def conv2d_backward(
        self,
        g: np.ndarray,
        ctx: tuple,
        need_gw: bool,
        need_gb: bool,
        need_gx: bool,
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        cols, w2d, x_shape, kh, kw, stride, ph, pw = ctx
        c_out = g.shape[1]
        g2d = g.transpose(0, 2, 3, 1).reshape(-1, c_out)  # (N*oh*ow, c_out)
        gw = (g2d.T @ cols).reshape(c_out, -1, kh, kw) if need_gw else None
        gb = g2d.sum(axis=0) if need_gb else None
        gx = None
        if need_gx:
            gcols = g2d @ w2d  # (N*oh*ow, C*kh*kw)
            gx = self.col2im(gcols, x_shape, kh, kw, stride, ph, pw)
        return gw, gb, gx

    # -- batch norm ----------------------------------------------------

    def batch_norm_backward(
        self,
        g: np.ndarray,
        x_hat: np.ndarray,
        inv_std: np.ndarray,
        gamma: np.ndarray,
        axes: tuple[int, ...],
        training: bool,
        need_ggamma: bool,
        need_gbeta: bool,
        need_gx: bool,
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        """``(ggamma, gbeta, gx)`` of ``x_hat * gamma + beta`` reduced over
        ``axes``; ``inv_std`` is broadcast-shaped (channels on axis 1).  In
        training mode ``x_hat`` was normalized with the batch's own
        statistics, so ``gx`` carries their gradient too."""
        ggamma = (g * x_hat).sum(axis=axes) if need_ggamma else None
        gbeta = g.sum(axis=axes) if need_gbeta else None
        gx = None
        if need_gx:
            gw = g * gamma.reshape(inv_std.shape)
            if training:
                n = x_hat.size / gamma.size
                dxhat = gw
                gx = (
                    inv_std
                    / n
                    * (
                        n * dxhat
                        - dxhat.sum(axis=axes, keepdims=True)
                        - x_hat * (dxhat * x_hat).sum(axis=axes, keepdims=True)
                    )
                )
            else:
                gx = gw * inv_std
        return ggamma, gbeta, gx

    # -- optimizer -----------------------------------------------------

    def sgd_update(
        self,
        flat: np.ndarray,
        g: np.ndarray,
        tmp: np.ndarray,
        decay_mask: np.ndarray | None,
        momentum_buf: np.ndarray | None,
        lr: float,
        momentum: float,
        nesterov: bool,
    ) -> np.ndarray | None:
        """In-place ``flat -= lr * d`` where ``d`` is the decayed,
        momentum-filtered gradient.  ``g`` is clobbered; returns the
        (possibly newly allocated) momentum buffer.

        This is already a fused vector chain — four in-place passes over
        the arena.  The update is memory-bandwidth-bound, so the fast
        backend shares it: measured alternatives (cache-blocked chunking,
        BLAS level-1 ``axpy`` chains) were no faster or strictly slower.
        """
        if decay_mask is not None:
            # g += decay_mask * flat  (mask is 0 on no_decay segments)
            np.multiply(decay_mask, flat, out=tmp)
            g += tmp
        if momentum > 0:
            if momentum_buf is None:
                momentum_buf = g.copy()
            else:
                momentum_buf *= momentum
                momentum_buf += g
            if nesterov:
                np.multiply(momentum_buf, momentum, out=tmp)
                g += tmp
                d = g
            else:
                d = momentum_buf
        else:
            d = g
        np.multiply(d, np.float32(lr), out=tmp)
        flat -= tmp
        return momentum_buf

    def adam_update(
        self,
        flat: np.ndarray,
        g: np.ndarray,
        m: np.ndarray,
        v: np.ndarray,
        tmp: np.ndarray,
        decay_mask: np.ndarray | None,
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
        step: int,
    ) -> None:
        """One bias-corrected Adam step over the flat arena, in place.

        ``m``/``v`` are the flat first/second-moment slabs (updated in
        place), ``step`` is the 1-based shared step count, ``g`` may be
        clobbered.  The elementwise chain is exactly the per-tensor
        :class:`repro.optim.Adam` loop, only batched — bit-exact parity
        is the contract (the fast backend reorders nothing, it only
        removes the temporaries).
        """
        if decay_mask is not None:
            g = g + decay_mask * flat
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        m_hat = m / (1 - beta1**step)
        v_hat = v / (1 - beta2**step)
        flat -= lr * m_hat / (np.sqrt(v_hat) + eps)

    def segment_norms(
        self, x: np.ndarray, seg_starts: np.ndarray, seg_sizes: np.ndarray
    ) -> np.ndarray:
        """Per-segment L2 norms of ``x`` under the arena tiling.

        Reference semantics: one BLAS dot per segment, matching what the
        per-tensor LAMB loop computes with ``np.linalg.norm``.  The fast
        backend replaces the loop with one squared pass plus
        ``np.add.reduceat``, which changes the float32 summation order —
        hence :data:`PARITY` tags ``lamb_update`` as ``tolerance``.
        """
        return np.array(
            [
                np.sqrt(np.dot(x[o : o + s], x[o : o + s]))
                for o, s in zip(seg_starts, seg_sizes)
            ],
            dtype=np.float32,
        )

    def lamb_update(
        self,
        flat: np.ndarray,
        g: np.ndarray,
        m: np.ndarray,
        v: np.ndarray,
        tmp: np.ndarray,
        decay_mask: np.ndarray | None,
        seg_starts: np.ndarray,
        seg_sizes: np.ndarray,
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
        step: int,
    ) -> None:
        """One LAMB step (You et al. 2020) over the flat arena, in place.

        Adam moments plus a per-layer *trust ratio* ``‖w‖/‖u‖`` scaling
        the update ``u = m̂/(√v̂ + eps) + wd·w``; segments are the arena
        tiling (one per parameter tensor).  The reference walks segments
        one at a time — the per-tensor loop, verbatim; ``g`` may be
        clobbered.
        """
        bc1 = 1 - beta1**step
        bc2 = 1 - beta2**step
        for off, size in zip(seg_starts, seg_sizes):
            sl = slice(int(off), int(off) + int(size))
            w_s, g_s, m_s, v_s = flat[sl], g[sl], m[sl], v[sl]
            m_s *= beta1
            m_s += (1 - beta1) * g_s
            v_s *= beta2
            v_s += (1 - beta2) * g_s * g_s
            u = (m_s / bc1) / (np.sqrt(v_s / bc2) + eps)
            if decay_mask is not None:
                u += decay_mask[sl] * w_s
            w_norm = float(np.sqrt(np.dot(w_s, w_s)))
            u_norm = float(np.sqrt(np.dot(u, u)))
            ratio = w_norm / u_norm if w_norm > 0 and u_norm > 0 else 1.0
            w_s -= (lr * ratio) * u


class NumpyBackend(Backend):
    """The reference backend: today's code, bit-exact with today's results."""

    name = "numpy"


# ----------------------------------------------------------------------
# Fast backend
# ----------------------------------------------------------------------


class FastBackend(Backend):
    """BLAS-batched / fused kernels, parity-gated against the reference.

    Conv strategy: gather patches straight into the transposed layout
    ``colsT = (C·kh·kw, n·oh·ow)`` with one slab assignment per kernel
    offset (kh·kw assignments instead of an N·oh·ow-row strided copy),
    then run the forward as a single ``w2d @ colsT`` GEMM with an
    in-place bias add.  The backward reuses ``colsT`` for the weight
    gradient and computes the input gradient the same way — gather the
    zero-framed output gradient over ``c_out`` channels, one GEMM with
    the flipped kernel — so nothing is scatter-added.  The order of
    ``colsT``'s columns follows the input's shape (:func:`_conv_layout`):
    ``(n, oh, ow)``, or ``(oh, ow, n)`` when the map is narrow enough that
    the batch is the longer run.  The K order ``(c, i, j)`` never changes,
    so every output is the same dot product either way, and the rule only
    reorders column counts the BLAS runs through one micro-kernel, where
    that makes the bytes identical too (docs/PERFORMANCE.md); the ``"gen"``
    ctx carries the columns' axis order as its last entry and the backward
    lays ``gT`` out to match, which permutes the sums behind ``gw`` and
    ``gb`` (:func:`conv_grad_atol`).
    Outputs change GEMM orientation vs the reference, so conv
    forward/backward are ``tolerance``-tagged, as is the fused BatchNorm
    backward (reordered reductions); everything else is bit-exact.
    """

    name = "fast"

    # -- GEMM ----------------------------------------------------------

    def linear(self, x2d: np.ndarray, w: np.ndarray) -> np.ndarray:
        if _linear_transposed(x2d.shape[0], w.shape[1], w.shape[0]):
            return np.ascontiguousarray((w @ x2d.T).T)
        return x2d @ w.T

    # -- elementwise ---------------------------------------------------

    def relu(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        # Single-pass maximum; the backward mask is derived lazily from
        # ``out > 0`` (identical to ``x > 0`` everywhere, including ±0).
        return np.maximum(x, 0), None

    def bias_relu(self, x: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        y = x + b
        np.maximum(y, 0, out=y)
        return y, None

    # -- conv2d --------------------------------------------------------

    def _gather_gemm(
        self,
        out: np.ndarray,
        src: np.ndarray,
        w2d: np.ndarray,
        kh: int,
        kw: int,
        stride: int,
        framing: tuple[int, int, int, int],
        bias: np.ndarray | None = None,
        keep_cols: bool = False,
    ) -> tuple[np.ndarray, tuple[int, ...]]:
        """``out[n, co, y, x] = Σ frame[n, c, s·y+i, s·x+j] · w2d[co, (c, i, j)]``
        ``+ bias[co]``, where ``frame`` is ``src`` laid at ``(top, left)`` of an
        ``(fh, fw)`` zero frame, ``framing = (fh, fw, top, left)``.

        One slab copy per kernel offset fills ``colsT``, one GEMM multiplies
        it, one transposing copy writes ``out`` (any NCHW-shaped view); the
        axis orders of frame and columns come from :func:`_conv_layout`.
        Returns ``colsT`` — pool scratch unless ``keep_cols`` — and the axis
        order of its columns.
        """
        n, c_out, out_h, out_w = out.shape
        c, h, w = src.shape[1:]
        frame_order, cols_order = _conv_layout(n, out_h, out_w)
        if frame_order[0] == 0 and framing == (h, w, 0, 0):
            frame = src  # nothing to pad, no axis to move
        else:
            frame = _zero_framed(src, *framing, frame_order)

        cshape = (c * kh * kw, n * out_h * out_w)
        if keep_cols:
            # A backward closure captures colsT, so it must be freshly owned —
            # pool scratch would be clobbered by the next conv before
            # backward() runs.
            colsT = np.empty(cshape, dtype=src.dtype)
        else:
            colsT = _scratch("conv_cols", cshape, src.dtype)
        cols = _as_nchw(colsT, (n, c * kh * kw, out_h, out_w), cols_order)
        for i in range(kh):
            i_max = i + stride * out_h
            for j in range(kw):
                j_max = j + stride * out_w
                # Row (c, i, j) of colsT is channel c·kh·kw + i·kw + j of the view.
                cols[:, i * kw + j :: kh * kw] = frame[:, :, i:i_max:stride, j:j_max:stride]

        oT = _scratch("conv_outT", (c_out, cshape[1]), out.dtype)
        np.matmul(w2d, colsT, out=oT)
        if bias is not None:
            oT += bias[:, None]
        out[...] = _as_nchw(oT, out.shape, cols_order)
        return colsT, cols_order

    def conv2d_forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: np.ndarray | None,
        stride: int,
        ph: int,
        pw: int,
        want_ctx: bool,
    ) -> tuple[np.ndarray, tuple | None]:
        n, c_in, h, w = x.shape
        c_out, _, kh, kw = weight.shape
        out_h = _out_size(h, kh, stride, ph)
        out_w = _out_size(w, kw, stride, pw)
        w2d = weight.reshape(c_out, -1)

        if kh == 1 and kw == 1 and stride == 1 and ph == 0 and pw == 0:
            # Batched GEMM straight over NCHW: (c_out, C) @ (N, C, H·W)
            # broadcasts to (N, c_out, H·W) — no transpose copies at all.
            x3 = x.reshape(n, c_in, h * w)
            out3 = np.matmul(w2d, x3)
            if bias is not None:
                out3 += bias[:, None]
            ctx = ("1x1", x3, w2d, x.shape) if want_ctx else None
            return out3.reshape(n, c_out, h, w), ctx

        # A fresh array, never a view of the GEMM's pool scratch.
        out = np.empty((n, c_out, out_h, out_w), dtype=np.result_type(x, weight))
        framing = (h + 2 * ph, w + 2 * pw, ph, pw)
        colsT, order = self._gather_gemm(out, x, w2d, kh, kw, stride, framing, bias, want_ctx)
        ctx = ("gen", colsT, w2d, x.shape, kh, kw, stride, ph, pw, order) if want_ctx else None
        return out, ctx

    def conv2d_backward(
        self,
        g: np.ndarray,
        ctx: tuple,
        need_gw: bool,
        need_gb: bool,
        need_gx: bool,
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        if ctx[0] == "1x1":
            _, x3, w2d, x_shape = ctx
            n, c_in, h, w = x_shape
            c_out = g.shape[1]
            g3 = g.reshape(n, c_out, h * w)
            gw = None
            if need_gw:
                # Batched per-sample outer products, reduced over N.
                gw = np.matmul(g3, x3.transpose(0, 2, 1)).sum(axis=0)
                gw = gw.reshape(c_out, c_in, 1, 1)
            gb = g.sum(axis=(0, 2, 3)) if need_gb else None
            gx = None
            if need_gx:
                gx = np.matmul(w2d.T, g3).reshape(x_shape)
            return gw, gb, gx

        _, colsT, w2d, x_shape, kh, kw, stride, ph, pw, cols_order = ctx
        c_out, c_in = g.shape[1], x_shape[1]
        gw = gb = gx = None
        if need_gw or need_gb:
            # (N, c_out, oh, ow) -> (c_out, n·oh·ow) in colsT's column order.
            gT = np.empty((c_out, colsT.shape[1]), dtype=g.dtype)
            _as_nchw(gT, g.shape, cols_order)[...] = g
            if need_gw:
                # colsT, the long operand, streams through the GEMM once as its
                # left side; only the small product is transposed.
                gw = np.ascontiguousarray((colsT @ gT.T).T).reshape(c_out, c_in, kh, kw)
            if need_gb:
                gb = gT.sum(axis=1)
        if need_gx:
            w4 = w2d.reshape(c_out, c_in, kh, kw)
            gx = self._conv2d_input_grad(g, w4, x_shape, stride, ph, pw)
        return gw, gb, gx

    def _conv2d_input_grad(
        self,
        g: np.ndarray,
        w4: np.ndarray,
        x_shape: tuple[int, int, int, int],
        stride: int,
        ph: int,
        pw: int,
    ) -> np.ndarray:
        """``gx`` without a scatter: every element is written once, by a GEMM.

        ``gx[n, ci, y, x] = Σ g[n, co, (y+ph-i)/s, (x+pw-j)/s] · w[co, ci, i, j]``
        over the taps ``(i, j)`` that divide evenly.  The rows ``y ≡ ry`` and
        columns ``x ≡ rx (mod s)`` see only the taps ``i ≡ ry+ph``,
        ``j ≡ rx+pw``, so each of the s² phases of ``gx`` is a stride-1
        correlation of ``g`` with a sub-kernel (stride 1: one phase, the
        whole kernel) — no dilated zeros are gathered or multiplied.

        Each phase is the forward's gather + GEMM with the roles of the
        channels swapped: ``phase[n, ci, y, x] = Σ g[n, co, y+dy-i, x+dx-j] ·
        sub[co, ci, i, j]``, so ``g`` goes into a zero frame of
        ``(h+kh-1, w+kw-1)`` at offset ``(kh-1-dy, kw-1-dx)`` — negative when
        the padding exceeded k-1, then it crops — and the flipped,
        channel-transposed sub-kernel multiplies the frame's patches.
        """
        c_in = x_shape[1]
        gx = np.empty(x_shape, dtype=np.result_type(g, w4))
        for ry in range(stride):
            i0 = (ry + ph) % stride
            for rx in range(stride):
                j0 = (rx + pw) % stride
                phase = gx[:, :, ry::stride, rx::stride]
                sub = w4[:, :, i0::stride, j0::stride]
                kh, kw = sub.shape[2:]
                if kh == 0 or kw == 0:
                    phase[...] = 0  # no tap reaches these pixels (k < stride)
                    continue
                dy, dx = (ry + ph - i0) // stride, (rx + pw - j0) // stride
                w_flip = sub[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
                h, w = phase.shape[2:]
                framing = (h + kh - 1, w + kw - 1, kh - 1 - dy, kw - 1 - dx)
                self._gather_gemm(phase, g, w_flip, kh, kw, 1, framing)
        return gx

    # -- batch norm ----------------------------------------------------

    def batch_norm_backward(
        self,
        g: np.ndarray,
        x_hat: np.ndarray,
        inv_std: np.ndarray,
        gamma: np.ndarray,
        axes: tuple[int, ...],
        training: bool,
        need_ggamma: bool,
        need_gbeta: bool,
        need_gx: bool,
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        """Training mode fused: the two per-channel sums ``Σg`` and ``Σg·x̂``
        are the β and γ gradients *and* all that ``gx`` needs of the batch,
        so they are reduced once and ``gx = a·g + c2·x̂ + c3`` follows with
        per-channel constants ``a = γ·inv_std``, ``c2 = -a·Σg·x̂/n``,
        ``c3 = -a·Σg/n`` — six passes over the activation and one pooled
        temporary where the reference makes twelve passes and eight
        temporaries.  The reductions run in another order, hence the
        ``tolerance`` tag."""
        if not training:
            return super().batch_norm_backward(
                g, x_hat, inv_std, gamma, axes, training, need_ggamma, need_gbeta, need_gx
            )
        dims = list(range(g.ndim))
        sum_gxhat = np.einsum(g, dims, x_hat, dims, [1])
        sum_g = g.sum(axis=axes)
        gx = None
        if need_gx:
            shape = inv_std.shape
            a = gamma * inv_std.reshape(-1)
            a_over_n = a * (-gamma.size / x_hat.size)
            gx = g * a.reshape(shape)
            tmp = _scratch("bn_gx", g.shape, gx.dtype)
            np.multiply(x_hat, (a_over_n * sum_gxhat).reshape(shape), out=tmp)
            gx += tmp
            gx += (a_over_n * sum_g).reshape(shape)
        return (sum_gxhat if need_ggamma else None, sum_g if need_gbeta else None, gx)

    # -- fused optimizers ----------------------------------------------

    def adam_update(
        self,
        flat: np.ndarray,
        g: np.ndarray,
        m: np.ndarray,
        v: np.ndarray,
        tmp: np.ndarray,
        decay_mask: np.ndarray | None,
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
        step: int,
    ) -> None:
        """Allocation-free Adam chain: the reference's exact elementwise
        ops rewritten in ``out=`` form over ``tmp`` and the (dead after
        the moment updates) gradient buffer — bit-exact, zero fresh
        temporaries per step."""
        if decay_mask is not None:
            np.multiply(decay_mask, flat, out=tmp)
            g += tmp
        m *= beta1
        np.multiply(g, 1 - beta1, out=tmp)
        m += tmp
        v *= beta2
        np.multiply(g, 1 - beta2, out=tmp)
        tmp *= g
        v += tmp
        # g is dead now: reuse it for the denominator √(v̂) + eps.
        np.divide(v, 1 - beta2**step, out=g)
        np.sqrt(g, out=g)
        g += eps
        np.divide(m, 1 - beta1**step, out=tmp)
        tmp *= lr
        tmp /= g
        flat -= tmp

    def segment_norms(
        self, x: np.ndarray, seg_starts: np.ndarray, seg_sizes: np.ndarray
    ) -> np.ndarray:
        """Segmented L2 norms in two vector ops: square the whole slab
        into pooled scratch, ``np.add.reduceat`` at the precomputed
        segment boundaries, one sqrt over the per-segment sums."""
        sq = _scratch("segnorm_sq", x.shape, np.float32)
        np.multiply(x, x, out=sq)
        sums = np.add.reduceat(sq, seg_starts)
        return np.sqrt(sums, out=sums)

    def lamb_update(
        self,
        flat: np.ndarray,
        g: np.ndarray,
        m: np.ndarray,
        v: np.ndarray,
        tmp: np.ndarray,
        decay_mask: np.ndarray | None,
        seg_starts: np.ndarray,
        seg_sizes: np.ndarray,
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
        step: int,
    ) -> None:
        """Whole-arena LAMB: one vectorized moment/update chain, then
        segmented trust-ratio norms via :meth:`segment_norms` broadcast
        back over the tiling with ``np.repeat``.  Tolerance-tagged: the
        reduceat summation order differs from the per-segment dots."""
        m *= beta1
        np.multiply(g, 1 - beta1, out=tmp)
        m += tmp
        v *= beta2
        np.multiply(g, 1 - beta2, out=tmp)
        tmp *= g
        v += tmp
        # g is dead: reuse it as the update vector u = m̂/(√v̂+eps)+wd·w.
        den = _scratch("lamb_den", flat.shape, np.float32)
        np.divide(v, 1 - beta2**step, out=den)
        np.sqrt(den, out=den)
        den += eps
        np.divide(m, 1 - beta1**step, out=g)
        g /= den
        if decay_mask is not None:
            np.multiply(decay_mask, flat, out=den)
            g += den
        w_norm = self.segment_norms(flat, seg_starts, seg_sizes)
        u_norm = self.segment_norms(g, seg_starts, seg_sizes)
        ratio = np.ones_like(w_norm)
        ok = (w_norm > 0) & (u_norm > 0)
        np.divide(w_norm, u_norm, out=ratio, where=ok)
        ratio *= np.float32(lr)
        np.multiply(g, np.repeat(ratio, seg_sizes), out=tmp)
        flat -= tmp


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_BACKENDS: dict[str, Backend] = {}


def register(backend: Backend) -> Backend:
    """Add a backend instance to the registry (name collisions replace)."""
    _BACKENDS[backend.name] = backend
    return backend


register(NumpyBackend())
register(FastBackend())


def available() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKENDS)


def get(name: str) -> Backend:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(available())}"
        ) from None


def _default() -> Backend:
    return get(os.environ.get("REPRO_BACKEND", "numpy"))


_ACTIVE: Backend = _default()


def active() -> Backend:
    """The backend every dispatched op currently routes through."""
    return _ACTIVE


def set_backend(name: str) -> Backend:
    """Select the active backend process-wide; returns it."""
    global _ACTIVE
    _ACTIVE = get(name)
    return _ACTIVE


@contextmanager
def use(name: str):
    """Temporarily select a backend::

        with backend.use("fast"):
            model(x)
    """
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = get(name)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = prev
