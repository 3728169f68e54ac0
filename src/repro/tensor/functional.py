"""Functional neural-network primitives on top of :class:`repro.tensor.Tensor`.

Fused implementations of the affine map, softmax / log-softmax /
cross-entropy, embedding lookup and dropout.  These are fused (single graph
node with a hand-written backward) both for numerical stability and to keep
graphs shallow on long sequences.  Every backward here builds the array it
hands to a parent, so it donates it (``owned=True`` — see the ownership
rules in :mod:`repro.tensor.tensor`).
"""

from __future__ import annotations

import numpy as np

from . import backend as _backend
from . import profiler as _profiler
from .tensor import Tensor

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "embedding",
    "dropout",
    "one_hot",
    "bias_relu",
    "linear",
]


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fused affine map ``x @ weight.T + bias`` — one graph node, not three.

    ``weight`` is ``(out, in)`` and ``x`` is ``(..., in)``; leading axes are
    flattened so forward and backward are one GEMM each.  The forward GEMM
    is the active backend's ``linear`` op, whose orientation may depend on
    the shape but whose bytes may not.  The backward
    writes the weight gradient directly in ``(out, in)`` layout
    (``g2d.T @ x2d``, no transposed copy), skips the input-gradient GEMM
    when ``x`` is data, and emits this layer's leaf gradients before the
    input gradient so they arrive as early as the pass allows.  For 2-D
    inputs the arithmetic is the composite's, GEMM for GEMM; the recorded
    MACs are the composite's for any input.
    """
    w = weight.data
    x2d = x.data.reshape(-1, w.shape[1])
    out = _backend.active().linear(x2d, w)
    if _profiler.profiling_active():
        _profiler.record_gemm(out.size * w.shape[1])
    if bias is not None:
        out += bias.data
    out = out.reshape(*x.data.shape[:-1], w.shape[0])

    def backward(g: np.ndarray) -> None:
        g2d = g.reshape(-1, w.shape[0])
        if weight.requires_grad:
            weight._accumulate(g2d.T @ x2d, owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g2d.sum(axis=0), owned=True)
        if x.requires_grad:
            x._accumulate((g2d @ w).reshape(x.data.shape), owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._from_op(out, parents, backward, "linear")


def bias_relu(x: Tensor, bias: Tensor) -> Tensor:
    """Fused ``relu(x + bias)`` — one graph node instead of two.

    The heavy lifting dispatches through the active backend: the ``fast``
    backend computes ``maximum(x + b, 0)`` in a single in-place pass; the
    ``numpy`` reference keeps the two-step mask form, bit-exact with an
    unfused ``(x + bias).relu()``.  The gradient masks agree everywhere
    (``out > 0`` equals ``x + b > 0``, including at ±0), and
    ``Tensor._accumulate`` unbroadcasts the bias gradient to its shape.
    """
    out, mask = _backend.active().bias_relu(x.data, bias.data)

    def backward(g: np.ndarray) -> None:
        m = mask if mask is not None else out > 0
        gm = g * m
        # ``x`` adopts the masked gradient; the bias sums (or copies) it.
        x._accumulate(gm, owned=True)
        bias._accumulate(gm)

    return Tensor._from_op(out, (x, bias), backward, "bias_relu")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        # dL/dx = s * (g - sum(g * s))
        dot = (g * out).sum(axis=axis, keepdims=True)
        x._accumulate(out * (g - dot), owned=True)

    return Tensor._from_op(out.astype(x.dtype, copy=False), (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_z
    s = np.exp(out)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g - s * g.sum(axis=axis, keepdims=True), owned=True)

    return Tensor._from_op(out.astype(x.dtype, copy=False), (x,), backward, "log_softmax")


def nll_loss(log_probs: Tensor, targets: np.ndarray, ignore_index: int | None = None) -> Tensor:
    """Negative log-likelihood of integer ``targets`` under ``log_probs``.

    ``log_probs`` is ``(N, C)``; ``targets`` is ``(N,)`` of ints.  Entries
    equal to ``ignore_index`` contribute nothing (used for padding tokens).
    """
    targets = np.asarray(targets)
    n = log_probs.data.shape[0]
    rows = np.arange(n)
    if ignore_index is not None:
        keep = targets != ignore_index
        count = max(int(keep.sum()), 1)
    else:
        keep = np.ones(n, dtype=bool)
        count = n
    picked = log_probs.data[rows, np.where(keep, targets, 0)]
    loss_val = -(picked * keep).sum() / count

    def backward(g: np.ndarray) -> None:
        grad = np.zeros_like(log_probs.data)
        grad[rows[keep], targets[keep]] = -1.0 / count
        log_probs._accumulate(grad * g, owned=True)

    return Tensor._from_op(
        np.asarray(loss_val, dtype=log_probs.dtype), (log_probs,), backward, "nll"
    )


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    label_smoothing: float = 0.0,
    ignore_index: int | None = None,
) -> Tensor:
    """Softmax cross-entropy with optional label smoothing.

    A fused node: computes log-softmax internally and backpropagates the
    classic ``p - y`` gradient directly to ``logits``.
    """
    targets = np.asarray(targets)
    x = logits.data
    n, c = x.shape[0], x.shape[-1]
    x2d = x.reshape(-1, c)
    t1d = targets.reshape(-1)
    rows = np.arange(x2d.shape[0])

    if ignore_index is not None:
        keep = t1d != ignore_index
    else:
        keep = np.ones(x2d.shape[0], dtype=bool)
    count = max(int(keep.sum()), 1)

    shifted = x2d - x2d.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - log_z

    safe_t = np.where(keep, t1d, 0)
    if label_smoothing > 0.0:
        eps = label_smoothing
        # Smoothed target: (1-eps) on the true class, eps/C elsewhere.
        loss_rows = -(1.0 - eps) * logp[rows, safe_t] - (eps / c) * logp.sum(axis=1)
    else:
        loss_rows = -logp[rows, safe_t]
    loss_val = (loss_rows * keep).sum() / count

    probs = np.exp(logp)

    def backward(g: np.ndarray) -> None:
        grad = probs.copy()
        if label_smoothing > 0.0:
            grad -= label_smoothing / c
            grad[rows, safe_t] -= 1.0 - label_smoothing
        else:
            grad[rows, safe_t] -= 1.0
        grad *= (keep / count)[:, None]
        logits._accumulate(grad.reshape(x.shape) * g, owned=True)

    return Tensor._from_op(
        np.asarray(loss_val, dtype=x.dtype), (logits,), backward, "cross_entropy"
    )


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``weight[indices]`` with scatter-add backward.

    ``indices`` may have any shape; the result appends the embedding
    dimension.
    """
    indices = np.asarray(indices)
    out = weight.data[indices]

    def backward(g: np.ndarray) -> None:
        grad = np.zeros_like(weight.data)
        np.add.at(grad, indices.reshape(-1), g.reshape(-1, weight.data.shape[1]))
        weight._accumulate(grad, owned=True)

    return Tensor._from_op(out, (weight,), backward, "embedding")


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: identity at eval time, scaled mask at train time."""
    if not training or p <= 0.0:
        return x
    mask = (rng.random(x.data.shape) >= p).astype(x.dtype) / (1.0 - p)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * mask, owned=True)

    return Tensor._from_op(x.data * mask, (x,), backward, "dropout")


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Plain one-hot encoding helper (returns ndarray, not Tensor)."""
    indices = np.asarray(indices)
    out = np.zeros((indices.size, num_classes), dtype=np.float32)
    out[np.arange(indices.size), indices.reshape(-1)] = 1.0
    return out.reshape(*indices.shape, num_classes)
