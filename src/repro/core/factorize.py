"""Truncated-SVD factorization of trained layers (the warm-start step).

Implements the weight-transfer rule of Algorithm 1: for each layer past the
hybrid index, compute ``SVD(W) = Ũ Σ Ṽ^T`` truncated at rank ``r`` and split
the singular values symmetrically —

    ``U = Ũ Σ^{1/2}``,  ``V^T = Σ^{1/2} Ṽ^T``

so that neither factor starts with a skewed spectrum.  Convolutions are
factorized through the unrolled ``(c_in k², c_out)`` matrix of vectorized
filters (Section 2.2); LSTM gates are factorized one at a time (Eq. 2).
"""

from __future__ import annotations

import numpy as np

from ..nn.conv import Conv2d
from ..nn.linear import Linear
from ..nn.rnn import LSTMLayer
from .layers import LowRankConv2d, LowRankLinear, LowRankLSTMLayer
from .linalg import svd

__all__ = [
    "factorize_matrix",
    "unroll_conv_weight",
    "roll_conv_factors",
    "default_rank",
    "factorize_linear",
    "factorize_conv2d",
    "factorize_lstm_layer",
    "approximation_error",
]


def factorize_matrix(w: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank-``rank`` truncated SVD of a 2-D matrix with Σ^½ splitting.

    Returns ``(U, V^T)`` with shapes ``(m, r)`` and ``(r, n)`` such that
    ``U @ V^T`` is the best rank-``r`` approximation of ``w``.
    """
    if w.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {w.shape}")
    rank = min(rank, min(w.shape))
    # float64 SVD for accuracy, cast factors back to the weight dtype.
    u_full, s, vt_full = svd(w.astype(np.float64), "the weight", np.linalg.LinAlgError)
    sqrt_s = np.sqrt(s[:rank])
    u = (u_full[:, :rank] * sqrt_s).astype(w.dtype)
    vt = (sqrt_s[:, None] * vt_full[:rank]).astype(w.dtype)
    return u, vt


def _lstm_gates(w: np.ndarray, hidden: int) -> np.ndarray:
    """An LSTM's gate-stacked ``(4h, n)`` matrix as its ``(4, h, n)`` view:
    ``[g]`` is gate ``g``'s ``(h, n)`` block, in the order (i, f, g, o)."""
    return w.reshape(4, hidden, -1)


def unroll_conv_weight(w: np.ndarray) -> np.ndarray:
    """OIHW kernel ``(c_out, c_in, k, k)`` -> unrolled ``(c_in k², c_out)``.

    Each column is one vectorized filter, matching the paper's
    ``W_unrolled ∈ R^{c_in k² × c_out}`` convention.
    """
    c_out = w.shape[0]
    return w.reshape(c_out, -1).T


def roll_conv_factors(
    u: np.ndarray, vt: np.ndarray, c_in: int, c_out: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reshape unrolled factors back to conv kernels.

    ``u (c_in k², r)`` becomes the thin convolution's OIHW kernel
    ``(r, c_in, k, k)``; ``vt (r, c_out)`` becomes the 1×1 mixing kernel
    ``(c_out, r, 1, 1)``.
    """
    rank = u.shape[1]
    u_kernel = u.T.reshape(rank, c_in, k, k)
    v_kernel = vt.T.reshape(c_out, rank, 1, 1)
    return np.ascontiguousarray(u_kernel), np.ascontiguousarray(v_kernel)


def default_rank(full_rank: int, rank_ratio: float) -> int:
    """The paper's global rule: ``r = full_rank × ratio`` (min 1).

    ``full_rank`` is the max possible rank of the (unrolled) weight matrix:
    ``min(c_in k², c_out)`` for convs, ``min(m, n)`` for FC layers.
    """
    return max(1, int(full_rank * rank_ratio))


def factorize_linear(layer: Linear, rank: int) -> LowRankLinear:
    """Build a :class:`LowRankLinear` warm-started from ``layer``'s weights."""
    u, vt = factorize_matrix(layer.weight.data, rank)
    out = LowRankLinear(
        layer.in_features, layer.out_features, rank=u.shape[1], bias=layer.bias is not None
    )
    out.u.data = u
    out.vt.data = vt
    if layer.bias is not None:
        out.bias.data = layer.bias.data.copy()
    return out


def factorize_conv2d(layer: Conv2d, rank: int) -> LowRankConv2d:
    """Build a :class:`LowRankConv2d` warm-started from ``layer``'s kernel."""
    w = layer.weight.data
    c_out, c_in, k, _ = w.shape
    u, vt = factorize_matrix(unroll_conv_weight(w), rank)
    u_kernel, v_kernel = roll_conv_factors(u, vt, c_in, c_out, k)
    out = LowRankConv2d(
        c_in,
        c_out,
        k,
        rank=u.shape[1],
        stride=layer.stride,
        padding=layer.padding,
        bias=layer.bias is not None,
    )
    out.conv_u.weight.data = u_kernel
    out.conv_v.weight.data = v_kernel
    if layer.bias is not None:
        out.conv_v.bias.data = layer.bias.data.copy()
    return out


def factorize_lstm_layer(layer: LSTMLayer, rank: int) -> LowRankLSTMLayer:
    """Factorize each of the eight gate matrices of an LSTM layer."""
    h, d = layer.hidden_size, layer.input_size
    rank = min(rank, h, d)
    out = LowRankLSTMLayer(d, h, rank)
    w_ih, w_hh = _lstm_gates(layer.weight_ih.data, h), _lstm_gates(layer.weight_hh.data, h)
    for gate in range(4):
        out.u_ih.data[gate], out.vt_ih.data[gate] = factorize_matrix(w_ih[gate], rank)
        out.u_hh.data[gate], out.vt_hh.data[gate] = factorize_matrix(w_hh[gate], rank)
    out.bias_ih.data = layer.bias_ih.data.copy()
    out.bias_hh.data = layer.bias_hh.data.copy()
    return out


def approximation_error(w: np.ndarray, u: np.ndarray, vt: np.ndarray) -> float:
    """Relative Frobenius error ``||W - U V^T||_F / ||W||_F``."""
    return float(np.linalg.norm(w - u @ vt) / max(np.linalg.norm(w), 1e-12))
