"""Tucker-2 decomposition of convolution kernels (the paper's "one can
also use tensor decomposition, e.g. the Tucker decomposition" extension —
Section 2.2 leaves it out "for simplicity"; we implement it).

A 4-D kernel ``W ∈ R^{c_out × c_in × k × k}`` is decomposed along its two
channel modes (Kim et al. 2016's standard compression scheme):

    ``W ≈ G ×₁ A ×₂ B``,  ``A ∈ R^{c_out × r_out}``, ``B ∈ R^{c_in × r_in}``

which executes as three convolutions:

    1×1 (c_in → r_in)  →  k×k (r_in → r_out)  →  1×1 (r_out → c_out)

Factors come from HOSVD: ``A``/``B`` are the leading left singular vectors
of the mode-1/mode-2 unfoldings, and the core is the projection of ``W``.
Parameter count: ``c_in·r_in + r_in·r_out·k² + r_out·c_out``.

Kept for: ``benchmarks/test_ablation_extensions.py`` (the Section 2.2
"tensor decomposition" ablation); no zoo model or trainer path uses it.
"""

from __future__ import annotations

import numpy as np

from ..nn.conv import Conv2d
from ..nn.module import Module
from ..tensor import Tensor

__all__ = ["mode_unfold", "mode_fold", "tucker2_decompose", "TuckerConv2d", "tucker_conv_from"]


def mode_unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding: ``(dim_mode, prod(other dims))``."""
    return np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1)


def mode_fold(m: np.ndarray, mode: int, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`mode_unfold`."""
    moved = list(shape)
    dim = moved.pop(mode)
    return np.moveaxis(m.reshape(dim, *moved), 0, mode)


def tucker2_decompose(
    w: np.ndarray, rank_out: int, rank_in: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """HOSVD Tucker-2 of an OIHW kernel along the channel modes.

    Returns ``(core, a, b)`` with shapes ``(r_out, r_in, k, k)``,
    ``(c_out, r_out)``, ``(c_in, r_in)`` such that
    ``W ≈ core ×₁ a ×₂ b``.
    """
    if w.ndim != 4:
        raise ValueError(f"expected OIHW kernel, got shape {w.shape}")
    c_out, c_in = w.shape[:2]
    rank_out = min(rank_out, c_out)
    rank_in = min(rank_in, c_in)

    w64 = w.astype(np.float64)
    u_out, _, _ = np.linalg.svd(mode_unfold(w64, 0), full_matrices=False)
    a = u_out[:, :rank_out]  # (c_out, r_out)
    u_in, _, _ = np.linalg.svd(mode_unfold(w64, 1), full_matrices=False)
    b = u_in[:, :rank_in]  # (c_in, r_in)

    # core = W ×₁ Aᵀ ×₂ Bᵀ
    core = np.einsum("oihw,or,is->rshw", w64, a, b)
    return core.astype(w.dtype), a.astype(w.dtype), b.astype(w.dtype)


def tucker2_reconstruct(core: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``core ×₁ a ×₂ b`` back to the OIHW kernel."""
    return np.einsum("rshw,or,is->oihw", core.astype(np.float64), a, b).astype(core.dtype)


class TuckerConv2d(Module):
    """Tucker-2 factorized convolution: 1×1 → k×k → 1×1.

    Parameter count ``c_in·r_in + r_in·r_out·k² + r_out·c_out`` (+ bias).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rank_in: int,
        rank_out: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ):
        super().__init__()
        if rank_in < 1 or rank_out < 1:
            raise ValueError("Tucker ranks must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.rank_in = rank_in
        self.rank_out = rank_out
        self.stride = stride
        self.padding = padding
        self.conv_in = Conv2d(in_channels, rank_in, 1, bias=False)
        self.conv_core = Conv2d(rank_in, rank_out, kernel_size, stride=stride,
                                padding=padding, bias=False)
        self.conv_out = Conv2d(rank_out, out_channels, 1, bias=bias)

    @property
    def bias(self):
        return self.conv_out.bias

    def forward(self, x: Tensor) -> Tensor:
        return self.conv_out(self.conv_core(self.conv_in(x)))

    def effective_weight(self) -> np.ndarray:
        """Materialize the equivalent full OIHW kernel."""
        core = self.conv_core.weight.data  # (r_out, r_in, k, k)
        b = self.conv_in.weight.data[:, :, 0, 0].T  # (c_in, r_in)
        a = self.conv_out.weight.data[:, :, 0, 0]  # (c_out, r_out)
        return tucker2_reconstruct(core, a, b)

    def __repr__(self) -> str:
        return (
            f"TuckerConv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, r_in={self.rank_in}, r_out={self.rank_out})"
        )


def tucker_conv_from(layer: Conv2d, rank_in: int, rank_out: int) -> TuckerConv2d:
    """Warm-start a :class:`TuckerConv2d` from a trained Conv2d via HOSVD."""
    w = layer.weight.data
    c_out, c_in, k, _ = w.shape
    core, a, b = tucker2_decompose(w, rank_out, rank_in)
    out = TuckerConv2d(
        c_in, c_out, k, rank_in=b.shape[1], rank_out=a.shape[1],
        stride=layer.stride, padding=layer.padding, bias=layer.bias is not None,
    )
    out.conv_in.weight.data = np.ascontiguousarray(b.T[:, :, None, None])
    out.conv_core.weight.data = np.ascontiguousarray(core)
    out.conv_out.weight.data = np.ascontiguousarray(a[:, :, None, None])
    if layer.bias is not None:
        out.conv_out.bias.data = layer.bias.data.copy()
    return out
