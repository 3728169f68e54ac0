"""Convolution layers."""

from __future__ import annotations

import math

from ..tensor import Tensor, conv2d
from . import init
from .module import Module, Parameter

__all__ = ["Conv2d"]


class Conv2d(Module):
    """2-D convolution with OIHW weights ``(c_out, c_in, k, k)``.

    ``padding`` may be a single int or an ``(pad_h, pad_w)`` pair for
    asymmetric (per-axis) zero padding.
    """

    # The kernel and bias with the next BatchNorm folded in
    # (:func:`repro.core.fold_batchnorm`): plain tensors, not parameters, so
    # the state dict still holds the trained weights.
    folded_weight: Tensor | None = None
    folded_bias: Tensor | None = None

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int | tuple[int, int] = 0,
        bias: bool = True,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kernel_size, kernel_size))
        )
        if bias:
            bound = 1.0 / math.sqrt(in_channels * kernel_size * kernel_size)
            self.bias = Parameter(init.uniform((out_channels,), bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        if self.folded_weight is not None:
            return conv2d(
                x, self.folded_weight, self.folded_bias, stride=self.stride, padding=self.padding
            )
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding}, bias={self.bias is not None})"
        )
