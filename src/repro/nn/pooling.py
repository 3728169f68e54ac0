"""Pooling modules."""

from __future__ import annotations

from ..tensor import Tensor, avg_pool2d, global_avg_pool2d, max_pool2d
from .module import Module

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d", "Flatten"]


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(k={self.kernel_size}, s={self.stride})"


class AvgPool2d(Module):
    """Non-overlapping average pooling (stride = kernel size)."""

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return avg_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"AvgPool2d(k={self.kernel_size}, s={self.stride})"


class GlobalAvgPool2d(Module):
    """Adaptive average pool to 1×1, returned flattened as (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return global_avg_pool2d(x)

    def __repr__(self) -> str:
        return "GlobalAvgPool2d()"


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)

    def __repr__(self) -> str:
        return "Flatten()"
