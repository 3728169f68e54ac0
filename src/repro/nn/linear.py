"""Fully connected layer."""

from __future__ import annotations

import math


from ..tensor import Tensor, functional
from . import init
from .module import Module, Parameter

__all__ = ["Linear"]


class Linear(Module):
    """Affine map ``y = x W^T + b`` with weight shape ``(out, in)``.

    Keeping the PyTorch ``(out_features, in_features)`` orientation makes
    the SVD factorization bookkeeping in :mod:`repro.core` line up with the
    paper's appendix tables.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        activation: str | None = None,
    ):
        super().__init__()
        if activation not in (None, "relu"):
            raise ValueError(f"unsupported activation: {activation!r}")
        self.in_features = in_features
        self.out_features = out_features
        self.activation = activation
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features)))
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias = Parameter(init.uniform((out_features,), bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        if self.activation == "relu" and self.bias is not None:
            # Two fused graph nodes; the fast backend runs bias+relu in a
            # single in-place pass.
            return functional.bias_relu(functional.linear(x, self.weight), self.bias)
        out = functional.linear(x, self.weight, self.bias)
        if self.activation == "relu":
            out = out.relu()
        return out

    def __repr__(self) -> str:
        act = f", activation={self.activation}" if self.activation else ""
        return (
            f"Linear(in={self.in_features}, out={self.out_features}, "
            f"bias={self.bias is not None}{act})"
        )
