"""Materialization: convert a trained hybrid model back to vanilla layers.

The inverse of :func:`repro.core.build_hybrid`.  After low-rank training,
each ``LowRankLinear``/``LowRankConv2d``/``LowRankLSTMLayer`` (and
``TuckerConv2d``) is replaced by a vanilla layer whose weight is the
materialized product ``U V^T`` — functionally identical outputs, but in
the standard layer format.

Why this exists: deployment stacks, visualization tools and pruning
baselines all expect vanilla weights.  Materializing costs parameters
(the product is full-size) but removes the extra GEMM per layer, which is
the better trade at inference time for layers whose rank is close to
full, and it makes hybrid checkpoints loadable into vanilla architectures.
"""

from __future__ import annotations

import copy

import numpy as np

from ..nn.conv import Conv2d
from ..nn.linear import Linear
from ..nn.module import Module
from ..nn.rnn import LSTMLayer
from .factorize import _lstm_gates
from .layers import LowRankConv2d, LowRankLinear, LowRankLSTMLayer
from .tucker import TuckerConv2d

__all__ = ["materialize_layer", "materialize_hybrid"]


def materialize_layer(layer: Module) -> Module:
    """Vanilla twin of one low-rank layer (weights = factor product)."""
    if isinstance(layer, LowRankLinear):
        out = Linear(layer.in_features, layer.out_features, bias=layer.bias is not None)
        out.weight.data = layer.effective_weight().astype(np.float32)
        if layer.bias is not None:
            out.bias.data = layer.bias.data.copy()
        return out

    if isinstance(layer, (LowRankConv2d, TuckerConv2d)):
        out = Conv2d(
            layer.in_channels,
            layer.out_channels,
            layer.kernel_size,
            stride=layer.stride,
            padding=layer.padding,
            bias=layer.bias is not None,
        )
        out.weight.data = layer.effective_weight().astype(np.float32)
        if layer.bias is not None:
            out.bias.data = layer.bias.data.copy()
        return out

    if isinstance(layer, LowRankLSTMLayer):
        out = LSTMLayer(layer.input_size, layer.hidden_size)
        h = layer.hidden_size
        _lstm_gates(out.weight_ih.data, h)[...] = layer.u_ih.data @ layer.vt_ih.data
        _lstm_gates(out.weight_hh.data, h)[...] = layer.u_hh.data @ layer.vt_hh.data
        out.bias_ih.data = layer.bias_ih.data.copy()
        out.bias_hh.data = layer.bias_hh.data.copy()
        return out

    raise TypeError(f"cannot materialize {type(layer).__name__}")


_LOWRANK_TYPES = (LowRankLinear, LowRankConv2d, LowRankLSTMLayer, TuckerConv2d)


def materialize_hybrid(model: Module) -> Module:
    """Deep-copied model with every low-rank layer materialized.

    The input model is untouched; the result produces outputs identical to
    the hybrid (up to float32 rounding in the factor products).
    """
    out = copy.deepcopy(model)
    # Collect first (mutating while iterating named_modules is unsafe).
    targets = [
        path for path, mod in out.named_modules() if isinstance(mod, _LOWRANK_TYPES)
    ]
    for path in targets:
        out.set_submodule(path, materialize_layer(out.get_submodule(path)))
    return out
