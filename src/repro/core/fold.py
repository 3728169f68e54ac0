"""BatchNorm folded into the conv before it, for serving.

In eval mode a ``BatchNorm2d`` is a fixed per-channel affine map,
``y = (x - mean) * s + beta`` with ``s = gamma / sqrt(var + eps)``.  When it
directly follows a conv, the conv can apply it: scale kernel row ``c`` by
``s[c]`` and add the bias ``beta - mean * s`` (plus ``s * b`` if the conv
already had a bias ``b``).  A factorized conv (Fig. 1: ``U`` k×k → r, ``V``
1×1 → c_out, then BN) takes it into ``V``, whose rows are the output
channels, so ``U`` is untouched.

The models declare which (conv, BN) pairs qualify through a
``conv_bn_pairs()`` method (a BN whose input is exactly that conv's output
and nothing else's).  :func:`fold_batchnorm` never touches the trained
model: it returns an eval-only copy whose state dict is byte-identical to
the original's — the folded kernels are plain derived tensors on the conv
and the absorbed BN passes its input through — and which raises
:class:`~repro.nn.module.FoldedModelError` on ``train(True)`` and
``load_state_dict``.
"""

from __future__ import annotations

import copy

import numpy as np

from ..nn.conv import Conv2d
from ..nn.module import Module
from ..nn.norm import BatchNorm2d
from ..tensor import Tensor
from .layers import LowRankConv2d

__all__ = ["fold_batchnorm", "folded_pairs", "sequential_conv_bn_pairs"]


def sequential_conv_bn_pairs(seq) -> list[tuple[Module, BatchNorm2d]]:
    """Every conv of a ``Sequential`` immediately followed by a BatchNorm2d."""
    mods = list(seq.children())
    return [
        (conv, bn)
        for conv, bn in zip(mods, mods[1:])
        if isinstance(conv, (Conv2d, LowRankConv2d)) and isinstance(bn, BatchNorm2d)
    ]


def _fold(conv: Module, bn: BatchNorm2d) -> None:
    if isinstance(conv, LowRankConv2d):
        conv = conv.conv_v
    if not isinstance(conv, Conv2d) or not isinstance(bn, BatchNorm2d):
        raise TypeError(
            f"cannot fold {type(bn).__name__} into {type(conv).__name__}"
        )
    if conv.out_channels != bn.num_features:
        raise ValueError(
            f"conv has {conv.out_channels} output channels, BN {bn.num_features}"
        )
    # float64 for the fold itself, one rounding to float32 at the end.
    scale = bn.weight.data.astype(np.float64) / np.sqrt(
        bn.running_var.astype(np.float64) + bn.eps
    )
    shift = bn.bias.data - bn.running_mean.astype(np.float64) * scale
    if conv.bias is not None:
        shift += conv.bias.data * scale
    conv.folded_weight = Tensor(
        (conv.weight.data * scale[:, None, None, None]).astype(np.float32)
    )
    conv.folded_bias = Tensor(shift.astype(np.float32))
    bn.absorbed = True


def fold_batchnorm(model: Module) -> Module:
    """An eval-only copy of ``model`` with every declared (conv, BN) pair
    folded; ``model`` itself is not modified."""
    out = copy.deepcopy(model)
    out.eval()
    for mod in list(out.modules()):
        if hasattr(mod, "conv_bn_pairs"):
            for conv, bn in mod.conv_bn_pairs():
                _fold(conv, bn)
    for mod in out.modules():
        mod.folded = True
    return out


def folded_pairs(model: Module) -> int:
    """How many BatchNorms of ``model`` are folded into a conv."""
    return sum(1 for m in model.modules() if isinstance(m, BatchNorm2d) and m.absorbed)
