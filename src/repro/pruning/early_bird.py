"""Early-Bird Tickets (You et al. 2019) — the Table 7 structured-pruning
baseline.

EB Train ranks channels by the magnitude of their BatchNorm scale γ,
computes a prune mask at a target channel-prune ratio each epoch, and
declares the "early-bird ticket" drawn once the mask stops changing (the
normalized Hamming distance between consecutive masks stays below a
threshold for a few epochs).  Training then stops early, the network is
*structurally* slimmed (channels physically removed, giving a dense
smaller model like Pufferfish's), and the slim model is fine-tuned.

Structured removal is implemented for the architectures the paper
evaluates: VGG-style conv→BN chains and ResNet blocks, where only
block-internal channels are pruned so residual shapes stay intact.
"""

from __future__ import annotations


import numpy as np

from ..models.resnet import BasicBlock, Bottleneck, ResNet
from ..models.vgg import VGG
from ..nn import BatchNorm2d, Conv2d, Linear, MaxPool2d, ReLU, Sequential, Flatten
from ..nn.module import Module
from ..tensor import Tensor

__all__ = [
    "bn_channel_scores",
    "channel_mask",
    "mask_distance",
    "EarlyBirdDetector",
    "prune_vgg",
    "prune_resnet",
    "bn_l1_penalty",
]


def bn_channel_scores(
    model: Module, prunable_bns: list[str] | None = None
) -> dict[str, np.ndarray]:
    """|γ| per channel for each prunable BatchNorm layer."""
    scores = {}
    for path, mod in model.named_modules():
        if isinstance(mod, BatchNorm2d):
            if prunable_bns is None or path in prunable_bns:
                scores[path] = np.abs(mod.weight.data)
    return scores


def channel_mask(
    scores: dict[str, np.ndarray], prune_ratio: float
) -> dict[str, np.ndarray]:
    """Keep-masks from a *global* threshold over all scored channels."""
    all_scores = np.concatenate([s for s in scores.values()])
    k = int(prune_ratio * all_scores.size)
    if k == 0:
        return {p: np.ones_like(s, dtype=bool) for p, s in scores.items()}
    threshold = np.partition(all_scores, k)[k]
    masks = {}
    for path, s in scores.items():
        keep = s >= threshold
        if not keep.any():  # never remove a whole layer
            keep[np.argmax(s)] = True
        masks[path] = keep
    return masks


def mask_distance(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> float:
    """Normalized Hamming distance between two channel-mask sets."""
    diff = 0
    total = 0
    for path in a:
        diff += int((a[path] != b[path]).sum())
        total += a[path].size
    return diff / max(total, 1)


class EarlyBirdDetector:
    """Declares the early-bird ticket when masks stabilize.

    ``update`` is called once per epoch with the current model; returns True
    once the last ``patience`` consecutive mask distances were all below
    ``threshold`` (You et al. use a FIFO of distances with threshold 0.1).
    """

    def __init__(
        self,
        prune_ratio: float,
        threshold: float = 0.1,
        patience: int = 3,
        prunable_bns: list[str] | None = None,
    ):
        self.prune_ratio = prune_ratio
        self.threshold = threshold
        self.patience = patience
        self.prunable_bns = prunable_bns
        self._last_mask: dict[str, np.ndarray] | None = None
        self._distances: list[float] = []
        self.found_at: int | None = None

    def update(self, model: Module, epoch: int) -> bool:
        mask = channel_mask(
            bn_channel_scores(model, self.prunable_bns), self.prune_ratio
        )
        if self._last_mask is not None:
            self._distances.append(mask_distance(mask, self._last_mask))
        self._last_mask = mask
        recent = self._distances[-self.patience :]
        if len(recent) == self.patience and all(d < self.threshold for d in recent):
            if self.found_at is None:
                self.found_at = epoch
            return True
        return False

    @property
    def mask(self) -> dict[str, np.ndarray] | None:
        return self._last_mask


def bn_l1_penalty(model: Module, coeff: float = 1e-4) -> Tensor:
    """Network slimming's sparsity term ``coeff · Σ|γ|`` over every BN scale,
    added to the loss during the EB search phase.  Its γ gradient is
    ``coeff · sign(γ)``."""
    return coeff * sum(
        mod.weight.abs().sum() for mod in model.modules() if isinstance(mod, BatchNorm2d)
    )


# ---------------------------------------------------------------------------
# Structural slimming
# ---------------------------------------------------------------------------

def _slice_conv(conv: Conv2d, keep_out: np.ndarray | None, keep_in: np.ndarray | None) -> Conv2d:
    """New Conv2d with selected in/out channels, weights copied."""
    w = conv.weight.data
    if keep_out is not None:
        w = w[keep_out]
    if keep_in is not None:
        w = w[:, keep_in]
    new = Conv2d(
        w.shape[1], w.shape[0], conv.kernel_size, conv.stride, conv.padding,
        bias=conv.bias is not None,
    )
    new.weight.data = w.copy()
    if conv.bias is not None:
        b = conv.bias.data
        new.bias.data = (b[keep_out] if keep_out is not None else b).copy()
    return new


def _slice_bn(bn: BatchNorm2d, keep: np.ndarray) -> BatchNorm2d:
    new = BatchNorm2d(int(keep.sum()), eps=bn.eps, momentum=bn.momentum)
    new.weight.data = bn.weight.data[keep].copy()
    new.bias.data = bn.bias.data[keep].copy()
    new._set_buffer("running_mean", bn.running_mean[keep].copy())
    new._set_buffer("running_var", bn.running_var[keep].copy())
    return new


def prune_vgg(model: VGG, masks: dict[str, np.ndarray]) -> Module:
    """Structurally slim a VGG: every conv's output channels follow its BN
    keep-mask; the next conv's input channels follow suit.  Returns a new
    (generic Module) network with the same topology."""
    mods = list(model.features._modules.values())
    new_layers: list[Module] = []
    keep_prev: np.ndarray | None = None
    paths = {id(m): p for p, m in model.named_modules()}

    i = 0
    while i < len(mods):
        mod = mods[i]
        if isinstance(mod, Conv2d):
            bn = mods[i + 1]
            bn_path = paths[id(bn)]
            keep = masks.get(bn_path, np.ones(mod.out_channels, dtype=bool))
            new_layers.append(_slice_conv(mod, keep, keep_prev))
            new_layers.append(_slice_bn(bn, keep))
            new_layers.append(ReLU())
            keep_prev = keep
            i += 3
        elif isinstance(mod, MaxPool2d):
            new_layers.append(MaxPool2d(mod.kernel_size, mod.stride))
            i += 1
        else:
            i += 1

    # Classifier: first Linear's input features follow the final conv mask.
    cls_mods = list(model.classifier._modules.values())
    new_cls: list[Module] = [Flatten()]
    first_linear = True
    for mod in cls_mods:
        if isinstance(mod, Linear):
            if first_linear and keep_prev is not None:
                # feature layout: (C, H, W) flattened; compute H*W block size
                c_full = keep_prev.size
                hw = mod.in_features // c_full
                col_mask = np.repeat(keep_prev, hw)
                new_lin = Linear(int(col_mask.sum()), mod.out_features, bias=mod.bias is not None)
                new_lin.weight.data = mod.weight.data[:, col_mask].copy()
                if mod.bias is not None:
                    new_lin.bias.data = mod.bias.data.copy()
                new_cls.append(new_lin)
                first_linear = False
            else:
                new_lin = Linear(mod.in_features, mod.out_features, bias=mod.bias is not None)
                new_lin.weight.data = mod.weight.data.copy()
                if mod.bias is not None:
                    new_lin.bias.data = mod.bias.data.copy()
                new_cls.append(new_lin)
        elif isinstance(mod, ReLU):
            new_cls.append(ReLU())

    class SlimVGG(Module):
        def __init__(self, features, classifier):
            super().__init__()
            self.features = features
            self.classifier = classifier

        def forward(self, x):
            return self.classifier(self.features(x))

    return SlimVGG(Sequential(*new_layers), Sequential(*new_cls))


def prune_resnet(model: ResNet, masks: dict[str, np.ndarray]) -> ResNet:
    """Slim a ResNet in place-copy: only block-*internal* channels are
    removed (BasicBlock: conv1/bn1 outputs; Bottleneck: conv1/bn1 and
    conv2/bn2), so every residual join keeps its original width — the same
    restriction real channel-pruning implementations apply."""
    import copy

    new_model = copy.deepcopy(model)
    paths = dict(new_model.named_modules())
    for path, mod in list(paths.items()):
        if isinstance(mod, BasicBlock):
            keep = masks.get(f"{path}.bn1")
            if keep is None:
                continue
            mod.conv1 = _slice_conv(mod.conv1, keep, None)
            mod.bn1 = _slice_bn(mod.bn1, keep)
            mod.conv2 = _slice_conv(mod.conv2, None, keep)
        elif isinstance(mod, Bottleneck):
            keep1 = masks.get(f"{path}.bn1")
            keep2 = masks.get(f"{path}.bn2")
            if keep1 is not None:
                mod.conv1 = _slice_conv(mod.conv1, keep1, None)
                mod.bn1 = _slice_bn(mod.bn1, keep1)
                mod.conv2 = _slice_conv(mod.conv2, None, keep1)
            if keep2 is not None:
                mod.conv2 = _slice_conv(mod.conv2, keep2, None)
                mod.bn2 = _slice_bn(mod.bn2, keep2)
                mod.conv3 = _slice_conv(mod.conv3, None, keep2)
    return new_model


def resnet_internal_bns(model: ResNet) -> list[str]:
    """BN paths safe to prune in a ResNet (block-internal only)."""
    out = []
    for path, mod in model.named_modules():
        if isinstance(mod, BasicBlock):
            out.append(f"{path}.bn1")
        elif isinstance(mod, Bottleneck):
            out.append(f"{path}.bn1")
            out.append(f"{path}.bn2")
    return out
