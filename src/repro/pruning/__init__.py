"""Pruning baselines: Lottery Ticket iterative magnitude pruning and
Early-Bird structured channel pruning."""

from .lth import (
    global_magnitude_mask,
    apply_masks,
    sparsity,
    LTHRunner,
)
from .early_bird import (
    bn_channel_scores,
    channel_mask,
    mask_distance,
    EarlyBirdDetector,
    prune_vgg,
    prune_resnet,
    resnet_internal_bns,
    bn_l1_penalty,
)

__all__ = [
    "global_magnitude_mask",
    "apply_masks",
    "sparsity",
    "LTHRunner",
    "bn_channel_scores",
    "channel_mask",
    "mask_distance",
    "EarlyBirdDetector",
    "prune_vgg",
    "prune_resnet",
    "resnet_internal_bns",
    "bn_l1_penalty",
]
