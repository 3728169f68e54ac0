"""VGG networks with BatchNorm (Simonyan & Zisserman 2014).

Reproduces the appendix-Table 11 architecture for CIFAR-scale inputs, with
a ``width_mult`` knob so CPU-scale experiments can exercise the identical
topology at reduced width.  ``vgg19_hybrid_config`` encodes the paper's
hybrid choice: convolutions 10-16 factorized (K = 10), classifier FCs and
everything earlier full-rank.
"""

from __future__ import annotations

from ..core.fold import sequential_conv_bn_pairs
from ..core.hybrid import FactorizationConfig
from ..nn import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)

__all__ = [
    "VGG",
    "vgg11",
    "vgg19",
    "vgg19_lth",
    "vgg19_hybrid_config",
    "vgg11_hybrid_config",
    "vgg19_lth_hybrid_config",
]

# Layer plans: ints are conv output widths, "M" is 2×2 max-pooling.
_PLANS = {
    11: [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    19: [64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M",
         512, 512, 512, 512, "M", 512, 512, 512, 512, "M"],
}


class VGG(Module):
    """VGG-BN backbone + the paper's 512-512-classes FC head.

    Parameters
    ----------
    depth: 11 or 19.
    num_classes: classifier width.
    width_mult: scales every conv/FC width (1.0 = paper architecture).
    in_size: input spatial size; must be divisible by 32 (five pools).
    Inputs are RGB.
    """

    def __init__(
        self,
        depth: int = 19,
        num_classes: int = 10,
        width_mult: float = 1.0,
        in_size: int = 32,
    ):
        super().__init__()
        if depth not in _PLANS:
            raise ValueError(f"unsupported VGG depth {depth}")
        if in_size % 32 != 0:
            raise ValueError("in_size must be divisible by 32")
        self.depth = depth
        scale = lambda w: max(8, int(w * width_mult))

        layers: list[Module] = []
        c_prev = 3
        for item in _PLANS[depth]:
            if item == "M":
                layers.append(MaxPool2d(2, 2))
            else:
                c = scale(item)
                layers.append(Conv2d(c_prev, c, 3, stride=1, padding=1, bias=False))
                layers.append(BatchNorm2d(c))
                layers.append(ReLU())
                c_prev = c
        self.features = Sequential(*layers)

        spatial = in_size // 32
        feat = c_prev * spatial * spatial
        hidden = scale(512)
        self.classifier = Sequential(
            Flatten(),
            Linear(feat, hidden),
            ReLU(),
            Linear(hidden, hidden),
            ReLU(),
            Linear(hidden, num_classes),
        )

    def forward(self, x):
        return self.classifier(self.features(x))

    def conv_bn_pairs(self):
        """The (conv, BN) pairs :func:`repro.core.fold_batchnorm` folds."""
        return sequential_conv_bn_pairs(self.features)


def vgg11(num_classes: int = 10, width_mult: float = 1.0) -> VGG:
    """VGG-11-BN (used in Fig. 2a's from-scratch low-rank study)."""
    return VGG(11, num_classes, width_mult)


def vgg19(num_classes: int = 10, width_mult: float = 1.0) -> VGG:
    """VGG-19-BN, the paper's main CIFAR-10 VGG."""
    return VGG(19, num_classes, width_mult)


def vgg19_hybrid_config(rank_ratio: float = 0.25) -> FactorizationConfig:
    """The paper's hybrid VGG-19: K = 10 — convs 10-16 *and* the two hidden
    classifier FCs low-rank, final classifier full-rank.

    Note: appendix Table 11 draws fc17/fc18 as full-rank, but Table 4's
    parameter count (8,370,634) is only reproduced when both 512×512 FCs are
    factorized at rank 128; with this config our count matches exactly.
    """
    return FactorizationConfig(
        rank_ratio=rank_ratio,
        first_lowrank_index=9,  # leaves 0-8 are conv1..conv9
        skip_first_conv=True,
        skip_last_fc=True,
    )


class VGGLTH(Module):
    """The open_lth-style VGG-19: conv stack + a single FC classifier
    (appendix Table 18).  Used for the Fig. 5 / LTH comparison, where the
    paper deploys Pufferfish on the LTH repo's architecture "for fairer
    comparison".  Inputs are 32×32 RGB."""

    def __init__(self, num_classes: int = 10, width_mult: float = 1.0):
        super().__init__()
        scale = lambda w: max(8, int(w * width_mult))
        layers: list[Module] = []
        c_prev = 3
        for item in _PLANS[19]:
            if item == "M":
                layers.append(MaxPool2d(2, 2))
            else:
                c = scale(item)
                layers.append(Conv2d(c_prev, c, 3, stride=1, padding=1, bias=False))
                layers.append(BatchNorm2d(c))
                layers.append(ReLU())
                c_prev = c
        self.features = Sequential(*layers)
        # Five 2×2 pools take 32×32 to 1×1.
        self.classifier = Sequential(Flatten(), Linear(c_prev, num_classes))

    def forward(self, x):
        return self.classifier(self.features(x))


def vgg19_lth(num_classes: int = 10, width_mult: float = 1.0) -> VGGLTH:
    """VGG-19 with a single FC head, matching open_lth (appendix Table 18)."""
    return VGGLTH(num_classes, width_mult)


def vgg19_lth_hybrid_config() -> FactorizationConfig:
    """Hybrid config for the LTH-variant VGG-19: convs 10-16 low-rank at rank
    ratio 0.25, the single classifier FC full-rank (appendix Table 18)."""
    return FactorizationConfig(
        rank_ratio=0.25,
        first_lowrank_index=9,
        skip_first_conv=True,
        skip_last_fc=True,
    )


def vgg11_hybrid_config(rank_ratio: float = 0.25) -> FactorizationConfig:
    """Fully-low-rank VGG-11 used in Fig. 2a (all but first conv/last FC)."""
    return FactorizationConfig(
        rank_ratio=rank_ratio,
        first_lowrank_index=0,
        skip_first_conv=True,
        skip_last_fc=True,
    )
