"""ResNets (He et al. 2016) and WideResNet-50-2 (Zagoruyko & Komodakis).

Provides the two variants the paper trains:

* CIFAR-style ResNet-18 — 3×3 stem, four stages of two BasicBlocks
  (appendix Table 13).
* ImageNet-style ResNet-50 / WideResNet-50-2 — Bottleneck blocks with
  expansion 4 (appendix Tables 14/15); the stem adapts to small synthetic
  inputs when ``small_input=True``.

Each variant ships a hybrid :class:`FactorizationConfig` matching the
appendix: ResNet-18 factorizes everything from the second block of
``conv2_x`` on but leaves downsample shortcuts alone; ResNet-50 factorizes
only the ``conv5_x`` stage *including* its downsample projection.
"""

from __future__ import annotations

from ..core.fold import sequential_conv_bn_pairs
from ..core.hybrid import FactorizationConfig, factorizable_leaves
from ..nn import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from ..tensor import Tensor

__all__ = [
    "BasicBlock",
    "Bottleneck",
    "ResNet",
    "resnet18",
    "resnet50",
    "wide_resnet50_2",
    "resnet18_hybrid_config",
    "resnet50_hybrid_config",
]


def _block_pairs(block, n_convs: int) -> list:
    """``convK`` -> ``bnK`` for K = 1..n_convs, then the downsample's pair."""
    pairs = [
        (getattr(block, f"conv{k}"), getattr(block, f"bn{k}")) for k in range(1, n_convs + 1)
    ]
    if block.downsample is not None:
        pairs += sequential_conv_bn_pairs(block.downsample)
    return pairs


class BasicBlock(Module):
    """Two 3×3 convolutions with identity/projection shortcut."""

    expansion = 1

    def __init__(self, in_planes: int, planes: int, stride: int = 1):
        super().__init__()
        self.conv1 = Conv2d(in_planes, planes, 3, stride=stride, padding=1, bias=False)
        self.bn1 = BatchNorm2d(planes)
        self.conv2 = Conv2d(planes, planes, 3, stride=1, padding=1, bias=False)
        self.bn2 = BatchNorm2d(planes)
        self.relu = ReLU()
        if stride != 1 or in_planes != planes:
            self.downsample = Sequential(
                Conv2d(in_planes, planes, 1, stride=stride, bias=False),
                BatchNorm2d(planes),
            )
        else:
            self.downsample = None

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        shortcut = x if self.downsample is None else self.downsample(x)
        return self.relu(out + shortcut)

    def conv_bn_pairs(self):
        """The (conv, BN) pairs :func:`repro.core.fold_batchnorm` folds."""
        return _block_pairs(self, 2)


class Bottleneck(Module):
    """1×1 reduce → 3×3 → 1×1 expand (×4), the ResNet-50 block.

    ``width_factor=2`` gives the WideResNet-50-2 inner width.
    """

    expansion = 4

    def __init__(self, in_planes: int, planes: int, stride: int = 1, width_factor: int = 1):
        super().__init__()
        width = planes * width_factor
        out_planes = planes * self.expansion
        self.conv1 = Conv2d(in_planes, width, 1, bias=False)
        self.bn1 = BatchNorm2d(width)
        self.conv2 = Conv2d(width, width, 3, stride=stride, padding=1, bias=False)
        self.bn2 = BatchNorm2d(width)
        self.conv3 = Conv2d(width, out_planes, 1, bias=False)
        self.bn3 = BatchNorm2d(out_planes)
        self.relu = ReLU()
        if stride != 1 or in_planes != out_planes:
            self.downsample = Sequential(
                Conv2d(in_planes, out_planes, 1, stride=stride, bias=False),
                BatchNorm2d(out_planes),
            )
        else:
            self.downsample = None

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.relu(self.bn2(self.conv2(out)))
        out = self.bn3(self.conv3(out))
        shortcut = x if self.downsample is None else self.downsample(x)
        return self.relu(out + shortcut)

    def conv_bn_pairs(self):
        """The (conv, BN) pairs :func:`repro.core.fold_batchnorm` folds."""
        return _block_pairs(self, 3)


class ResNet(Module):
    """Configurable ResNet.

    Parameters
    ----------
    block: BasicBlock or Bottleneck.
    layers: blocks per stage, e.g. ``[2, 2, 2, 2]`` (18) or ``[3, 4, 6, 3]`` (50).
    width_mult: scales all stage widths (CPU-scale runs use < 1).
    small_input: CIFAR-style 3×3 stem without max-pool (used for 32×32
        inputs); otherwise the ImageNet 7×7/stride-2 stem + 3×3 max-pool.
    width_factor: Bottleneck inner-width multiplier (2 = WideResNet-50-2).
    Inputs are RGB.
    """

    def __init__(
        self,
        block,
        layers: list[int],
        num_classes: int = 10,
        width_mult: float = 1.0,
        small_input: bool = True,
        width_factor: int = 1,
    ):
        super().__init__()
        scale = lambda w: max(8, int(w * width_mult))
        widths = [scale(64), scale(128), scale(256), scale(512)]
        self.in_planes = widths[0]

        if small_input:
            self.stem = Sequential(
                Conv2d(3, widths[0], 3, stride=1, padding=1, bias=False),
                BatchNorm2d(widths[0]),
                ReLU(),
            )
        else:
            self.stem = Sequential(
                Conv2d(3, widths[0], 7, stride=2, padding=3, bias=False),
                BatchNorm2d(widths[0]),
                ReLU(),
                MaxPool2d(3, 2),
            )

        self.layer1 = self._make_stage(block, widths[0], layers[0], 1, width_factor)
        self.layer2 = self._make_stage(block, widths[1], layers[1], 2, width_factor)
        self.layer3 = self._make_stage(block, widths[2], layers[2], 2, width_factor)
        self.layer4 = self._make_stage(block, widths[3], layers[3], 2, width_factor)
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(widths[3] * block.expansion, num_classes)

    def _make_stage(self, block, planes: int, n_blocks: int, stride: int, width_factor: int):
        blocks = []
        for i in range(n_blocks):
            blocks.append(
                block(
                    self.in_planes,
                    planes,
                    stride=stride if i == 0 else 1,
                    width_factor=width_factor,
                )
                if block is Bottleneck
                else block(self.in_planes, planes, stride=stride if i == 0 else 1)
            )
            self.in_planes = planes * block.expansion
        return Sequential(*blocks)

    def forward(self, x: Tensor) -> Tensor:
        out = self.stem(x)
        out = self.layer4(self.layer3(self.layer2(self.layer1(out))))
        return self.fc(self.pool(out))

    def conv_bn_pairs(self):
        """The stem's (conv, BN) pair; each block declares its own."""
        return sequential_conv_bn_pairs(self.stem)


def resnet18(num_classes: int = 10, width_mult: float = 1.0, small_input: bool = True) -> ResNet:
    """CIFAR-style ResNet-18 (appendix Table 13)."""
    return ResNet(BasicBlock, [2, 2, 2, 2], num_classes, width_mult, small_input)


def resnet50(
    num_classes: int = 1000, width_mult: float = 1.0, small_input: bool = False
) -> ResNet:
    """ResNet-50 with Bottleneck blocks (appendix Table 14)."""
    return ResNet(Bottleneck, [3, 4, 6, 3], num_classes, width_mult, small_input)


def wide_resnet50_2(
    num_classes: int = 1000, width_mult: float = 1.0, small_input: bool = False
) -> ResNet:
    """WideResNet-50-2: Bottleneck inner width doubled (appendix Table 15)."""
    return ResNet(
        Bottleneck, [3, 4, 6, 3], num_classes, width_mult, small_input, width_factor=2
    )


def _downsample_prefixes(model: ResNet, stages: tuple[str, ...]) -> tuple[str, ...]:
    """Module paths of downsample convs in the given stages."""
    prefixes = []
    for path, _ in factorizable_leaves(model):
        if "downsample" in path and path.startswith(stages):
            prefixes.append(path)
    return tuple(prefixes)


def resnet18_hybrid_config(model: ResNet, rank_ratio: float = 0.25) -> FactorizationConfig:
    """Appendix Table 13: stem + first block of ``conv2_x`` full-rank
    (K = 4 in leaf order), downsample shortcuts never factorized."""
    downsamples = _downsample_prefixes(model, ("layer1", "layer2", "layer3", "layer4"))
    return FactorizationConfig(
        rank_ratio=rank_ratio,
        first_lowrank_index=3,  # leaves 0-2: stem conv, block0.conv1, block0.conv2
        skip_first_conv=True,
        skip_last_fc=True,
        full_rank_prefixes=downsamples,
    )


def resnet50_hybrid_config(model: ResNet, rank_ratio: float = 0.25) -> FactorizationConfig:
    """Appendix Table 14: only the ``conv5_x`` stage (layer4) is factorized —
    it holds ~60% of all parameters — including its downsample projection."""
    leaves = factorizable_leaves(model)
    keep = tuple(
        path for path, _ in leaves if not path.startswith("layer4") and path != "fc"
    )
    return FactorizationConfig(
        rank_ratio=rank_ratio,
        first_lowrank_index=0,
        skip_first_conv=True,
        skip_last_fc=True,
        full_rank_prefixes=keep,
    )
