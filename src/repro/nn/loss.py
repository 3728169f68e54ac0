"""Loss modules."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, cross_entropy
from .module import Module

__all__ = ["CrossEntropyLoss"]


class CrossEntropyLoss(Module):
    """Softmax cross-entropy over logits, with optional label smoothing and
    an ``ignore_index`` for padded tokens (mean over non-ignored entries)."""

    def __init__(self, label_smoothing: float = 0.0, ignore_index: int | None = None):
        super().__init__()
        self.label_smoothing = label_smoothing
        self.ignore_index = ignore_index

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        return cross_entropy(
            logits,
            targets,
            label_smoothing=self.label_smoothing,
            ignore_index=self.ignore_index,
        )
