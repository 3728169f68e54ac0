"""Optimizers and LR schedules."""

from .optimizer import LAMB, SGD, Adam, Optimizer, clip_grad_norm
from .lr_scheduler import (
    MultiStepLR,
    LinearWarmup,
    ReduceLROnPlateau,
    StepDecayAt,
    CosineAnnealingLR,
)

# The benchmark workloads import the arena optimizers under their former
# names; SGD and Adam are those classes.
FusedSGD = SGD
FusedAdam = Adam

__all__ = [
    "Optimizer",
    "clip_grad_norm",
    "SGD",
    "Adam",
    "LAMB",
    "FusedSGD",
    "FusedAdam",
    "MultiStepLR",
    "LinearWarmup",
    "ReduceLROnPlateau",
    "StepDecayAt",
    "CosineAnnealingLR",
]
