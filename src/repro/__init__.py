"""Pufferfish reproduction (MLSys 2021).

A from-scratch NumPy deep-learning stack plus the Pufferfish low-rank
training framework:

* :mod:`repro.tensor` — autograd engine.
* :mod:`repro.nn` — layers (FC, conv, BN/LN, LSTM, Transformer), losses,
  mixed-precision emulation.
* :mod:`repro.optim` — SGD/Adam and LR schedules.
* :mod:`repro.core` — the paper's contribution: low-rank layers, truncated-
  SVD warm-starting, hybrid networks, the Algorithm 1 trainer.
* :mod:`repro.models` — VGG/ResNet/WideResNet/LSTM-LM/Transformer zoo with
  per-model hybrid configs.
* :mod:`repro.distributed` — data-parallel simulator with α–β comm cost
  models and per-epoch timeline breakdowns.
* :mod:`repro.compression` — PowerSGD, Signum, QSGD, Top-k, stochastic
  binary quantization baselines.
* :mod:`repro.pruning` — LTH iterative magnitude pruning and Early-Bird
  structured channel pruning baselines.
* :mod:`repro.data` — synthetic stand-ins for CIFAR-10 / ImageNet /
  WikiText-2 / WMT16.
* :mod:`repro.metrics` — MACs, accuracy, perplexity, BLEU.
* :mod:`repro.serve` — SLO-aware inference serving: model registry
  (full vs factorized variants), measured latency profiles, dynamic
  batching, admission control, and a seeded load simulator.

Quickstart::

    from repro.core import PufferfishTrainer, FactorizationConfig
    from repro.models import resnet18, resnet18_hybrid_config
    from repro.optim import SGD

    model = resnet18(num_classes=10, width_mult=0.25)
    trainer = PufferfishTrainer(
        model,
        resnet18_hybrid_config(model),
        optimizer_factory=lambda ps: SGD(ps, lr=0.1, momentum=0.9),
        warmup_epochs=5,
        total_epochs=30,
    )
    hybrid = trainer.fit(train_loader, val_loader)

On W simulated data-parallel ranks, add
``trainer_factory=lambda m, o: DistributedTrainer(m, o, ClusterSpec(W))`` and
pass the per-rank loader list as ``train_loader``; each epoch's
``trainer.history`` entry then carries its compute/comm ``timeline``.
"""

__version__ = "1.0.0"

from . import (
    compression,
    core,
    data,
    distributed,
    metrics,
    models,
    nn,
    observability,
    optim,
    pruning,
    tensor,
    utils,
)

__all__ = [
    "tensor",
    "nn",
    "optim",
    "core",
    "models",
    "distributed",
    "compression",
    "pruning",
    "data",
    "metrics",
    "observability",
    "utils",
    "__version__",
]
