"""Quickstart: train a CNN with Pufferfish in ~30 lines.

The full Pufferfish procedure (Algorithm 1 of the paper) on a synthetic
CIFAR-like task:

1. a few epochs of vanilla full-rank warm-up,
2. one truncated-SVD factorization into the hybrid low-rank architecture,
3. low-rank fine-tuning for the remaining epochs.

Run:  python examples/quickstart.py
"""

import logging

import numpy as np

from repro import nn
from repro.core import FactorizationConfig, PufferfishTrainer, Trainer
from repro.data import DataLoader, make_cifar_like
from repro.optim import SGD, MultiStepLR
from repro.utils import set_seed

# The trainers log one line per finished epoch on the "repro.core.trainer" logger.
logging.basicConfig(level=logging.INFO, format="%(message)s")
set_seed(0)
rng = np.random.default_rng(0)

# ---------------------------------------------------------------- data ----
dataset = make_cifar_like(n=512, num_classes=4, noise=0.2, rng=rng)
train_set, val_set = dataset.split(400)
train_loader = DataLoader(train_set.images, train_set.labels, batch_size=32, shuffle=True)
val_loader = DataLoader(val_set.images, val_set.labels, batch_size=64)

# --------------------------------------------------------------- model ----
model = nn.Sequential(
    nn.Conv2d(3, 16, 3, padding=1), nn.BatchNorm2d(16), nn.ReLU(), nn.MaxPool2d(2),
    nn.Conv2d(16, 32, 3, padding=1), nn.BatchNorm2d(32), nn.ReLU(), nn.MaxPool2d(2),
    nn.Conv2d(32, 32, 3, padding=1), nn.ReLU(), nn.GlobalAvgPool2d(),
    nn.Linear(32, 4),
)
print(f"vanilla parameters: {model.num_parameters():,}")

# ---------------------------------------------------------- pufferfish ----
trainer = PufferfishTrainer(
    model,
    # Rank ratio 0.25 everywhere; first conv and last FC stay full-rank.
    FactorizationConfig(rank_ratio=0.25),
    optimizer_factory=lambda params: SGD(params, lr=0.05, momentum=0.9, weight_decay=1e-4),
    trainer_factory=lambda m, o: Trainer(m, o, scheduler=MultiStepLR(o, milestones=[8], gamma=0.1)),
    warmup_epochs=3,
    total_epochs=12,
)
hybrid = trainer.fit(train_loader, val_loader)

# ------------------------------------------------------------- results ----
report = trainer.report
print(f"\nfactorized {len(report.replaced)} layers, kept {len(report.kept)} full-rank")
print(f"parameters: {report.params_before:,} -> {report.params_after:,} "
      f"({report.compression:.2f}x smaller)")
print(f"one-time SVD cost: {report.svd_seconds * 1e3:.1f} ms")
best = max(s.val_metric for s in trainer.history)
print(f"best validation accuracy: {best:.3f}")
