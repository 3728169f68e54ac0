"""Pufferfish vs the pruning baselines: LTH and Early-Bird tickets.

Miniature version of the paper's Figure 5 and Table 7 on a VGG-19-class
model: one Pufferfish run against (a) iterative magnitude pruning with
rewinding, and (b) EB Train structured channel pruning.

Run:  python examples/pruning_comparison.py
"""

import time

import numpy as np

from repro import nn
from repro.core import PufferfishTrainer, Trainer
from repro.data import DataLoader, make_cifar_like
from repro.models import vgg19, vgg19_hybrid_config
from repro.optim import SGD, MultiStepLR
from repro.pruning import (
    EarlyBirdDetector,
    LTHRunner,
    bn_l1_penalty,
    prune_vgg,
)
from repro.utils import set_seed

EPOCHS = 5
WIDTH = 0.125


def loaders():
    ds = make_cifar_like(n=256, num_classes=4, noise=0.3, rng=np.random.default_rng(9))
    tr, va = ds.split(204)
    return (DataLoader(tr.images, tr.labels, 32, shuffle=True),
            DataLoader(va.images, va.labels, 64))


def new_optimizer(params):
    return SGD(params, lr=0.05, momentum=0.9, weight_decay=1e-4)


def main():
    # ----------------------------------------------------- Pufferfish ----
    set_seed(9)
    train, val = loaders()
    t0 = time.perf_counter()
    pt = PufferfishTrainer(
        vgg19(num_classes=4, width_mult=WIDTH),
        vgg19_hybrid_config(0.25),
        optimizer_factory=new_optimizer,
        trainer_factory=lambda m, o: Trainer(m, o, scheduler=MultiStepLR(o, [4], gamma=0.1)),
        warmup_epochs=2,
        total_epochs=EPOCHS,
    )
    pt.fit(train, val)
    pf_seconds = time.perf_counter() - t0
    print(f"Pufferfish: {pt.report.params_after:,} params "
          f"({pt.report.compression:.2f}x smaller), "
          f"best acc {max(s.val_metric for s in pt.history):.3f}, "
          f"{pf_seconds:.1f}s total")

    # ------------------------------------------------------------ LTH ----
    set_seed(9)
    train, val = loaders()

    def train_fn(model, post_step):
        opt = new_optimizer(model.parameters())
        t = Trainer(model, opt, scheduler=MultiStepLR(opt, [4], gamma=0.1),
                    post_step=post_step)
        t.fit(train, val, epochs=EPOCHS)
        return max(s.val_metric for s in t.history)

    runner = LTHRunner(lambda: vgg19(num_classes=4, width_mult=WIDTH),
                       train_fn, prune_fraction=0.3)
    for h in runner.run(4):
        print(f"LTH round {h.round_index + 1}: {h.remaining_params:,} weights left "
              f"({h.sparsity:.1%} pruned), acc {h.val_metric:.3f}, "
              f"cumulative {h.cumulative_seconds:.1f}s")

    # ------------------------------------------------------- EB Train ----
    set_seed(9)
    train, val = loaders()
    model = vgg19(num_classes=4, width_mult=WIDTH)
    detector = EarlyBirdDetector(prune_ratio=0.3, threshold=0.15, patience=2)
    # Search phase with the network-slimming L1 regularizer on BN γ.
    ce = nn.CrossEntropyLoss()
    trainer = Trainer(model, new_optimizer(model.parameters()),
                      loss_fn=lambda logits, y: ce(logits, y) + bn_l1_penalty(model, 1e-3))
    for epoch in range(EPOCHS):
        trainer.fit(train, val, epochs=1, start_epoch=epoch)
        if detector.update(model, epoch):
            print(f"EB ticket drawn at epoch {epoch}")
            break
    slim = prune_vgg(model, detector.mask)
    t = Trainer(slim, new_optimizer(slim.parameters()))
    t.fit(train, val, epochs=2)
    print(f"EB Train: {slim.num_parameters():,} params, "
          f"acc {max(s.val_metric for s in t.history):.3f}")


if __name__ == "__main__":
    main()
