"""Automatic per-layer rank allocation (the paper's future-work direction).

Instead of the global rank ratio 0.25, pick each layer's rank from its own
singular-value spectrum after warm-up training:

* energy policy — smallest rank retaining X% of spectral energy,
* budget policy — greedy global allocation under a parameter budget.

The script warms up a CNN, prints each layer's spectrum summary, compares
the three policies' size/accuracy trade-offs, and demonstrates the
spectral-sparsity phenomenon the paper's conclusion alludes to.

Run:  python examples/rank_allocation.py
"""

import numpy as np

from repro.core import (
    FactorizationConfig,
    PufferfishTrainer,
    Trainer,
    allocation_report,
    budget_rank_allocation,
    effective_rank,
    energy_rank_allocation,
    layer_spectra,
    stable_rank,
)
from repro.data import DataLoader, make_cifar_like
from repro.models import vgg11
from repro.optim import SGD, MultiStepLR
from repro.utils import set_seed

EPOCHS = 8
WARMUP = 3


def loaders():
    ds = make_cifar_like(n=384, num_classes=4, noise=0.25, rng=np.random.default_rng(5))
    tr, va = ds.split(300)
    return (DataLoader(tr.images, tr.labels, 32, shuffle=True),
            DataLoader(va.images, va.labels, 64))


def run(config_builder, label):
    set_seed(5)
    train, val = loaders()
    model = vgg11(num_classes=4, width_mult=0.25)
    pt = PufferfishTrainer(
        model,
        FactorizationConfig(rank_ratio=0.25),
        optimizer_factory=lambda p: SGD(p, lr=0.02, momentum=0.9, weight_decay=1e-4),
        trainer_factory=lambda m, o: Trainer(m, o, scheduler=MultiStepLR(o, [6], gamma=0.1),
                                             grad_clip=5.0),
        warmup_epochs=WARMUP,
        total_epochs=EPOCHS,
        # Evaluated on the warm-up-trained model, so spectrum-based
        # policies see trained (spectrally sparse) weights.
        config_builder=config_builder,
    )
    pt.fit(train, val)
    acc = max(s.val_metric for s in pt.history)
    print(f"{label:<24} params={pt.report.params_after:>8,}  "
          f"compression={pt.report.compression:5.2f}x  best acc={acc:.3f}")
    return pt


def main():
    # Show the spectra of a warm-up-trained model first.
    set_seed(5)
    train, val = loaders()
    probe = vgg11(num_classes=4, width_mult=0.25)
    opt = SGD(probe.parameters(), lr=0.05, momentum=0.9)
    Trainer(probe, opt).fit(train, val, epochs=WARMUP)
    print("layer spectra after warm-up (effective rank / stable rank / dim):")
    for path, s in list(layer_spectra(probe).items())[:8]:
        print(f"  {path:<16} eff={effective_rank(s):6.1f}  "
              f"stable={stable_rank(s):6.1f}  full={len(s)}")

    overrides = energy_rank_allocation(probe, energy_threshold=0.9)
    print("\nenergy-90% allocation:")
    for path, full, r, energy in allocation_report(probe, overrides)[:8]:
        print(f"  {path:<16} rank {r:>3}/{full:<3}  energy kept {energy:.3f}")

    print("\npolicy comparison (same training schedule):")
    run(lambda m: FactorizationConfig(rank_ratio=0.25), "global ratio 0.25")
    run(
        lambda m: FactorizationConfig(
            rank_overrides=energy_rank_allocation(m, 0.9)
        ),
        "energy 90%",
    )
    target = probe.num_parameters() // 3
    run(
        lambda m: FactorizationConfig(
            rank_overrides=budget_rank_allocation(m, target)
        ),
        f"budget {target:,}",
    )


if __name__ == "__main__":
    main()
