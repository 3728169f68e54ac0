"""Mixed-precision (AMP) training with Pufferfish — the paper's Table 4/5
AMP rows at laptop scale.

Runs the same Pufferfish schedule under FP32 and under the fp16 emulation
(half-precision forward/backward round-trips, fp32 master weights, dynamic
loss scaling) and confirms the paper's claim: "the performance of
Pufferfish remains stable under mixed-precision training."

Run:  python examples/mixed_precision.py
"""

import numpy as np

from repro.core import PufferfishTrainer, Trainer
from repro.data import DataLoader, make_cifar_like
from repro.models import resnet18, resnet18_hybrid_config
from repro.optim import SGD, MultiStepLR
from repro.utils import set_seed

EPOCHS = 8
WARMUP = 3


def run(amp: bool) -> float:
    set_seed(4)
    ds = make_cifar_like(n=384, num_classes=4, noise=0.2, rng=np.random.default_rng(4))
    tr, va = ds.split(300)
    train = DataLoader(tr.images, tr.labels, 32, shuffle=True)
    val = DataLoader(va.images, va.labels, 64)

    model = resnet18(num_classes=4, width_mult=0.25)
    pt = PufferfishTrainer(
        model,
        resnet18_hybrid_config(model),
        optimizer_factory=lambda p: SGD(p, lr=0.05, momentum=0.9, weight_decay=1e-4),
        trainer_factory=lambda m, o: Trainer(m, o, scheduler=MultiStepLR(o, [6], gamma=0.1),
                                             amp=amp),
        warmup_epochs=WARMUP,
        total_epochs=EPOCHS,
    )
    pt.fit(train, val)
    return max(s.val_metric for s in pt.history)


def main():
    acc_fp32 = run(amp=False)
    acc_amp = run(amp=True)
    print(f"\nPufferfish ResNet-18  FP32 acc: {acc_fp32:.3f}")
    print(f"Pufferfish ResNet-18  AMP  acc: {acc_amp:.3f}")
    print(f"gap: {abs(acc_fp32 - acc_amp):.3f} "
          f"(paper's full-scale gap: ~0.002)")


if __name__ == "__main__":
    main()
