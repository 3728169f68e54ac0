"""Table 5 — ResNet-50 and WideResNet-50-2 on ImageNet: params, accuracy.

Paper: ResNet-50 25.56M -> 15.2M (1.68x), top-1 76.15 -> 75.62;
       WideResNet-50-2 68.9M -> ~40M (1.72x), similar near-parity.

Full-scale parameter/compression arithmetic is exact; accuracy runs use
width-scaled models on the synthetic ImageNet stand-in, testing the
near-parity claim and the compression limitation (~1.7x, far below the
3.35x the same recipe achieves on ResNet-18).
"""

import numpy as np
import pytest

from harness import imagenet_loaders, print_table, scaled_resnet50, train_classifier
from repro.core import PufferfishTrainer, Trainer, build_hybrid
from repro.models import resnet50, resnet50_hybrid_config, wide_resnet50_2
from repro.optim import SGD, MultiStepLR
from repro.utils import set_seed

EPOCHS = 6
WARMUP = 2


def test_table5_fullscale_compression(benchmark):
    def arithmetic():
        r50 = resnet50(num_classes=1000)
        _, rep50 = build_hybrid(r50, resnet50_hybrid_config(r50))
        w50 = wide_resnet50_2(num_classes=1000)
        _, repw = build_hybrid(w50, resnet50_hybrid_config(w50))
        return rep50, repw

    rep50, repw = benchmark.pedantic(arithmetic, rounds=1, iterations=1)
    rows = [
        ["ResNet-50", rep50.params_before, rep50.params_after, rep50.compression, 1.68],
        ["WideResNet-50-2", repw.params_before, repw.params_after, repw.compression, 1.72],
    ]
    print_table(
        "Table 5 (full scale): compression vs paper",
        ["Model", "#Params vanilla", "#Params Pufferfish", "Compression", "Paper"],
        rows,
    )
    # Paper's limitation: ResNet-50-family compresses only ~1.7x.
    assert rep50.compression == pytest.approx(1.68, abs=0.12)
    assert repw.compression == pytest.approx(1.72, abs=0.12)
    # Paper's Pufferfish ResNet-50 parameter count: 15,202,344.
    assert rep50.params_after == pytest.approx(15_202_344, rel=0.02)


def test_table5_accuracy_scaled(benchmark, rng):
    def experiment():
        set_seed(3)
        train, val, _ = imagenet_loaders(np.random.default_rng(3), n=256, classes=8)
        vanilla = scaled_resnet50(classes=8, width=0.125)
        acc_v, _ = train_classifier(vanilla, train, val, EPOCHS, decay_at=[4])

        set_seed(3)
        train, val, _ = imagenet_loaders(np.random.default_rng(3), n=256, classes=8)
        model = scaled_resnet50(classes=8, width=0.125)
        pt = PufferfishTrainer(
            model,
            resnet50_hybrid_config(model),
            optimizer_factory=lambda ps: SGD(ps, lr=0.05, momentum=0.9, weight_decay=1e-4),
            trainer_factory=lambda m, o: Trainer(m, o, scheduler=MultiStepLR(o, [4], gamma=0.1)),
            warmup_epochs=WARMUP,
            total_epochs=EPOCHS,
        )
        pt.fit(train, val)
        acc_p = max(s.val_metric for s in pt.history)
        return acc_v, acc_p, model.num_parameters(), pt.hybrid_model.num_parameters()

    acc_v, acc_p, n_v, n_p = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table(
        "Table 5 (scaled): ResNet-50 accuracy",
        ["Model", "#Params", "Best val acc"],
        [
            ["Vanilla ResNet-50 (paper top-1: 76.15%)", n_v, acc_v],
            ["Pufferfish ResNet-50 (paper top-1: 75.62%)", n_p, acc_p],
        ],
    )
    assert n_p < n_v
    assert acc_v > 0.3 and acc_p > 0.3  # chance = 0.125
    assert acc_p > acc_v - 0.15  # near parity (paper: -0.53%)
