"""Tables 8, 21, 22 — ablation of the two accuracy-loss mitigations on
image classification: fully-low-rank vs hybrid vs hybrid + warm-up.

Paper (ResNet-18 / CIFAR-10, 3 seeds):
    low-rank          93.75 ± 0.19
    hybrid, no warmup 93.92 ± 0.45
    hybrid + warmup   94.87 ± 0.21

Claim under test: mean accuracy over seeds is non-decreasing across the
three variants (warm-up helps most — the paper's Section 3 argument).
"""

import numpy as np

from harness import image_loaders, print_table, scaled_resnet18
from repro.core import FactorizationConfig, PufferfishTrainer, Trainer
from repro.models import resnet18_hybrid_config
from repro.optim import SGD, MultiStepLR
from repro.utils import set_seed

EPOCHS = 8
SEEDS = [0, 1, 2]


def run_variant(variant, seed):
    set_seed(seed)
    train, val, _ = image_loaders(np.random.default_rng(seed), n=320, classes=4, noise=0.3)
    model = scaled_resnet18(classes=4, width=0.25)

    if variant == "lowrank":
        # Every layer factorized (except first conv / last FC), no warm-up.
        config = FactorizationConfig(rank_ratio=0.25)
        warmup = 0
    elif variant == "hybrid":
        config = resnet18_hybrid_config(model)
        warmup = 0
    elif variant == "hybrid_warmup":
        config = resnet18_hybrid_config(model)
        warmup = 3
    else:
        raise ValueError(variant)

    pt = PufferfishTrainer(
        model,
        config,
        optimizer_factory=lambda ps: SGD(ps, lr=0.05, momentum=0.9, weight_decay=1e-4),
        trainer_factory=lambda m, o: Trainer(m, o, scheduler=MultiStepLR(o, [6], gamma=0.1)),
        warmup_epochs=warmup,
        total_epochs=EPOCHS,
    )
    pt.fit(train, val)
    return max(s.val_metric for s in pt.history if s.phase == "lowrank")


def test_table8_mitigation_ablation(benchmark, rng):
    def experiment():
        out = {}
        for variant in ("lowrank", "hybrid", "hybrid_warmup"):
            accs = [run_variant(variant, s) for s in SEEDS]
            out[variant] = (float(np.mean(accs)), float(np.std(accs)))
        return out

    res = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        ["Low-rank ResNet-18 (paper: 93.75)", res["lowrank"][0], res["lowrank"][1]],
        ["Hybrid, no warm-up (paper: 93.92)", res["hybrid"][0], res["hybrid"][1]],
        ["Hybrid + warm-up (paper: 94.87)", res["hybrid_warmup"][0], res["hybrid_warmup"][1]],
    ]
    print_table("Table 8: mitigation ablation (3 seeds, scaled ResNet-18)",
                ["Variant", "Mean acc", "Std"], rows)

    # The full recipe must not lose to the unmitigated variant (tolerance
    # covers small-sample noise on the synthetic task).
    assert res["hybrid_warmup"][0] >= res["lowrank"][0] - 0.05
    assert res["hybrid_warmup"][0] >= res["hybrid"][0] - 0.05
    # And everything learns.
    for variant in res:
        assert res[variant][0] > 0.4
