"""Figure 5 — Pufferfish vs Lottery Ticket iterative pruning (VGG-19 on
CIFAR-10).

Paper: to reach the same parameter reduction, LTH's repeated train-prune-
rewind cycles cost 5.67x more wall-clock than Pufferfish's single run,
with comparable accuracy at matched sparsity.

Claims under test: (a) LTH cumulative cost grows ~linearly in rounds while
Pufferfish pays one training run, so at Pufferfish's compression level the
LTH cost multiple is >= the number of rounds needed; (b) at matched model
size, Pufferfish's accuracy is at least comparable.
"""

import time

import numpy as np

from harness import image_loaders, print_series, print_table
from repro.core import PufferfishTrainer, Trainer
from repro.models import vgg19, vgg19_hybrid_config
from repro.optim import SGD, MultiStepLR
from repro.pruning import LTHRunner
from repro.utils import set_seed

EPOCHS = 5
WIDTH = 0.125
PRUNE_FRACTION = 0.3
ROUNDS = 5


def _loaders(seed):
    return image_loaders(np.random.default_rng(seed), n=256, classes=4, noise=0.3)


def test_fig5_lth_vs_pufferfish(benchmark, rng):
    def experiment():
        # --- Pufferfish: one run. -----------------------------------
        set_seed(55)
        train, val, _ = _loaders(55)
        model = vgg19(num_classes=4, width_mult=WIDTH)
        t0 = time.perf_counter()
        pt = PufferfishTrainer(
            model,
            vgg19_hybrid_config(0.25),
            optimizer_factory=lambda ps: SGD(ps, lr=0.05, momentum=0.9, weight_decay=1e-4),
            trainer_factory=lambda m, o: Trainer(m, o, scheduler=MultiStepLR(o, [4], gamma=0.1)),
            warmup_epochs=2,
            total_epochs=EPOCHS,
        )
        pt.fit(train, val)
        puffer_seconds = time.perf_counter() - t0
        puffer = {
            "seconds": puffer_seconds,
            "params": pt.hybrid_model.num_parameters(),
            "acc": max(s.val_metric for s in pt.history),
            "reduction": 1 - pt.report.params_after / pt.report.params_before,
        }

        # --- LTH: iterative rounds, each a full training run. --------
        set_seed(55)
        train2, val2, _ = _loaders(55)

        def train_fn(model, post_step):
            from repro.core import Trainer

            opt = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4)
            t = Trainer(model, opt, scheduler=MultiStepLR(opt, [4], gamma=0.1),
                        post_step=post_step)
            t.fit(train2, val2, epochs=EPOCHS)
            return max(s.val_metric for s in t.history)

        runner = LTHRunner(
            lambda: vgg19(num_classes=4, width_mult=WIDTH),
            train_fn,
            prune_fraction=PRUNE_FRACTION,
        )
        history = runner.run(ROUNDS)
        return puffer, history

    puffer, history = benchmark.pedantic(experiment, rounds=1, iterations=1)

    print_series(
        "Fig 5a: remaining weight fraction vs cumulative seconds",
        "LTH rounds",
        {
            "LTH frac remaining": [1 - h.sparsity for h in history],
            "LTH cumulative s": [h.cumulative_seconds for h in history],
        },
    )
    print_table(
        "Fig 5b: size vs accuracy",
        ["Method", "Weight reduction", "Best acc", "Wall-clock (s)"],
        [["Pufferfish (1 run)", puffer["reduction"], puffer["acc"], puffer["seconds"]]]
        + [
            [f"LTH round {h.round_index + 1}", h.sparsity, h.val_metric, h.cumulative_seconds]
            for h in history
        ],
    )

    # Rounds needed for LTH to match Pufferfish's weight reduction.
    needed = next(
        (i + 1 for i, h in enumerate(history) if h.sparsity >= puffer["reduction"]),
        ROUNDS,
    )
    lth_seconds = history[needed - 1].cumulative_seconds
    multiple = lth_seconds / puffer["seconds"]
    print(f"\nLTH needs {needed} rounds -> {multiple:.2f}x Pufferfish's wall-clock "
          f"(paper: 5.67x)")

    # Shape: matching Pufferfish's compression costs LTH multiple full runs.
    assert needed >= 2
    assert multiple > 1.3
    # Accuracy comparable at matched size (Pufferfish within 10 points).
    assert puffer["acc"] >= history[needed - 1].val_metric - 0.10
