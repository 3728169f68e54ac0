"""Appendix Table 20 — the Table 6 mini-benchmark under the *speed
optimized* execution mode.

On the paper's V100, enabling cudnn.benchmark lets the vendor library pick
faster algorithms, which helps the vanilla (large, regular) convolutions
more than the thin factorized ones — the VGG-19 speedup collapses from
1.23x to 1.01x while ResNet-18 keeps 1.16x.

The CPU analogue of "speed-optimized" execution is a larger batch (128
instead of 32).  The paper's claim is the direction of the change: the
ResNet-18 speedup shrinks (1.48x -> 1.16x) yet stays above 1.  This bench
prints both speedups but asserts only the second half, Pufferfish faster
than vanilla at batch 128.  The direction is not checked, and five
consecutive runs on a 2-core CPU box measured the opposite one (median pair
speedup at batch 32 / 128: 1.01/1.02, 0.95/1.09, 1.07/1.07, 0.98/1.08,
1.06/1.11).
"""

import time

import numpy as np

from harness import image_loaders, print_table, scaled_resnet18
from repro.core import Trainer, build_hybrid
from repro.models import resnet18_hybrid_config
from repro.optim import SGD
from repro.utils import set_seed

REPEATS = 3


def _paired_epoch_times(vanilla, hybrid, loader):
    """Each repeat times one vanilla epoch, then one hybrid epoch, so a load
    change on the box reaches both halves of a pair.  Returns the median
    vanilla and hybrid seconds and the median of the per-pair speedups."""
    trainers = [Trainer(m, SGD(m.parameters(), lr=0.01, momentum=0.9)) for m in (vanilla, hybrid)]
    pairs = []
    for _ in range(REPEATS):
        pair = []
        for t in trainers:
            t0 = time.perf_counter()
            t.train_epoch(loader)
            pair.append(time.perf_counter() - t0)
        pairs.append(pair)
    t_v, t_p = np.median(pairs, axis=0)
    return float(t_v), float(t_p), float(np.median([v / p for v, p in pairs]))


def test_table20_speed_optimized_runtime(benchmark, rng):
    set_seed(20)
    # "Speed-optimized": batch 128 instead of 32.
    train_fast, _, _ = image_loaders(np.random.default_rng(20), n=256, classes=4, batch=128)
    train_slow, _, _ = image_loaders(np.random.default_rng(20), n=256, classes=4, batch=32)

    def experiment():
        r18 = scaled_resnet18(classes=4, width=0.25)
        r18_h, _ = build_hybrid(r18, resnet18_hybrid_config(r18))
        return {
            "r18_fast": _paired_epoch_times(r18, r18_h, train_fast),
            "r18_slow": _paired_epoch_times(r18, r18_h, train_slow),
        }

    res = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = []
    for mode, paper in (("r18_slow", 1.48), ("r18_fast", 1.16)):
        label = "reproducible (batch 32)" if "slow" in mode else "speed-optimized (batch 128)"
        rows.append([label, *res[mode], paper])
    print_table(
        "Table 20: ResNet-18 per-epoch time under both execution modes",
        ["Mode", "Vanilla (s)", "Pufferfish (s)", "Speedup (median pair)", "Paper"],
        rows,
    )

    # Pufferfish stays faster in the optimized regime (paper: 1.16x).
    assert res["r18_fast"][2] > 1
