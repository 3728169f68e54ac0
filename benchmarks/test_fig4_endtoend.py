"""Figure 4 (bottom panels) — END-TO-END convergence: accuracy as a
function of simulated wall-clock, *including* Pufferfish's warm-up and
SVD overheads.

Paper headlines:
  * prototype impl, ResNet-18/CIFAR-10: Pufferfish 1.74x over vanilla SGD
    to finish 300 epochs at the same accuracy (1.52x over Signum, 1.22x
    over PowerSGD).
  * DDP, ResNet-50/ImageNet, 8 nodes: 1.64x end-to-end over vanilla.

Here: both arms train the same number of epochs on the simulated 8-node
cluster; per-epoch times come from the simulator (measured compute +
modeled comm).  Pufferfish's clock includes the full-rank warm-up epochs
and the SVD conversion.  Claim under test: the full Pufferfish schedule
takes strictly less simulated time, a speedup in the 1.05-3x band around
the paper's.

Accuracy parity: Pufferfish's best validation accuracy over its low-rank
epochs (after ``WARMUP``) must come within 0.15 of vanilla's best and
above chance.  The warm-up epochs are left out because both arms share them
(same seed, same model, same data), so they would meet both checks alone.
At this size the low-rank epochs read 0.560 / 0.888 / 0.983 / 1.0 against
vanilla's best 1.0: the task saturates.
"""

from harness import fig4_endtoend, print_series
from repro.distributed import ClusterSpec

N_NODES = 8
WORKER_BATCH = 16
EPOCHS = 6
WARMUP = 2
BANDWIDTH = 1.0  # idle-machine calibration; see test_fig4_distributed.py


def test_fig4_end_to_end_convergence(benchmark, rng):
    def experiment():
        cluster = ClusterSpec(N_NODES, bandwidth_gbps=BANDWIDTH)
        arms = fig4_endtoend(cluster, EPOCHS, WARMUP, WORKER_BATCH)
        return [[(r["clock"], r["val_acc"]) for r in arms[arm]]
                for arm in ("vanilla", "pufferfish")]

    curve_v, curve_p = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_series(
        "Fig 4 end-to-end: (simulated seconds, val acc) per epoch",
        "epoch",
        {
            "vanilla clock": [round(c, 2) for c, _ in curve_v],
            "vanilla acc": [a for _, a in curve_v],
            "pufferfish clock": [round(c, 2) for c, _ in curve_p],
            "pufferfish acc": [a for _, a in curve_p],
        },
    )

    total_v = curve_v[-1][0]
    total_p = curve_p[-1][0]
    best_v = max(a for _, a in curve_v)
    best_p = max(a for _, a in curve_p[WARMUP:])
    speedup = total_v / total_p
    print(f"\nend-to-end speedup (same #epochs, incl. warm-up + SVD): "
          f"{speedup:.2f}x (paper: 1.74x prototype / 1.64x DDP)")

    # Strictly less simulated wall-clock for the full Pufferfish schedule.
    assert total_p < total_v
    assert 1.05 < speedup < 3.0
    # Over the low-rank epochs only (see the module docstring).
    assert best_p > best_v - 0.15
    assert best_p > 0.3  # above the 0.25 chance level
