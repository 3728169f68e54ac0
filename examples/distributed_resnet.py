"""Distributed data-parallel training with the cluster simulator.

Reproduces the paper's core systems experiment in miniature: train a
ResNet-18 on a simulated 8-node cluster and compare the per-epoch time
breakdown (compute / encode / communication / decode) of

* vanilla SGD               — raw fp32 ring allreduce,
* Pufferfish                — smaller factorized model, same allreduce,
* PowerSGD (rank 2)         — heavy gradient compression + codec,
* Signum                    — 1-bit signs over allgather.

Run:  python examples/distributed_resnet.py
"""

import numpy as np

from repro.compression import NoCompression, PowerSGD, Signum
from repro.core import build_hybrid
from repro.data import DataLoader, make_cifar_like, shard_dataset
from repro.distributed import ClusterSpec, DistributedTrainer
from repro.models import resnet18, resnet18_hybrid_config
from repro.optim import SGD
from repro.utils import set_seed

N_NODES = 8
WORKER_BATCH = 16
EPOCHS = 2
# Bandwidth scaled so that the CPU compute : modeled communication balance
# matches the paper's V100 / 10 Gbps testbed (see DESIGN.md).
CLUSTER = ClusterSpec(N_NODES, bandwidth_gbps=0.3)


def make_loaders(rng):
    ds = make_cifar_like(n=WORKER_BATCH * N_NODES * 4, num_classes=4, noise=0.2, rng=rng)
    shards = shard_dataset(ds.images, ds.labels, N_NODES)
    return [DataLoader(x, y, WORKER_BATCH) for x, y in shards]


def run(name, model, compressor):
    set_seed(1)
    loaders = make_loaders(np.random.default_rng(1))
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
    trainer = DistributedTrainer(model, opt, CLUSTER, compressor=compressor)
    trainer.fit(loaders, (), EPOCHS)  # no validation set: the timeline is the result
    total = trainer.history[-1].timeline
    print(f"{name:<22} compute={total.compute:6.3f}s  encode={total.encode:6.3f}s  "
          f"comm={total.comm:6.3f}s  decode={total.decode:6.3f}s  "
          f"total={total.total:6.3f}s  wire={total.bytes_per_iteration/1e6:6.2f} MB/iter")
    return total


def main():
    print(f"simulated cluster: {N_NODES} nodes @ {CLUSTER.bandwidth_gbps} Gbps, "
          f"latency {CLUSTER.latency_s*1e6:.0f} us\n")

    vanilla = resnet18(num_classes=4, width_mult=0.25)
    run("vanilla SGD", vanilla, NoCompression(N_NODES))

    base = resnet18(num_classes=4, width_mult=0.25)
    hybrid, report = build_hybrid(base, resnet18_hybrid_config(base))
    print(f"\n[pufferfish] model shrinks {report.compression:.2f}x "
          f"({report.params_before:,} -> {report.params_after:,} params)\n")
    run("Pufferfish", hybrid, NoCompression(N_NODES))

    run("PowerSGD (rank 2)", resnet18(num_classes=4, width_mult=0.25),
        PowerSGD(N_NODES, rank=2))
    run("Signum", resnet18(num_classes=4, width_mult=0.25), Signum(N_NODES))


if __name__ == "__main__":
    main()
