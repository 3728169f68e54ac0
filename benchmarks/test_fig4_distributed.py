"""Figure 4 — distributed training efficiency.

(a) Per-epoch breakdown (compute / encode / comm / decode) for vanilla
    SGD, Pufferfish, and Signum on a ResNet-50-class model, 16 nodes.
    Paper: Pufferfish 1.35x over SGD, 1.28x over Signum per epoch.
(b) Same breakdown plus PowerSGD on a ResNet-18-class model, 8 nodes.
    Paper: Pufferfish 1.33x over PowerSGD, 1.67x over Signum, 1.92x over
    SGD.  PowerSGD wins the *communication* phase but loses the codec
    phase; Pufferfish skips the codec entirely.
(c) DDP scalability over 2/4/8/16 nodes: Pufferfish's per-epoch speedup
    grows with the cluster (paper: 1.52x at 16 nodes).  Each node count
    runs ``DistributedTrainer(overlap=True)``: buckets are allreduced as
    their measured gradients arrive, so the exposed comm comes from the
    trainer's own schedule.

The simulator executes real numerics and measures compute/encode/decode
wall-clock; wire time comes from the α–β model.  The link bandwidth is
scaled down (0.3 Gbps) so the compute:communication balance on this CPU
matches the paper's V100/10 Gbps regime (~1:0.5 for vanilla SGD).  One
known substrate gap, recorded in EXPERIMENTS.md: CPU-side Signum decoding
is far cheaper than the GPU-side decode the paper measures (its Fig. 7
reports 118 s/epoch for 1-bit decompression), so Signum is *stronger*
here than in the paper and end-to-end totals for the compressors are
asserted with a 15% band rather than strictly.
"""

import numpy as np

from harness import image_loaders, print_series, print_table, scaled_resnet18, scaled_resnet50
from repro.compression import NoCompression, PowerSGD, Signum
from repro.core import build_hybrid
from repro.data import DataLoader, shard_dataset
from repro.distributed import ClusterSpec, DistributedTrainer
from repro.models import resnet18_hybrid_config, resnet50_hybrid_config
from repro.optim import SGD
from repro.utils import set_seed

# Calibrated on an otherwise-idle machine so vanilla SGD's compute:comm
# balance matches the paper's V100/10 Gbps regime (~1 : 0.3); under that
# balance the paper's method ordering reproduces.
BANDWIDTH_GBPS = 1.0
WORKER_BATCH = 16


def _breakdown(model, compressor_factory, n_nodes, rng_seed, iters=2,
               bandwidth=BANDWIDTH_GBPS, batch=WORKER_BATCH, **trainer_kwargs):
    set_seed(rng_seed)
    n = batch * n_nodes * iters
    # image_loaders keeps 80 % for training: ask for enough that every
    # worker gets ``iters`` full batches.
    train, _, _ = image_loaders(
        np.random.default_rng(rng_seed), n=max(2 * n, 64), classes=4, batch=batch
    )
    x = np.concatenate([xb for xb, _ in train])[:n]
    y = np.concatenate([yb for _, yb in train])[:n]
    shards = shard_dataset(x, y, n_nodes)
    loaders = [DataLoader(sx, sy, batch) for sx, sy in shards]

    cluster = ClusterSpec(n_nodes, bandwidth_gbps=bandwidth)
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
    trainer = DistributedTrainer(
        model, opt, cluster, compressor=compressor_factory(n_nodes), **trainer_kwargs
    )
    return trainer.train_epoch(loaders)


def _codec(tl):
    return tl.encode + tl.decode


def test_fig4a_resnet50_breakdown(benchmark, rng):
    n_nodes = 16
    # The ResNet-50-class model at CPU scale has near-zero *compute* gain
    # from factorization, so this panel's claim rests on communication; a
    # lower link speed (0.3 Gbps) keeps the comm term well above compute
    # timing noise, matching the 16-node cluster's larger model/paper
    # regime.
    bw = 0.3

    def experiment():
        out = {}
        vanilla = scaled_resnet50(classes=4, width=0.125)
        out["SGD"] = _breakdown(vanilla, NoCompression, n_nodes, 41, bandwidth=bw)

        base = scaled_resnet50(classes=4, width=0.125)
        hybrid, _ = build_hybrid(base, resnet50_hybrid_config(base))
        out["Pufferfish"] = _breakdown(hybrid, NoCompression, n_nodes, 41, bandwidth=bw)

        vanilla2 = scaled_resnet50(classes=4, width=0.125)
        out["Signum"] = _breakdown(vanilla2, lambda n: Signum(n), n_nodes, 41, bandwidth=bw)
        return out

    res = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        [name, tl.compute, tl.encode, tl.comm, tl.decode, tl.total]
        for name, tl in res.items()
    ]
    print_table(
        "Fig 4a: per-epoch breakdown, ResNet-50-class, 16 nodes (s)"
        " — paper: Pufferfish 1.35x over SGD, 1.28x over Signum",
        ["Method", "Compute", "Encode", "Comm", "Decode", "Total"],
        rows,
    )

    # Strong shapes.
    assert res["Pufferfish"].total < res["SGD"].total
    assert res["Pufferfish"].comm < res["SGD"].comm
    assert res["Signum"].comm < res["SGD"].comm  # 1-bit wire format
    # Competitive with Signum end-to-end (15% band; see module docstring).
    assert res["Pufferfish"].total < 1.15 * res["Signum"].total


def test_fig4b_resnet18_breakdown(benchmark, rng):
    n_nodes = 8

    def experiment():
        out = {}
        vanilla = scaled_resnet18(classes=4, width=0.25)
        out["SGD"] = _breakdown(vanilla, NoCompression, n_nodes, 42)

        base = scaled_resnet18(classes=4, width=0.25)
        hybrid, _ = build_hybrid(base, resnet18_hybrid_config(base))
        out["Pufferfish"] = _breakdown(hybrid, NoCompression, n_nodes, 42)

        v2 = scaled_resnet18(classes=4, width=0.25)
        out["PowerSGD(r=2)"] = _breakdown(v2, lambda n: PowerSGD(n, rank=2), n_nodes, 42)

        v3 = scaled_resnet18(classes=4, width=0.25)
        out["Signum"] = _breakdown(v3, lambda n: Signum(n), n_nodes, 42)
        return out

    res = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        [name, tl.compute, tl.encode, tl.comm, tl.decode, tl.total]
        for name, tl in res.items()
    ]
    print_table(
        "Fig 4b: per-epoch breakdown, ResNet-18-class, 8 nodes (s)"
        " — paper: Pufferfish 1.92x over SGD, 1.33x over PowerSGD, 1.67x over Signum",
        ["Method", "Compute", "Encode", "Comm", "Decode", "Total"],
        rows,
    )
    speedups = {k: res["SGD"].total / tl.total for k, tl in res.items()}
    print_series("Fig 4b speedups over SGD", "method", {k: [v] for k, v in speedups.items()})

    # PowerSGD communicates less than Pufferfish (massive compression)...
    assert res["PowerSGD(r=2)"].comm < res["Pufferfish"].comm
    # ...but Pufferfish has (nearly) no codec cost while PowerSGD pays one.
    assert _codec(res["Pufferfish"]) < _codec(res["PowerSGD(r=2)"])
    # End-to-end: Pufferfish clearly beats SGD and stays within the band of
    # the best compressor.
    assert res["Pufferfish"].total < res["SGD"].total
    assert res["Pufferfish"].total < 1.15 * res["Signum"].total
    assert res["Pufferfish"].total < 1.15 * res["PowerSGD(r=2)"].total


def test_fig4c_ddp_scalability(benchmark, rng):
    """DDP per-iteration time vs node count, from the trainer's own
    bucketed-overlap schedule.  At 0.3 Gbps vanilla SGD's comm goes from
    mostly hidden at 2 nodes to mostly exposed at 16, which is where the
    speedup grows.  Each model runs three times per node count, alternating
    with the other, and keeps its fastest run: one worker's stall sets a
    whole iteration's compute."""
    nodes = [2, 4, 8, 16]

    def per_iter(tl):
        return tl.total / tl.iterations

    def experiment():
        rows = []
        for p in nodes:
            set_seed(43)
            vanilla = scaled_resnet18(classes=4, width=0.25)
            hybrid, _ = build_hybrid(vanilla, resnet18_hybrid_config(vanilla))
            runs = [
                [
                    _breakdown(m, NoCompression, p, 43, bandwidth=0.3, batch=8,
                               overlap=True, bucket_mb=0.5)
                    for m in (vanilla, hybrid)
                ]
                for _ in range(3)
            ]
            rows.append([min(tls, key=per_iter) for tls in zip(*runs)])
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    speedups = [per_iter(v) / per_iter(h) for v, h in rows]
    print_table(
        "Fig 4c: DDP per-iteration time, overlap=True, 0.3 Gbps (s)",
        ["Nodes", "SGD", "Pufferfish", "SGD overlap", "Pufferfish overlap", "Speedup"],
        [
            [p, per_iter(v), per_iter(h), v.overlap["overlap_fraction"],
             h.overlap["overlap_fraction"], s]
            for p, (v, h), s in zip(nodes, rows, speedups)
        ],
    )
    print_series(
        "Fig 4c: DDP Pufferfish speedup vs cluster size (paper: 1.52x @ 16)",
        f"nodes = {nodes}",
        {"speedup": speedups},
    )
    # The Pufferfish advantage grows as the cluster enters the comm-bound
    # regime — the paper's Fig. 4c shape.
    assert speedups[-1] >= speedups[0] - 0.05
    assert all(b >= a - 0.05 for a, b in zip(speedups, speedups[1:]))
    assert speedups[-1] > 1.2  # clearly faster at 16 nodes (paper: 1.52x)
