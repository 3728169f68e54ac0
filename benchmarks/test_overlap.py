"""Overlap benchmark — flat-arena fused SGD and bucketed comm/compute
overlap in the DDP simulator.

Two claims are measured:

* the fused flat-arena update beats the per-tensor Python loop by ≥2× on
  a VGG-19-class parameter set (the optimizer-step wall time is pure
  Python overhead in the loop, one vectorized pass in the arena), while
  staying bit-identical;
* overlapping per-bucket ring allreduces with measured backward compute
  yields a per-iteration time strictly below the sequential
  compute-then-monolithic-allreduce schedule, with the hidden fraction
  reported as ``overlap_fraction``.

Deterministic (modeled) quantities — bucket structure, payload bytes,
monolithic and bucketed comm seconds — are written to
``BENCH_overlap.json`` and gated against
``benchmarks/baselines/overlap_baseline.json`` by
``benchmarks/gate.py overlap``.  Wall-clock numbers (the
fused speedup, measured compute) ride along for context but only
invariants about them are gated.
"""

import time

import numpy as np

from harness import artifact, print_table, scaled_vgg19
from repro.data import DataLoader, shard_dataset
from repro.distributed import (
    ClusterSpec,
    DistributedTrainer,
    build_buckets,
    ring_allreduce_time,
)
from repro.models import MLP
from repro.optim import SGD
from repro.utils import set_seed
from tests.oracles import SGDLoop

_SCENARIOS = artifact("overlap")["scenarios"]


def _fill_grads(params, seed):
    rng = np.random.default_rng(seed)
    for p in params:
        p.grad = rng.standard_normal(p.data.shape).astype(np.float32)


def test_fused_sgd_speedup(benchmark):
    """Fused flat-arena update ≥2× over the per-tensor loop on a VGG-19
    parameter set at the repo's CPU-scaled width, bit-identical results.

    At scaled widths the per-tensor loop is dispatch-bound (~80 numpy
    call sites per step, most on tiny BatchNorm-sized tensors), which is
    exactly the overhead the arena removes.  At full-size tensors both
    paths converge to memory bandwidth — the printed table shows the
    measured numbers so the crossover stays visible.
    """
    width = 0.03125
    set_seed(0)
    loop_model = scaled_vgg19(width=width)
    set_seed(0)
    fused_model = scaled_vgg19(width=width)
    kwargs = dict(lr=0.05, momentum=0.9, weight_decay=1e-4)
    loop_opt = SGDLoop(loop_model.parameters(), **kwargs)
    fused_opt = SGD(fused_model.parameters(), **kwargs)
    fused_opt._ensure_arena()  # exclude one-time arena build from timing
    # Identical grads on both sides, set once outside the timed region
    # (the trajectories stay in lockstep, so bit-exactness still holds).
    _fill_grads(loop_opt.params, 7)
    _fill_grads(fused_opt.params, 7)

    reps, steps = 7, 100

    def time_steps(opt):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(steps):
                opt.step()
            best = min(best, time.perf_counter() - t0)
        return best

    loop_s = benchmark.pedantic(
        lambda: time_steps(loop_opt), rounds=1, iterations=1
    )
    fused_s = time_steps(fused_opt)
    for a, b in zip(loop_model.parameters(), fused_model.parameters()):
        assert np.array_equal(a.data, b.data), "fused update is not bit-exact"

    n_tensors = len(fused_opt.params)
    n_params = int(sum(p.data.size for p in fused_opt.params))
    speedup = loop_s / fused_s
    print_table(
        f"Fused SGD vs per-tensor loop ({steps} steps, best of {reps})",
        ["Optimizer", "Seconds", "Tensors", "Params"],
        [
            ["per-tensor SGD", loop_s, n_tensors, n_params],
            ["FusedSGD (arena)", fused_s, n_tensors, n_params],
        ],
    )
    _SCENARIOS["fused_sgd"] = {
        "n_tensors": n_tensors,
        "n_params": n_params,
        "loop_s": round(loop_s, 6),
        "fused_s": round(fused_s, 6),
        "speedup": round(speedup, 3),
    }
    assert speedup >= 2.0, f"fused speedup {speedup:.2f}x < 2x"


def test_overlap_hides_communication(benchmark):
    """One epoch with bucketed overlap: per-iteration time is strictly
    below the sequential schedule built from the *same* measured compute
    plus a monolithic allreduce — a noise-free comparison, since both
    sides share the wall-clock term."""
    nodes, batch, iters = 4, 8, 4
    cluster = ClusterSpec(nodes, bandwidth_gbps=10.0, latency_s=50e-6)

    set_seed(11)
    model = MLP(3 * 32 * 32, [2048, 2048, 1024], 10)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((nodes * batch * iters, 3 * 32 * 32)).astype(np.float32)
    y = rng.integers(0, 10, len(x))
    loaders = [DataLoader(sx, sy, batch) for sx, sy in shard_dataset(x, y, nodes)]

    trainer = DistributedTrainer(
        model,
        SGD(model.parameters(), lr=0.05, momentum=0.9),
        cluster,
        overlap=True,
        bucket_mb=4.0,
    )
    tl = benchmark.pedantic(lambda: trainer.train_epoch(loaders), rounds=1, iterations=1)

    ov = tl.overlap
    payload_bytes = int(sum(p.data.size for p in model.parameters())) * 4
    comm_mono = ring_allreduce_time(payload_bytes, cluster) * tl.iterations
    iter_overlap = (tl.compute + ov["comm_exposed_s"]) / tl.iterations
    iter_mono = (tl.compute + comm_mono) / tl.iterations

    print_table(
        f"Comm/compute overlap (MLP {payload_bytes / 1e6:.1f} MB payload, "
        f"{nodes} nodes, {tl.iterations} iters)",
        ["Schedule", "Iter (s)", "Comm (s)", "Hidden"],
        [
            ["sequential + monolithic", iter_mono, comm_mono, "0%"],
            [
                "bucketed overlap",
                iter_overlap,
                ov["comm_exposed_s"],
                f"{ov['overlap_fraction']:.0%}",
            ],
        ],
    )
    _SCENARIOS["overlap_mlp"] = {
        "n_buckets": ov["n_buckets"],
        "payload_bytes": payload_bytes,
        "comm_mono_s": round(comm_mono, 9),
        "comm_bucketed_s": round(ov["comm_total_s"], 9),
        "comm_exposed_s": round(ov["comm_exposed_s"], 9),
        "overlap_fraction": round(ov["overlap_fraction"], 6),
        "compute_s": round(tl.compute, 6),
    }

    assert ov["n_buckets"] > 1, "payload did not split into multiple buckets"
    # The acceptance bar: overlap strictly reduces per-iteration time.
    assert iter_overlap < iter_mono, (
        f"overlap iteration {iter_overlap:.6f}s not below "
        f"sequential {iter_mono:.6f}s"
    )
    assert 0.0 < ov["overlap_fraction"] <= 1.0


def test_bucket_structure_deterministic():
    """Bucket assembly is a pure function of sizes+cap — record it so the
    regression gate pins the structure for a known model."""
    set_seed(11)
    model = MLP(3 * 32 * 32, [2048, 2048, 1024], 10)
    sizes = [p.data.size for p in model.parameters()]
    buckets = build_buckets(sizes, 4.0 * 1e6)
    _SCENARIOS["bucket_structure"] = {
        "n_buckets": len(buckets),
        "sizes": [b.size for b in buckets],
        "offsets": [b.offset for b in buckets],
    }
    assert sum(b.size for b in buckets) == sum(sizes)
