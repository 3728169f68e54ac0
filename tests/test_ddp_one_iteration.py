"""Characterization of ``DistributedTrainer``: one pinned digest per run.

Each configuration below trains the same seeded MLP for two epochs and
hashes everything the simulator decides that is not wall-clock: the final
parameter bytes, the ``(kind, iteration, entity)`` identity of every fault
event, the wire bytes per iteration, the iteration count and the bucket
count.  The table was recorded *before* the three hand-copied iteration
bodies in ``ddp.py`` became one, and must not change when the engine under
it is refactored — a change that moves a digest changed numerics, fault
draws or byte accounting, not just structure.

Every row runs under each registered backend against the same digest: the
MLP's ops (``linear``, ``bias_relu``, the fused optimizers' ``sgd_update``)
are all ``bit-exact`` in :data:`repro.tensor.backend.PARITY`, so the table
binds on the ``fast`` CI leg exactly as on the ``numpy`` ones.  Most rows
train at batch 8; the ``-b32`` rows train at batch 32 with a 128-wide first
layer, the ``32 × 3072 → 128`` forward GEMM of ``ddp_factorized``.

Parameter bytes depend on the BLAS kernels NumPy dispatches to, so the
table only binds on the platform it was recorded on: ``PLATFORM_CANARY``
hashes a forward/backward of the test model that never touches ``ddp.py``,
and the suite skips (loudly) where that differs.

Regenerate on purpose with
``PYTHONPATH=src python tests/test_ddp_one_iteration.py``.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.data import DataLoader, make_cifar_like, shard_dataset
from repro.distributed import (
    ClusterSpec,
    DistributedTrainer,
    HierarchicalSpec,
    parse_fault_spec,
)
from repro.models import MLP
from repro.nn import CrossEntropyLoss
from repro.optim import SGD, FusedSGD
from repro.tensor import Tensor, backend
from repro.utils import canonical_digest, set_seed

WORLD = 4
EPOCHS = 2
FAULTS_REJOIN = (
    "seed=42,straggler=lognormal:0.3:0.5,drop=0.05,link=0.3:0.25:2,"
    "failure=0.02:rejoin:0.5"
)
# Failure probability high enough that the ring really shrinks in 6 iterations.
FAULTS_SHRINK = "seed=7,straggler=lognormal:0.3:0.5,drop=0.05,failure=0.08:shrink"
COMPRESSOR_KWARGS = {
    "powersgd": {"rank": 2},
    "abtrain": {"rank": 2, "resync_every": 3},
    "vargate": {"threshold": 4.0},
    "topk": {"ratio": 0.05},
}
OVERLAPPABLE = ("sgd", "powersgd", "abtrain", "vargate")
CLUSTERS = {
    "flat": lambda: ClusterSpec(WORLD, bandwidth_gbps=0.3),
    "hier": lambda: HierarchicalSpec(2, 2, inter_bandwidth_gbps=0.3),
}
FAULTS = {"clean": None, "rejoin": FAULTS_REJOIN, "shrink": FAULTS_SHRINK}
# Hidden widths per batch size (see the module docstring).
HIDDEN = {8: [64, 32], 32: [128, 32]}


def _configs() -> list[tuple]:
    """(compressor, overlap, faults, fused, flat_allreduce, cluster, batch) rows."""
    rows = []
    for comp in (*OVERLAPPABLE, "topk", "signum"):
        for overlap in (False, True) if comp in OVERLAPPABLE else (False,):
            for faults in ("clean", "rejoin"):
                rows.append((comp, overlap, faults, False, True, "flat", 8))
    for comp in ("sgd", "powersgd"):
        for overlap in (False, True):
            for faults in ("clean", "rejoin"):
                rows.append((comp, overlap, faults, True, True, "flat", 8))
            # Two-level topology and a shrinking ring: neither is covered by
            # the overlap suite.
            rows.append((comp, overlap, "rejoin", False, True, "hier", 8))
            rows.append((comp, overlap, "shrink", False, True, "flat", 8))
        for faults in ("clean", "rejoin"):
            rows.append((comp, False, faults, False, False, "flat", 8))
        rows.append((comp, True, "clean", False, True, "flat", 32))
    rows.append(("sgd", True, "clean", False, True, "hier", 8))
    rows.append(("sgd", False, "clean", False, True, "hier", 8))
    return rows


def _config_id(cfg: tuple) -> str:
    comp, overlap, faults, fused, flat, cluster, batch = cfg
    parts = [
        comp,
        "overlap" if overlap else "blocking",
        faults,
        "fused" if fused else "loop",
        "flat" if flat else "perlayer",
        cluster,
    ]
    return "-".join(parts if batch == 8 else [*parts, f"b{batch}"])


CONFIGS = {_config_id(c): c for c in _configs()}


def _model_and_data(batch: int = 8):
    set_seed(3)
    model = MLP(3 * 32 * 32, HIDDEN[batch], 4)
    ds = make_cifar_like(
        n=WORLD * batch * 3, num_classes=4, noise=0.2, rng=np.random.default_rng(3)
    )
    return model, ds


def _sha(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def run_config(cfg: tuple) -> dict:
    comp, overlap, faults, fused, flat, cluster, batch = cfg
    model, ds = _model_and_data(batch)
    loaders = [DataLoader(x, y, batch) for x, y in shard_dataset(ds.images, ds.labels, WORLD)]
    opt = (FusedSGD if fused else SGD)(model.parameters(), lr=0.05, momentum=0.9)
    spec = FAULTS[faults]
    trainer = DistributedTrainer(
        model,
        opt,
        CLUSTERS[cluster](),
        compressor=make_compressor(comp, WORLD, **COMPRESSOR_KWARGS.get(comp, {})),
        flat_allreduce=flat,
        faults=parse_fault_spec(spec) if spec else None,
        overlap=overlap,
        bucket_mb=0.05,
    )
    timelines = [trainer.train_epoch(loaders) for _ in range(EPOCHS)]
    events = trainer.faults.events if trainer.faults is not None else []
    return {
        "params": _sha(p.data for p in model.parameters()),
        "fault_events": [[e.kind, e.iteration, e.entity] for e in events],
        "bytes_per_iteration": [float(t.bytes_per_iteration) for t in timelines],
        "iterations": [t.iterations for t in timelines],
        "n_buckets": [t.overlap.get("n_buckets", 0) for t in timelines],
    }


@functools.cache
def platform_canary() -> str:
    """Gradients of the test model on fixed data, straight through autograd."""
    model, ds = _model_and_data()
    with backend.use("numpy"):
        loss = CrossEntropyLoss()(model(Tensor(ds.images[:8])), ds.labels[:8])
        loss.backward()
    return _sha(p.grad for p in model.parameters())[:16]


PLATFORM_CANARY = "6518a12526f56c53"

# fmt: off
PINNED = {
    "abtrain-blocking-clean-loop-flat-flat": "ced1f3e57144c11a",
    "abtrain-blocking-rejoin-loop-flat-flat": "e78b53ed81c6c712",
    "abtrain-overlap-clean-loop-flat-flat": "8c110dd4ca5cc2d5",
    "abtrain-overlap-rejoin-loop-flat-flat": "c6453384617465b5",
    "powersgd-blocking-clean-fused-flat-flat": "8c05c95becee9e74",
    "powersgd-blocking-clean-loop-flat-flat": "8c05c95becee9e74",
    "powersgd-blocking-clean-loop-perlayer-flat": "8c05c95becee9e74",
    "powersgd-blocking-rejoin-fused-flat-flat": "8c4012f46bfff3f9",
    "powersgd-blocking-rejoin-loop-flat-flat": "8c4012f46bfff3f9",
    "powersgd-blocking-rejoin-loop-flat-hier": "8c4012f46bfff3f9",
    "powersgd-blocking-rejoin-loop-perlayer-flat": "8c4012f46bfff3f9",
    "powersgd-blocking-shrink-loop-flat-flat": "b3404baaa73cb832",
    "powersgd-overlap-clean-fused-flat-flat": "1873a0fe6c2e3ada",
    "powersgd-overlap-clean-loop-flat-flat": "1873a0fe6c2e3ada",
    "powersgd-overlap-clean-loop-flat-flat-b32": "c682f231e8af6c1f",
    "powersgd-overlap-rejoin-fused-flat-flat": "cfc4f6e141c8b1d3",
    "powersgd-overlap-rejoin-loop-flat-flat": "cfc4f6e141c8b1d3",
    "powersgd-overlap-rejoin-loop-flat-hier": "cfc4f6e141c8b1d3",
    "powersgd-overlap-shrink-loop-flat-flat": "73c453362134fe22",
    "sgd-blocking-clean-fused-flat-flat": "fc3e8cf49368244a",
    "sgd-blocking-clean-loop-flat-flat": "fc3e8cf49368244a",
    "sgd-blocking-clean-loop-flat-hier": "fc3e8cf49368244a",
    "sgd-blocking-clean-loop-perlayer-flat": "fc3e8cf49368244a",
    "sgd-blocking-rejoin-fused-flat-flat": "0a2840363642a40b",
    "sgd-blocking-rejoin-loop-flat-flat": "0a2840363642a40b",
    "sgd-blocking-rejoin-loop-flat-hier": "0a2840363642a40b",
    "sgd-blocking-rejoin-loop-perlayer-flat": "0a2840363642a40b",
    "sgd-blocking-shrink-loop-flat-flat": "bc1fb3eb5c21fd96",
    "sgd-overlap-clean-fused-flat-flat": "ef17317c345587fc",
    "sgd-overlap-clean-loop-flat-flat": "ef17317c345587fc",
    "sgd-overlap-clean-loop-flat-flat-b32": "80e06727234889d7",
    "sgd-overlap-clean-loop-flat-hier": "ef17317c345587fc",
    "sgd-overlap-rejoin-fused-flat-flat": "76564a488d28aa5b",
    "sgd-overlap-rejoin-loop-flat-flat": "76564a488d28aa5b",
    "sgd-overlap-rejoin-loop-flat-hier": "76564a488d28aa5b",
    "sgd-overlap-shrink-loop-flat-flat": "e51bd399332ee53a",
    "signum-blocking-clean-loop-flat-flat": "d31c5c4afae87950",
    "signum-blocking-rejoin-loop-flat-flat": "d2c2deabab81e5f1",
    "topk-blocking-clean-loop-flat-flat": "c019f5d8ad1eb129",
    "topk-blocking-rejoin-loop-flat-flat": "4d236e9938d7dd09",
    "vargate-blocking-clean-loop-flat-flat": "f2456fe9471d854b",
    "vargate-blocking-rejoin-loop-flat-flat": "9645eef5b9e7e29c",
    "vargate-overlap-clean-loop-flat-flat": "d4b6cc592cf99cf1",
    "vargate-overlap-rejoin-loop-flat-flat": "7b46fddcababd5fa",
}
# fmt: on


def test_table_covers_the_matrix():
    assert set(PINNED) == set(CONFIGS)
    # The corners the overlap suite leaves out are really in the table.
    assert any(c[5] == "hier" and c[1] for c in CONFIGS.values())
    assert any(c[2] == "shrink" and c[1] for c in CONFIGS.values())


def test_shrink_spec_really_shrinks_the_ring():
    out = run_config(CONFIGS["sgd-overlap-shrink-loop-flat-flat"])
    assert any(kind == "failure" for kind, _, _ in out["fault_events"])


def digest(name: str, backend_name: str) -> str:
    with backend.use(backend_name):
        return canonical_digest(run_config(CONFIGS[name]))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_digest_is_pinned(name):
    if platform_canary() != PLATFORM_CANARY:
        pytest.skip(
            "digest table was recorded on different BLAS kernels "
            f"(canary {platform_canary()} != {PLATFORM_CANARY})"
        )
    for backend_name in backend.available():
        assert digest(name, backend_name) == PINNED[name], f"{name} on {backend_name}"


if __name__ == "__main__":
    print(f'PLATFORM_CANARY = "{platform_canary()}"')
    print("PINNED = {")
    for name in sorted(CONFIGS):
        print(f'    "{name}": "{digest(name, "numpy")}",')
    print("}")
