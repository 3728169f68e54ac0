"""The exact allreduce mean over simulated workers.

:func:`allreduce_mean` is DDP's allreduce semantic, computed directly: the
float64 elementwise mean in worker order
(:func:`~repro.compression.base.exact_mean`).  Its cost is modeled
separately in :mod:`repro.distributed.cost_model`, and fault penalties are
drawn and charged by :class:`~repro.distributed.ddp.DistributedTrainer`,
the one owner of the simulated clock.  The trainer itself reduces through
``compressor.decode_aggregate``; :func:`bucketed_allreduce_mean` says who
calls these instead.
"""

from __future__ import annotations

import numpy as np

from ..compression.base import exact_mean
from ..observability import metrics as _metrics

__all__ = ["allreduce_mean", "bucketed_allreduce_mean"]


def allreduce_mean(worker_vectors: list[np.ndarray]) -> np.ndarray:
    """Element-wise mean across workers (the semantic of DDP's allreduce)."""
    if not worker_vectors:
        raise ValueError("no worker vectors")
    if _metrics.COLLECT:
        _metrics.REGISTRY.counter("allreduce_calls").inc()
        _metrics.REGISTRY.counter("bytes_moved").inc(
            sum(int(v.nbytes) for v in worker_vectors)
        )
    return exact_mean(worker_vectors)


def bucketed_allreduce_mean(worker_vectors: list[np.ndarray], buckets) -> np.ndarray:
    """Per-bucket elementwise mean over flat worker vectors.

    ``buckets`` is any sequence of objects with ``offset``/``size``
    element slices (e.g. :class:`repro.distributed.overlap.Bucket`) that
    must tile each vector exactly.  Every bucket is one
    :func:`allreduce_mean`, i.e. one
    :func:`~repro.compression.base.exact_mean`, which accumulates in
    float64 *elementwise* in worker order, so slicing the reduction into
    buckets is bit-exact vs one monolithic call.  The trainer does not call
    this function: ``NoCompression.decode_aggregate`` runs the same
    ``exact_mean`` per layer of each bucket.  It stays as the bucket-tiling
    oracle of ``tests/test_overlap_sim.py`` and the
    ``distributed.allreduce_ms`` row of the repo benchmark.
    """
    if not worker_vectors:
        raise ValueError("no worker vectors")
    size = worker_vectors[0].size
    spans = sorted((int(b.offset), int(b.size)) for b in buckets)
    expected = 0
    for off, length in spans:
        if off != expected:
            raise ValueError("buckets must tile the vector exactly")
        expected = off + length
    if expected != size:
        raise ValueError(f"buckets cover {expected} elements, vectors have {size}")
    out = np.empty_like(worker_vectors[0])
    for b in buckets:
        sl = slice(int(b.offset), int(b.offset) + int(b.size))
        out[sl] = allreduce_mean([v[sl] for v in worker_vectors])
    return out
