"""Numerically exact collectives over simulated workers, plus the flat
gradient buffer used by the paper's single-allreduce optimization
(Section 4.1: pack all gradient tensors into one buffer → one allreduce
per iteration, amortizing the per-call latency).

Two families:

* :func:`allreduce_mean` / :func:`allgather` — semantic collectives: the
  mathematical result, computed directly (cost is modeled separately in
  :mod:`repro.distributed.cost_model`).
* :func:`ring_allreduce_mean` / :func:`ring_allgather` — the *actual*
  ring algorithms, executed step by step with ``np.array_split`` chunking
  (so non-divisible payloads work), used by the chaos/property suites to
  prove the simulated wire protocol is exact.

Every collective takes an optional ``faults=`` injector
(:class:`repro.distributed.faults.FaultInjector`): logical messages may
then drop and be retried with exponential backoff; the modeled penalty
seconds are banked on the injector (``drain_penalty``) for whichever
caller owns the simulated clock, and exhausting the retry budget raises
:class:`~repro.distributed.errors.CollectiveTimeoutError` instead of
hanging or returning a partial sum.
"""

from __future__ import annotations

import numpy as np

from ..compression.base import exact_mean
from ..observability import metrics as _metrics

__all__ = [
    "allreduce_mean",
    "bucketed_allreduce_mean",
    "allgather",
    "ring_allreduce_mean",
    "ring_allgather",
    "flatten_arrays",
    "unflatten_vector",
]


def _charge_faults(faults, op: str, iteration: int, n_messages: int) -> None:
    """Draw drop/retry outcomes for a collective's logical messages and
    bank the penalty seconds on the injector."""
    if faults is not None:
        faults.add_penalty(faults.collective_penalty(op, iteration, n_messages))


def allreduce_mean(
    worker_vectors: list[np.ndarray],
    *,
    faults=None,
    iteration: int = 0,
) -> np.ndarray:
    """Element-wise mean across workers (the semantic of DDP's allreduce)."""
    if not worker_vectors:
        raise ValueError("no worker vectors")
    if _metrics.COLLECT:
        _metrics.REGISTRY.counter("allreduce_calls").inc()
        _metrics.REGISTRY.counter("bytes_moved").inc(
            sum(int(v.nbytes) for v in worker_vectors)
        )
    # One allreduce = 2(p-1) synchronous ring steps; any dropped step
    # stalls the whole ring.
    _charge_faults(faults, "allreduce", iteration, 2 * (len(worker_vectors) - 1))
    return exact_mean(worker_vectors)


def bucketed_allreduce_mean(
    worker_vectors: list[np.ndarray],
    buckets,
    *,
    out: np.ndarray | None = None,
    faults=None,
    iteration: int = 0,
) -> np.ndarray:
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
    if out is None:
        out = np.empty_like(worker_vectors[0])
    for b in buckets:
        sl = slice(int(b.offset), int(b.offset) + int(b.size))
        out[sl] = allreduce_mean(
            [v[sl] for v in worker_vectors], faults=faults, iteration=iteration
        )
    return out


def allgather(worker_payloads: list, *, faults=None, iteration: int = 0) -> list:
    """Every worker receives every payload (identity here; cost is modeled
    separately)."""
    if _metrics.COLLECT:
        _metrics.REGISTRY.counter("allgather_calls").inc()
        _metrics.REGISTRY.counter("bytes_moved").inc(
            sum(int(getattr(p, "nbytes", 0)) for p in worker_payloads)
        )
    _charge_faults(faults, "allgather", iteration, max(len(worker_payloads) - 1, 0))
    return list(worker_payloads)


# ---------------------------------------------------------------------------
# Step-by-step ring algorithms (exact, chunked, fault-aware)
# ---------------------------------------------------------------------------


def ring_allreduce_mean(
    worker_vectors: list[np.ndarray],
    *,
    faults=None,
    iteration: int = 0,
) -> list[np.ndarray]:
    """Execute the 2(p-1)-step ring allreduce and return every worker's
    resulting mean vector (all identical, in each input's dtype).

    Reduce-scatter then allgather over ``p`` chunks from
    ``np.array_split`` — chunk sizes may differ by one, so arbitrary
    (including non-divisible and empty-chunk) payload sizes work.

    Messages carry per-rank provenance and the final reduction sums
    contributions in rank order, so the result is bit-identical to the
    semantic :func:`allreduce_mean` on every worker — and a schedule bug
    (a contribution delivered twice or never) trips an internal check
    instead of silently perturbing the mean.
    """
    if not worker_vectors:
        raise ValueError("no worker vectors")
    p = len(worker_vectors)
    shape = worker_vectors[0].shape
    for v in worker_vectors[1:]:
        if v.shape != shape:
            raise ValueError("all worker vectors must share a shape")
    if _metrics.COLLECT:
        _metrics.REGISTRY.counter("allreduce_calls").inc()
        _metrics.REGISTRY.counter("bytes_moved").inc(
            sum(int(v.nbytes) for v in worker_vectors)
        )
    dtype = worker_vectors[0].dtype
    if p == 1:
        return [worker_vectors[0].copy()]
    _charge_faults(faults, "ring_allreduce", iteration, 2 * (p - 1))

    # buffers[w][c] maps contributing rank -> float64 chunk payload.
    buffers: list[list[dict[int, np.ndarray]]] = [
        [{w: chunk} for chunk in np.array_split(v.reshape(-1).astype(np.float64), p)]
        for w, v in enumerate(worker_vectors)
    ]

    # Reduce-scatter: at step s, worker w sends chunk (w - s) mod p to
    # worker (w + 1) mod p, which merges it.  All sends in a step are
    # simultaneous, so snapshot payloads before mutating.
    for step in range(p - 1):
        payloads = [dict(buffers[w][(w - step) % p]) for w in range(p)]
        for w in range(p):
            dst = (w + 1) % p
            chunk = (w - step) % p
            mine = buffers[dst][chunk]
            if mine.keys() & payloads[w].keys():
                raise AssertionError("ring schedule delivered a chunk twice")
            mine.update(payloads[w])

    # Worker w now owns the fully reduced chunk (w + 1) mod p; rotate the
    # completed chunks around the ring p-1 times.
    for w in range(p):
        if len(buffers[w][(w + 1) % p]) != p:
            raise AssertionError("ring schedule missed a contribution")
    for step in range(p - 1):
        payloads = [buffers[w][(w + 1 - step) % p] for w in range(p)]
        for w in range(p):
            dst = (w + 1) % p
            chunk = (w + 1 - step) % p
            buffers[dst][chunk] = payloads[w]

    def reduce_chunks(chunks: list[dict[int, np.ndarray]]) -> np.ndarray:
        parts = []
        for contributions in chunks:
            acc = contributions[0].copy()
            for rank in range(1, p):
                acc += contributions[rank]
            parts.append(acc)
        return (np.concatenate(parts) / p).astype(dtype).reshape(shape)

    return [reduce_chunks(chunks) for chunks in buffers]


def ring_allgather(
    worker_payloads: list, *, faults=None, iteration: int = 0
) -> list[list]:
    """Execute the (p-1)-step ring allgather; returns each worker's view,
    a list of all payloads in rank order."""
    p = len(worker_payloads)
    if p == 0:
        raise ValueError("no worker payloads")
    if _metrics.COLLECT:
        _metrics.REGISTRY.counter("allgather_calls").inc()
        _metrics.REGISTRY.counter("bytes_moved").inc(
            sum(int(getattr(v, "nbytes", 0)) for v in worker_payloads)
        )
    if p == 1:
        return [list(worker_payloads)]
    _charge_faults(faults, "ring_allgather", iteration, p - 1)

    slots: list[list] = [[None] * p for _ in range(p)]
    for w in range(p):
        slots[w][w] = worker_payloads[w]
    # At step s, worker w forwards slot (w - s) mod p to worker (w+1) mod p.
    for step in range(p - 1):
        payloads = [slots[w][(w - step) % p] for w in range(p)]
        for w in range(p):
            slots[(w + 1) % p][(w - step) % p] = payloads[w]
    return [list(s) for s in slots]


# ---------------------------------------------------------------------------
# Flat gradient buffers
# ---------------------------------------------------------------------------


def flatten_arrays(arrays: list[np.ndarray]) -> np.ndarray:
    """Concatenate arrays into one contiguous float32 vector."""
    return np.concatenate([a.reshape(-1) for a in arrays]).astype(np.float32, copy=False)


def unflatten_vector(vec: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Split a flat vector back into arrays with the given shapes."""
    out = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append(vec[offset : offset + size].reshape(shape))
        offset += size
    if offset != vec.size:
        raise ValueError(f"vector size {vec.size} != total shape size {offset}")
    return out
