"""Measured per-batch inference latency profiles.

Mirrors the measured-compute + modeled-cost design of
:mod:`repro.distributed`: the serving simulator runs entirely on a
modeled clock, but every batch's service time comes from *measured*
``no_grad`` forward passes of the real model on this host, captured once
into a :class:`LatencyProfile` (a small batch-size → seconds table with
linear interpolation between grid points).

Profiles serialize to JSON so a CLI run — and the CI-gated benchmark
scenario — can be replayed bit-identically on any machine: given the
same profile, arrival seed and config, the simulator's request timeline
and shed decisions are a pure function of its inputs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..tensor import no_grad

__all__ = ["LatencyProfile", "measure_latency_profile", "DEFAULT_BATCH_SIZES"]

DEFAULT_BATCH_SIZES = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class LatencyProfile:
    """Batch-size → forward-seconds table for one model variant.

    ``batch_sizes`` must be strictly ascending; ``latency_s`` aligns with
    it.  ``meta`` carries provenance (model name, variant, host) and is
    round-tripped through JSON untouched.
    """

    batch_sizes: tuple[int, ...]
    latency_s: tuple[float, ...]
    meta: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.batch_sizes) != len(self.latency_s) or not self.batch_sizes:
            raise ValueError("batch_sizes and latency_s must align and be non-empty")
        if any(b <= 0 for b in self.batch_sizes) or any(
            a >= b for a, b in zip(self.batch_sizes, self.batch_sizes[1:])
        ):
            raise ValueError("batch_sizes must be positive and strictly ascending")
        if any(t <= 0 for t in self.latency_s):
            raise ValueError("latencies must be positive")

    # -- lookup ---------------------------------------------------------

    def latency(self, batch: int) -> float:
        """Service seconds for a batch of ``batch`` requests.

        Linear interpolation between grid points; beyond the largest
        measured batch, extrapolates with the marginal per-item slope of
        the last segment (per-item cost is flat once the GEMMs saturate).
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        bs, lat = self.batch_sizes, self.latency_s
        if batch <= bs[0]:
            return lat[0]
        if batch >= bs[-1]:
            if len(bs) == 1:
                return lat[0] * batch / bs[0]
            slope = (lat[-1] - lat[-2]) / (bs[-1] - bs[-2])
            return lat[-1] + max(slope, 0.0) * (batch - bs[-1])
        return float(np.interp(batch, bs, lat))

    def throughput_rps(self, batch: int) -> float:
        return batch / self.latency(batch)

    def best_batch(self) -> int:
        """Grid batch size with the highest service throughput."""
        return max(self.batch_sizes, key=self.throughput_rps)

    def capacity_rps(self) -> float:
        """Peak service rate of one replica (requests/second at the best
        batch size) — the knee of the throughput/latency crossover."""
        return self.throughput_rps(self.best_batch())

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "batch_sizes": list(self.batch_sizes),
            "latency_s": list(self.latency_s),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyProfile":
        return cls(
            batch_sizes=tuple(int(b) for b in data["batch_sizes"]),
            latency_s=tuple(float(t) for t in data["latency_s"]),
            meta=tuple(sorted((str(k), str(v)) for k, v in data.get("meta", {}).items())),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "LatencyProfile":
        return cls.from_dict(json.loads(Path(path).read_text()))


def measure_latency_profile(
    model,
    input_spec,
    batch_sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES,
    repeats: int = 3,
    warmup: int = 1,
    meta: dict | None = None,
) -> LatencyProfile:
    """Time real ``no_grad`` eval-mode forwards at each batch size.

    ``input_spec`` is an :class:`~repro.serve.inputs.InputSpec` (any
    modality — images, token sequences, seq2seq pairs).

    Best-of-``repeats`` per batch size (minimum is the standard estimator
    for a noise-floored quantity).  The model is put in eval mode so
    dropout/BN behave as they will in serving, and the whole measurement
    runs under ``no_grad`` — no autograd graph is built, which the
    eval-path test suite asserts engine-wide.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    model.eval()
    rng = np.random.default_rng(0)
    latencies: list[float] = []
    with no_grad():
        for b in batch_sizes:
            args = input_spec.example_batch(b, rng)
            with _trace.span("serve.measure", batch=b):
                for _ in range(warmup):
                    model(*args)
                best = float("inf")
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    model(*args)
                    best = min(best, time.perf_counter() - t0)
            latencies.append(best)
            if _metrics.COLLECT:
                _metrics.REGISTRY.histogram("serve.measured_forward_ms").observe(best * 1e3)
    meta_items = tuple(sorted((str(k), str(v)) for k, v in (meta or {}).items()))
    return LatencyProfile(tuple(batch_sizes), tuple(latencies), meta_items)
