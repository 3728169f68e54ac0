"""Discrete-event serving simulation over measured latency profiles.

The simulator is the *modeled clock* over
:class:`~repro.serve.core.ServingCore`, which owns admission, the dynamic
batcher, the replica pool and the outcome ledger.  Per-batch service
times come from a :class:`~repro.serve.latency.LatencyProfile` (measured
``no_grad`` forwards of the real model), so the run is a *pure function*
of ``(arrival times, profile, config)``: two runs with the same inputs
produce identical request timelines, shed decisions, and digests — the
serving analogue of the fault injector's determinism guarantee.

Events processed in strict time order:

* **arrival** — the admission controller predicts the request's
  completion from the queue depth and replica occupancy; predicted SLO
  misses are shed immediately (``shed_admission``).
* **dispatch** — when a replica is free and the batcher's head batch is
  full (or its oldest request hits ``max_wait_s``), up to
  ``max_batch_size`` requests leave the queue; any whose deadline already
  passed are shed (``shed_deadline``), the rest ride one measured-latency
  forward together.

Latency quantiles, throughput, queue depth and shed rate flow through
:mod:`repro.observability` under the ``serve.*`` namespace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..observability import metrics as _metrics
from ..observability import trace as _trace
from .batcher import BatchPolicy, Request
from .core import ServeReport, ServingCore
from .latency import LatencyProfile

__all__ = ["ServeConfig", "ServeSimulator"]


@dataclass(frozen=True)
class ServeConfig:
    """Serving-side knobs: the SLO, the batcher, and the replica pool."""

    slo_s: float
    policy: BatchPolicy = field(default_factory=BatchPolicy)
    replicas: int = 1

    def __post_init__(self) -> None:
        if self.slo_s <= 0:
            raise ValueError("slo_s must be positive")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")


class ServeSimulator:
    """One replica pool serving one model variant under offered load.

    ``pool`` names this replica pool in the observability registry: the
    run maintains *live* ``serve.pool.shed_rate{pool=...}`` and
    ``serve.pool.utilization{pool=...}`` gauges, updated at every
    admission decision and batch dispatch rather than once at the end —
    they are the autoscaler's input signal, and at run end they equal the
    report summary exactly.
    """

    def __init__(self, profile: LatencyProfile, config: ServeConfig, pool: str = "pool0"):
        self.profile = profile
        self.config = config
        self.pool = pool

    def run(self, arrival_times, duration_s: float | None = None) -> ServeReport:
        """Simulate serving every arrival; returns the full report.

        ``duration_s`` normalizes throughput (defaults to the later of the
        last arrival and the last completion).
        """
        cfg = self.config
        arrivals = [float(t) for t in arrival_times]
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ValueError("arrival times must be sorted")
        requests = [Request(i, t, t + cfg.slo_s) for i, t in enumerate(arrivals)]
        core = ServingCore(self.profile, cfg, pool=self.pool, namespace="serve")
        collect = _metrics.COLLECT
        util_gauge = None
        if collect:
            util_gauge = _metrics.REGISTRY.gauge("serve.pool.utilization").labels(
                pool=self.pool
            )
            _metrics.REGISTRY.gauge("serve.pool.replicas").labels(pool=self.pool).set(
                cfg.replicas
            )

        i, n = 0, len(requests)
        with _trace.span("serve.run", requests=n, replicas=cfg.replicas):
            while i < n or len(core):
                dispatch_s = core.dispatch_due()
                # Arrivals strictly before the next dispatch are processed
                # first — the admission estimate must see the queue state
                # as it stands at their arrival instant.
                if i < n and (dispatch_s is None or requests[i].arrival_s < dispatch_s):
                    core.offer(requests[i])
                    i += 1
                    continue

                live, _ = core.cut_batch(dispatch_s)
                if not live:
                    continue
                # Modeled clock: the estimate *is* the actual service time.
                service = self.profile.latency(len(live))
                replica = core.start_batch(dispatch_s, service)
                with _trace.span(
                    "serve.batch",
                    batch=len(core.batches),
                    size=len(live),
                    dispatch_s=dispatch_s,
                    service_s=service,
                ):
                    core.finish_batch(replica, live, dispatch_s, service)
                if collect:
                    # Live busy-fraction signal (the core keeps the
                    # shed-rate twin up to date itself).
                    wall = core.last_completion_s * cfg.replicas
                    util_gauge.set(min(core.busy_s / wall, 1.0) if wall > 0 else 0.0)

        report = core.report(duration_s)
        if collect:
            # Final gauge state equals the run summary exactly (the live
            # updates above converge to these values).
            core.shed_gauge().set(report.shed_rate)
            util_gauge.set(report.utilization)
            _metrics.REGISTRY.gauge("serve.shed_rate").set(report.shed_rate)
            _metrics.REGISTRY.gauge("serve.throughput_rps").set(report.throughput_rps)
            _metrics.REGISTRY.gauge("serve.p95_ms").set(
                report.latency_quantile(0.95) * 1e3
            )
        return report
