"""Parameter-server cost model and time-varying bandwidth (Appendix K).

The paper notes Pufferfish is compatible with BytePS-style parameter
servers as well as allreduce.  This module adds:

* :func:`parameter_server_time` — push/pull cost model: each of ``p``
  workers pushes its gradient to ``s`` servers (sharded) and pulls the
  updated model back, so per-iteration wire time is ``2·M/B · p/s`` on the
  server side (the bottleneck) plus two latency terms.
* :class:`BandwidthTrace` — time-varying link bandwidth.  Appendix K
  reports that p3.2xlarge "up to 10 Gbps" links *decay sharply* mid-run;
  the trace lets the simulator reproduce that and measure its effect on
  each method's epoch time.

Kept for: ``benchmarks/test_appendix_k_bandwidth.py`` (Appendix K's
bandwidth-decay table); no trainer path uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cost_model import ClusterSpec, _check_degradation

__all__ = ["parameter_server_time", "BandwidthTrace", "effective_epoch_times"]


def parameter_server_time(
    nbytes: float,
    cluster: ClusterSpec,
    num_servers: int = 1,
    *,
    degradation: float = 1.0,
) -> float:
    """Push+pull time for one worker's gradient of ``nbytes``.

    With ``s`` servers sharding the model, each server ingests ``p·M/s``
    bytes per phase; both push and pull phases cross the server NICs, so

        ``T = 2 α + 2 · (p/s) · M / B``.

    At ``s = p`` this matches allreduce bandwidth-wise; at ``s = 1`` the
    single server is a ``p×`` bottleneck — the classic PS scaling problem.

    ``degradation`` scales the effective bandwidth (transient congestion).
    """
    if num_servers < 1:
        raise ValueError("num_servers must be >= 1")
    _check_degradation(degradation)
    p = cluster.num_nodes
    if p == 1:
        return 0.0
    per_server = p / num_servers
    bps = cluster.bytes_per_second * degradation
    return 2 * cluster.latency_s + 2 * per_server * nbytes / bps


@dataclass
class BandwidthTrace:
    """Piecewise-constant bandwidth over the course of a run.

    ``segments`` is a list of ``(fraction_of_run, bandwidth_gbps)`` whose
    fractions sum to 1 — e.g. Appendix K's mid-run decay is
    ``[(0.4, 10.0), (0.6, 2.0)]``.
    """

    segments: list[tuple[float, float]] = field(
        default_factory=lambda: [(1.0, 10.0)]
    )

    def __post_init__(self) -> None:
        total = sum(frac for frac, _ in self.segments)
        if abs(total - 1.0) > 1e-6:
            raise ValueError("segment fractions must sum to 1")
        if any(bw <= 0 for _, bw in self.segments):
            raise ValueError("bandwidths must be positive")

    def bandwidth_at(self, progress: float) -> float:
        """Bandwidth (Gbps) at run progress in [0, 1]."""
        progress = min(max(progress, 0.0), 1.0)
        acc = 0.0
        for frac, bw in self.segments:
            acc += frac
            if progress <= acc + 1e-12:
                return bw
        return self.segments[-1][1]

    def mean_inverse_bandwidth(self) -> float:
        """Time-averaged ``1/B`` — what cumulative comm time scales with."""
        return sum(frac / bw for frac, bw in self.segments)


def effective_epoch_times(
    comm_seconds_at_nominal: float,
    compute_seconds: float,
    n_epochs: int,
    trace: BandwidthTrace,
    nominal_gbps: float = 10.0,
) -> list[float]:
    """Per-epoch totals when bandwidth follows ``trace`` over the run.

    ``comm_seconds_at_nominal`` is the per-epoch communication time at
    ``nominal_gbps``; compute is bandwidth-independent.
    """
    out = []
    for epoch in range(n_epochs):
        progress = (epoch + 0.5) / n_epochs
        bw = trace.bandwidth_at(progress)
        out.append(compute_seconds + comm_seconds_at_nominal * nominal_gbps / bw)
    return out
