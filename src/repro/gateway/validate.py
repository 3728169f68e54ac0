"""Sim-vs-live validation: the simulator as the gateway's model.

Every serving number this repo reports historically came from the
discrete-event simulator.  The gateway closes the loop: replay **one
seeded trace** through both

* the simulator on a pinned :class:`LatencyProfile` (pure, modeled
  clock), and
* the live gateway on localhost with a :class:`ProfileExecutor` that
  sleeps exactly that profile (real sockets, real event loop, same
  ``ServingCore`` policy),

then compare what each decided.  Both sides are clock adapters over the
one ``ServingCore`` driver, so on identical timestamps there is nothing
for them to disagree about; what :func:`run_twin` measures is the live
clock itself.  Real scheduling adds jitter (connection setup, loop
wakeups, sleep granularity), so the gate is banded: shed-rate delta,
throughput ratio, and per-request admission/status agreement against the
sim within committed bands.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from ..serve.core import ServeReport
from ..serve.latency import LatencyProfile
from ..serve.loadgen import ArrivalSpec
from ..serve.simulator import ServeConfig, ServeSimulator
from .client import LoadClient, RequestRecord, build_trace, trace_digest
from .executor import ProfileExecutor
from .server import GatewayServer

__all__ = ["TwinResult", "run_twin", "run_twin_async"]


@dataclass
class TwinResult:
    """One sim-vs-live twin run, reduced to the gated quantities."""

    trace_digest: str
    n_requests: int
    sim: dict
    live: dict
    shed_rate_delta: float
    throughput_ratio: float
    admission_agreement: float
    status_agreement: float
    n_client_errors: int

    def as_dict(self) -> dict:
        return {
            "trace_digest": self.trace_digest,
            "n_requests": self.n_requests,
            "sim": self.sim,
            "live": self.live,
            "shed_rate_delta": round(self.shed_rate_delta, 6),
            "throughput_ratio": round(self.throughput_ratio, 6),
            "admission_agreement": round(self.admission_agreement, 6),
            "status_agreement": round(self.status_agreement, 6),
            "n_client_errors": self.n_client_errors,
        }


def _compare(
    trace, sim_report: ServeReport, live_report: ServeReport, records: list[RequestRecord]
) -> TwinResult:
    sim_status = {o.rid: o.status for o in sim_report.outcomes}
    live_status = {o.rid: o.status for o in live_report.outcomes}
    n = len(trace)
    adm_agree = sum(
        (sim_status.get(t.rid) == "shed_admission")
        == (live_status.get(t.rid) == "shed_admission")
        for t in trace
    )
    status_agree = sum(sim_status.get(t.rid) == live_status.get(t.rid) for t in trace)
    sim_tp = sim_report.throughput_rps
    live_tp = live_report.throughput_rps
    return TwinResult(
        trace_digest=trace_digest(trace),
        n_requests=n,
        sim=sim_report.summary(),
        live=live_report.summary(),
        shed_rate_delta=live_report.shed_rate - sim_report.shed_rate,
        throughput_ratio=(live_tp / sim_tp) if sim_tp > 0 else 0.0,
        admission_agreement=adm_agree / n if n else 1.0,
        status_agreement=status_agree / n if n else 1.0,
        n_client_errors=sum(1 for r in records if r.error is not None),
    )


async def run_twin_async(
    profile: LatencyProfile,
    config: ServeConfig,
    spec: ArrivalSpec,
    timeout_s: float = 30.0,
) -> TwinResult:
    """Replay ``spec``'s trace through the simulator and a live localhost
    gateway (profile-timed executor), and reduce to the gated deltas."""
    trace = build_trace(spec)
    sim_report = ServeSimulator(profile, config).run(
        [t.at_s for t in trace], duration_s=spec.duration_s
    )
    server = GatewayServer(ProfileExecutor(profile), config, port=0)
    await server.start()
    try:
        client = LoadClient("127.0.0.1", server.port, timeout_s=timeout_s)
        records = await client.run_open(trace)
    finally:
        await server.stop()
    live_report = server.report(spec.duration_s)
    return _compare(trace, sim_report, live_report, records)


def run_twin(
    profile: LatencyProfile,
    config: ServeConfig,
    spec: ArrivalSpec,
    timeout_s: float = 30.0,
) -> TwinResult:
    """Synchronous wrapper around :func:`run_twin_async`."""
    return asyncio.run(run_twin_async(profile, config, spec, timeout_s=timeout_s))
