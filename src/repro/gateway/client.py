"""Seeded async load-testing client for the gateway.

The simulator's load generator repurposed for real sockets.  A
:func:`build_trace` call turns an :class:`~repro.serve.loadgen.ArrivalSpec`
into a fully-materialized offered trace — request ids, arrival offsets,
payload seeds — using the same counter-keyed RNG discipline as
:func:`~repro.serve.loadgen.generate_arrivals` (payload draws are keyed
``(seed, kind=payload, rid)``).  The trace is a **pure function of the
spec**: no draw depends on server scheduling, connection reuse, or how
much of the trace is replayed, so the same seed offers byte-identical
load to the simulator and to the live gateway — the precondition for the
sim-vs-live twin gate.

Two replay modes:

* **open loop** — every request fires at its trace offset regardless of
  server state (one connection per request), the honest overload model
  and the one the simulator assumes;
* **closed loop** — ``workers`` keep-alive connections issue requests
  back-to-back, each waiting for its response first (think step-wise
  agents, not an arrival process); trace offsets are ignored.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

import numpy as np

from ..serve.loadgen import _KIND_IDS, ArrivalSpec, generate_arrivals
from ..utils import canonical_digest
from . import http as _http

__all__ = [
    "TraceRequest",
    "RequestRecord",
    "build_trace",
    "trace_digest",
    "LoadClient",
    "summarize_records",
]


@dataclass(frozen=True)
class TraceRequest:
    """One offered request: fully determined by (spec.seed, rid)."""

    rid: int
    at_s: float
    payload: int
    steps: int = 1

    def as_dict(self) -> dict:
        return {
            "rid": self.rid,
            "at_s": round(self.at_s, 9),
            "payload": self.payload,
            "steps": self.steps,
        }


def build_trace(
    spec: ArrivalSpec, steps: int = 1, rid_offset: int = 0
) -> list[TraceRequest]:
    """Materialize the offered trace for ``spec``.

    Arrival offsets come from :func:`generate_arrivals`; each request's
    payload seed is an independent counter-keyed draw on its rid, so
    consuming a prefix of the trace (or replaying it out of order) never
    changes any request's identity.  ``rid_offset`` shifts the id range
    (payloads are keyed on the shifted rid, so the trace stays a pure
    function of ``(spec, steps, rid_offset)``) — request ids are unique
    for a server's lifetime, so a second trace replayed against the same
    server needs a disjoint range.
    """
    arrivals = generate_arrivals(spec)
    trace = []
    for i, at_s in enumerate(arrivals):
        rid = rid_offset + i
        rng = np.random.default_rng((spec.seed, _KIND_IDS["payload"], rid))
        payload = int(rng.integers(0, 2**31 - 1))
        trace.append(TraceRequest(rid=rid, at_s=float(at_s), payload=payload, steps=steps))
    return trace


def trace_digest(trace: list[TraceRequest]) -> str:
    """Stable hash of the full offered trace (ids, times, payloads)."""
    return canonical_digest([t.as_dict() for t in trace])


@dataclass
class RequestRecord:
    """Client-side view of one request's round trip."""

    rid: int
    sent_s: float  # offset on the client clock when the request was written
    http_status: int = 0
    status: str = ""  # server-reported outcome status
    latency_s: float | None = None  # client-observed, write → final byte
    batch: int | None = None
    result: object = None
    chunk_times: list[float] = field(default_factory=list)  # per-step recv offsets
    final_s: float | None = None  # recv offset of the terminal frame
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == "completed"

    def as_dict(self) -> dict:
        return {
            "rid": self.rid,
            "sent_s": round(self.sent_s, 6),
            "http_status": self.http_status,
            "status": self.status,
            "latency_ms": None if self.latency_s is None else round(self.latency_s * 1e3, 3),
            "batch": self.batch,
            "n_chunks": len(self.chunk_times),
            "error": self.error,
        }


class LoadClient:
    """Replay a trace against a live gateway over localhost sockets."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    # -- one request over one (reader, writer) pair ----------------------

    async def _issue(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        req: TraceRequest,
        record: RequestRecord,
        t0: float,
        keep_alive: bool,
    ) -> None:
        loop = asyncio.get_running_loop()
        body = {"id": req.rid, "payload": req.payload, "steps": req.steps}
        writer.write(
            _http.render_request(
                "POST", "/v1/infer", body, host=self.host, keep_alive=keep_alive
            )
        )
        await writer.drain()
        record.sent_s = loop.time() - t0
        status, headers = await _http._read_status_and_headers(reader)
        record.http_status = status
        if headers.get("transfer-encoding", "").lower() == "chunked":
            async for chunk in _http.iter_chunks(reader):
                frame = json.loads(chunk)
                t = loop.time() - t0
                if frame.get("final"):
                    record.final_s = t
                    record.status = frame.get("status", "")
                    record.batch = frame.get("batch")
                else:
                    record.chunk_times.append(t)
                    record.result = frame.get("result")
        else:
            length = int(headers.get("content-length", "0") or "0")
            data = await reader.readexactly(length) if length else b""
            frame = json.loads(data or b"{}")
            record.final_s = loop.time() - t0
            record.status = frame.get("status", "")
            record.batch = frame.get("batch")
            record.result = frame.get("result")
        record.latency_s = record.final_s - record.sent_s

    async def _one_shot(self, req: TraceRequest, t0: float) -> RequestRecord:
        record = RequestRecord(rid=req.rid, sent_s=0.0)
        try:
            reader, writer = await asyncio.open_connection(self.host, self.port)
            try:
                await asyncio.wait_for(
                    self._issue(reader, writer, req, record, t0, keep_alive=False),
                    timeout=self.timeout_s,
                )
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, asyncio.CancelledError):
                    pass
        except asyncio.TimeoutError:
            record.error = "timeout"
        except (ConnectionError, _http.HttpError, asyncio.IncompleteReadError) as e:
            record.error = f"{type(e).__name__}: {e}"
        return record

    # -- replay modes ----------------------------------------------------

    async def run_open(self, trace: list[TraceRequest]) -> list[RequestRecord]:
        """Open loop: fire each request at its trace offset, come what may."""
        loop = asyncio.get_running_loop()
        t0 = loop.time()

        async def _fire(req: TraceRequest) -> RequestRecord:
            delay = req.at_s - (loop.time() - t0)
            if delay > 0:
                await asyncio.sleep(delay)
            return await self._one_shot(req, t0)

        return list(await asyncio.gather(*(_fire(r) for r in trace)))

    async def run_closed(
        self, trace: list[TraceRequest], workers: int = 4
    ) -> list[RequestRecord]:
        """Closed loop: ``workers`` keep-alive connections, back-to-back."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        queue: asyncio.Queue[TraceRequest] = asyncio.Queue()
        for req in trace:
            queue.put_nowait(req)
        records: list[RequestRecord] = []

        async def _worker() -> None:
            reader = writer = None
            try:
                while True:
                    try:
                        req = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        return
                    record = RequestRecord(rid=req.rid, sent_s=0.0)
                    try:
                        if writer is None:
                            reader, writer = await asyncio.open_connection(
                                self.host, self.port
                            )
                        await asyncio.wait_for(
                            self._issue(reader, writer, req, record, t0, keep_alive=True),
                            timeout=self.timeout_s,
                        )
                    except asyncio.TimeoutError:
                        record.error = "timeout"
                        writer = reader = None
                    except (
                        ConnectionError,
                        _http.HttpError,
                        asyncio.IncompleteReadError,
                    ) as e:
                        record.error = f"{type(e).__name__}: {e}"
                        writer = reader = None
                    records.append(record)
            finally:
                if writer is not None:
                    writer.close()

        await asyncio.gather(*(_worker() for _ in range(min(workers, len(trace) or 1))))
        return sorted(records, key=lambda r: r.rid)


def summarize_records(records: list[RequestRecord], duration_s: float) -> dict:
    """Client-side aggregate of one replay (the loadtest CLI's output)."""
    n = len(records)
    by_status: dict[str, int] = {}
    for r in records:
        key = r.status or (r.error and "error") or f"http_{r.http_status}"
        by_status[key] = by_status.get(key, 0) + 1
    completed = [r for r in records if r.ok]
    lat = sorted(r.latency_s for r in completed if r.latency_s is not None)

    def q(p: float) -> float:
        if not lat:
            return 0.0
        pos = p * (len(lat) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(lat) - 1)
        return lat[lo] + (lat[hi] - lat[lo]) * (pos - lo)

    # Streaming evidence: a chunk observed strictly before the terminal
    # frame of the same response.
    leads = [
        r.final_s - r.chunk_times[0]
        for r in records
        if r.chunk_times and r.final_s is not None
    ]
    return {
        "n_requests": n,
        "n_completed": len(completed),
        "by_status": dict(sorted(by_status.items())),
        "shed_rate": round(1.0 - len(completed) / n, 6) if n else 0.0,
        "throughput_rps": round(len(completed) / duration_s, 6) if duration_s > 0 else 0.0,
        "p50_ms": round(q(0.50) * 1e3, 3),
        "p95_ms": round(q(0.95) * 1e3, 3),
        "p99_ms": round(q(0.99) * 1e3, 3),
        "streamed": len(leads),
        "stream_lead_ms_max": round(max(leads, default=0.0) * 1e3, 3),
    }
