"""The asyncio serving gateway: real sockets over the simulator's driver.

:class:`GatewayServer` is the live twin of
:class:`~repro.serve.simulator.ServeSimulator`.  Both are clock adapters
over the *same* :class:`~repro.serve.core.ServingCore`, which owns
admission, dynamic batching, the replica pool and the outcome ledger; the
simulator feeds it modeled timestamps, the gateway feeds it the
event-loop clock (``loop.time()`` rebased to a run epoch, so all
timestamps are small floats like the sim's).  What each adapter supplies:

==================  ==========================  ==========================
``ServingCore``     simulator supplies          gateway supplies
==================  ==========================  ==========================
``offer``           modeled arrival time        ``now()`` when the POST
                                                body is parsed
``dispatch_due``    the next modeled event      what an idle worker task
                                                sleeps until
``start_batch``     ``profile.latency(B)``      ``executor.estimate`` — Σ
                    as the estimate             over steps of the latency
                                                of the members still
                                                aboard; what admission
                                                sees meanwhile
``leave_batch``     never (one-step             ``now()`` after the step
                    requests)                   that was a member's last,
                                                others still computing
``finish_batch``    the same                    elapsed ``run_step`` time
                    ``profile.latency(B)``      (real forwards or a
                    as the actual               profile-timed sleep)
``fail_batch``      never                       ``run_step`` raised
``report``          ``ServeReport``             the same class, same
                                                ledger
==================  ==========================  ==========================

Streaming: a request with ``steps=k`` gets a chunked response whose
frames are flushed one per completed batch step — partial results arrive
while later steps are still computing.  Batch membership is per step: a
member leaves after its own last step — completed in the ledger and
answered at that instant — and the next step is computed for the members
still aboard only, so a unary request never waits for a streaming
batch-mate.  Graceful shutdown stops accepting, sheds the queue with
reason ``shutdown`` (clients get 503s, the report accounts every
request), then drains in-flight batches.  An executor exception sheds the
members still aboard with reason ``error`` (clients get 500s, or the
terminal frame of a stream already begun; a member that had left keeps
its answer), frees the replica, and the worker keeps serving.

Metrics mirror the simulator's under the ``serve.gateway.*`` namespace.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, field

from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..serve.admission import SHED_ERROR, SHED_SHUTDOWN
from ..serve.batcher import Request
from ..serve.core import COMPLETED, RequestOutcome, ServeReport, ServingCore
from ..serve.simulator import ServeConfig
from . import http as _http

__all__ = ["GatewayServer", "run_server", "NAMESPACE"]

NAMESPACE = "serve.gateway"

_log = logging.getLogger(__name__)

# Auto-assigned request ids start far above any client-chosen trace id so
# the two ranges never collide in the outcome map.
_AUTO_RID_BASE = 1 << 30


@dataclass
class _Pending:
    """Server-side state of one admitted request."""

    request: Request
    payload: int
    steps: int
    stream: bool
    events: asyncio.Queue = field(default_factory=asyncio.Queue)


class GatewayServer:
    """One replica pool serving HTTP on localhost, policy-identical to the sim.

    ``executor`` is a :class:`~repro.gateway.executor.ModelExecutor` (real
    forwards) or :class:`~repro.gateway.executor.ProfileExecutor` (pinned
    profile, for twin validation).  ``config`` is the same
    :class:`~repro.serve.simulator.ServeConfig` the simulator takes.
    """

    def __init__(
        self,
        executor,
        config: ServeConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        pool: str = "gateway0",
    ):
        self.executor = executor
        self.config = config
        self.host = host
        self.port = port  # rebound to the real port once listening
        self.pool = pool
        self.core = ServingCore(executor.profile, config, pool=pool, namespace=NAMESPACE)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._t0 = 0.0
        self._stopping = False
        self._work = asyncio.Event()
        self._workers: list[asyncio.Task] = []
        self._conn_tasks: set[asyncio.Task] = set()
        self._pending: dict[int, _Pending] = {}
        self._auto_rid = _AUTO_RID_BASE

    # -- clock ----------------------------------------------------------

    def now(self) -> float:
        """Seconds since the server started, on the event-loop clock.

        This is the *only* clock the serving path uses — it feeds the same
        ``ServingCore`` calls the simulator makes with its modeled clock.
        """
        return self._loop.time() - self._t0

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self._server = await asyncio.start_server(self._handle_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        # One task per replica slot; the core picks which replica a batch
        # rides, so the tasks themselves are interchangeable.
        self._workers = [
            asyncio.ensure_future(self._worker()) for _ in range(self.config.replicas)
        ]
        if _metrics.COLLECT:
            _metrics.REGISTRY.gauge(f"{NAMESPACE}.pool.replicas").labels(
                pool=self.pool
            ).set(self.config.replicas)

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, shed the queue with reason
        ``shutdown``, drain in-flight batches, flush every response."""
        if self._stopping:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
        for outcome in self.core.shed_queue(SHED_SHUTDOWN):
            self._resolve(outcome)
        self._work.set()
        if self._workers:
            await asyncio.gather(*self._workers)
        if self._conn_tasks:
            # Every handler now has its terminal event queued; give the
            # flushes a bounded window rather than hanging on a dead peer.
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        if self._server is not None:
            await self._server.wait_closed()
        close = getattr(self.executor, "close", None)
        if close is not None:
            close()

    async def serve_until(self, stop_event: asyncio.Event) -> None:
        """Run until ``stop_event`` fires, then shut down gracefully."""
        await self.start()
        await stop_event.wait()
        await self.stop()

    # -- report ----------------------------------------------------------

    def report(self, duration_s: float | None = None) -> ServeReport:
        """The run so far as the simulator's own report class."""
        return self.core.report(duration_s)

    # -- dispatch workers ------------------------------------------------

    async def _worker(self) -> None:
        """One replica slot: wake at ``core.dispatch_due``, cut, execute.

        The due/cut/start sequence runs without an intervening ``await``,
        so on the single-threaded loop two workers can never cut the same
        batch or claim the same replica.
        """
        core = self.core
        while True:
            if not core.queue_depth:
                if self._stopping:
                    return
                self._work.clear()
                # Nothing can enqueue between the depth check and this
                # wait (no await in between) — the clear/wait pair is safe.
                await self._work.wait()
                continue
            # An idle worker means an idle replica, so ``due`` is never
            # held back by the pool — only by the batch not being ready.
            delay = core.dispatch_due() - self.now()
            if delay > 0:
                self._work.clear()
                try:
                    # Sleep until the flush deadline, but wake early when a
                    # new arrival may have filled the batch.
                    await asyncio.wait_for(self._work.wait(), timeout=delay)
                except asyncio.TimeoutError:
                    pass
                continue
            dispatch_s = self.now()
            live, expired = core.cut_batch(dispatch_s)
            for outcome in expired:
                self._resolve(outcome)
            if not live:
                continue
            await self._run_batch(live, dispatch_s)

    async def _run_batch(self, live: list[Request], dispatch_s: float) -> None:
        core = self.core
        aboard = [self._pending[r.rid] for r in live]
        steps = [p.steps for p in aboard]
        # Claim the replica with the busy estimate *before* the first
        # await, so admission decisions made while this batch is in
        # flight see it.
        replica = core.start_batch(dispatch_s, self.executor.estimate(steps))
        try:
            with _trace.span(
                f"{NAMESPACE}.batch",
                replica=replica,
                size=len(live),
                steps=max(steps),
                member_steps=sum(steps),
            ):
                for step in range(max(steps)):
                    results = await self.executor.run_step(
                        [p.request for p in aboard], [p.payload for p in aboard], step
                    )
                    t = self.now()
                    if _metrics.COLLECT:
                        _metrics.REGISTRY.counter(f"{NAMESPACE}.steps").inc()
                        _metrics.REGISTRY.counter(f"{NAMESPACE}.member_steps").inc(len(aboard))
                    for pend, result in zip(aboard, results):
                        pend.events.put_nowait(("step", step, result, t))
                    # Whoever just had their last step leaves now; the
                    # longest member stays to the end, where finish_batch
                    # completes everyone still aboard.
                    staying = [p for p in aboard if p.steps > step + 1]
                    if staying and len(staying) < len(aboard):
                        leavers = [p.request for p in aboard if p.steps == step + 1]
                        for outcome in core.leave_batch(replica, leavers, t):
                            self._resolve(outcome)
                        aboard = staying
        except Exception:
            # A failing executor must cost exactly the members still
            # aboard: account them, answer their clients, free the replica,
            # keep the worker alive.
            _log.exception(
                "executor failed with %d of %d batch members aboard; shedding them",
                len(aboard), len(live),
            )
            outcomes = core.fail_batch(replica, [p.request for p in aboard], self.now())
        else:
            outcomes = core.finish_batch(
                replica, [p.request for p in aboard], dispatch_s, self.now() - dispatch_s
            )
        for outcome in outcomes:
            self._resolve(outcome)

    def _resolve(self, outcome: RequestOutcome) -> None:
        """Hand a request's terminal outcome to its waiting handler."""
        self._pending.pop(outcome.rid).events.put_nowait(("done", outcome))

    # -- connection handling ---------------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        if _metrics.COLLECT:
            _metrics.REGISTRY.counter(f"{NAMESPACE}.connections").inc()
        try:
            while True:
                request = await _http.read_request(reader)
                if request is None:
                    break
                keep = await self._route(request, writer)
                await writer.drain()
                if not keep:
                    break
        except _http.HttpError as e:
            try:
                writer.write(
                    _http.render_response(
                        e.status, {"error": str(e)}, keep_alive=False
                    )
                )
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _route(self, request: _http.HttpRequest, writer) -> bool:
        path, _, query = request.path.partition("?")
        keep = request.keep_alive
        if request.method == "POST" and path == "/v1/infer":
            return await self._handle_infer(request, writer)
        if request.method == "GET" and path == "/healthz":
            body = {"ok": True, "t_s": round(self.now(), 6), "stopping": self._stopping}
        elif request.method == "GET" and path == "/v1/model":
            body = self.executor.describe() | {
                "slo_ms": self.config.slo_s * 1e3,
                "max_batch_size": self.config.policy.max_batch_size,
                "max_wait_ms": self.config.policy.max_wait_s * 1e3,
                "replicas": self.config.replicas,
            }
        elif request.method == "GET" and path == "/v1/report":
            duration = None
            for part in query.split("&"):
                if part.startswith("duration_s="):
                    duration = float(part.removeprefix("duration_s="))
            report = self.report(duration)
            body = {"summary": report.summary(), "timeline": report.timeline()}
        elif request.method == "GET" and path == "/metrics":
            body = _metrics.REGISTRY.snapshot()
        else:
            writer.write(
                _http.render_response(404, {"error": f"no route {request.method} {path}"})
            )
            return keep
        writer.write(_http.render_response(200, body, keep_alive=keep))
        return keep

    async def _handle_infer(self, request: _http.HttpRequest, writer) -> bool:
        body = request.json()
        if not isinstance(body, dict):
            raise _http.HttpError(400, "infer body must be a JSON object")
        keep = request.keep_alive
        try:
            rid = int(body.get("id", self._auto_rid))
            payload = int(body.get("payload", 0))
            steps = int(body.get("steps", 1))
        except (TypeError, ValueError) as e:
            raise _http.HttpError(400, f"bad infer field: {e}") from e
        stream = bool(body.get("stream", steps > 1))
        if steps < 1 or steps > 64:
            raise _http.HttpError(400, "steps must be in [1, 64]")
        if rid in self.core.outcomes:
            raise _http.HttpError(400, f"duplicate request id {rid}")
        if rid == self._auto_rid:
            self._auto_rid += 1

        arrival = self.now()
        req = Request(rid, arrival, arrival + self.config.slo_s)
        if self._stopping:
            # Late arrival during drain: accounted, never queued.
            outcome = self.core.refuse(req, SHED_SHUTDOWN)
            writer.write(
                _http.render_response(
                    503, {"rid": rid, "status": outcome.status}, keep_alive=False
                )
            )
            return False

        with _trace.span(f"{NAMESPACE}.request", rid=rid, steps=steps):
            decision = self.core.offer(req)
            if not decision.admitted:
                outcome = self.core.outcomes[rid]
                writer.write(
                    _http.render_response(
                        503,
                        {
                            "rid": rid,
                            "status": outcome.status,
                            "est_completion_ms": round(
                                (decision.est_completion_s - arrival) * 1e3, 3
                            ),
                            "slo_ms": self.config.slo_s * 1e3,
                        },
                        keep_alive=keep,
                    )
                )
                return keep
            pend = _Pending(request=req, payload=payload, steps=steps, stream=stream)
            self._pending[rid] = pend
            self._work.set()
            if stream:
                return await self._stream_response(rid, pend, writer, keep)
            return await self._unary_response(rid, pend, writer, keep)

    async def _unary_response(self, rid: int, pend: _Pending, writer, keep: bool) -> bool:
        result = None
        while True:
            event = await pend.events.get()
            if event[0] == "step":
                result = event[2]
                continue
            outcome: RequestOutcome = event[1]
            break
        if outcome.status == COMPLETED:
            writer.write(
                _http.render_response(
                    200,
                    {
                        "rid": rid,
                        "status": COMPLETED,
                        "result": result,
                        "batch": outcome.batch,
                        "latency_ms": round(outcome.latency_s * 1e3, 3),
                        "slo_ok": bool(outcome.slo_ok),
                    },
                    keep_alive=keep,
                )
            )
            return keep
        status = 500 if outcome.status == f"shed_{SHED_ERROR}" else 503
        writer.write(
            _http.render_response(
                status, {"rid": rid, "status": outcome.status}, keep_alive=keep
            )
        )
        return keep

    async def _stream_response(self, rid: int, pend: _Pending, writer, keep: bool) -> bool:
        """Chunked response: one frame per completed batch step, flushed
        immediately — the client sees partials before the batch finishes."""
        writer.write(_http.render_response(200, chunked=True, keep_alive=keep))
        await writer.drain()
        while True:
            event = await pend.events.get()
            if event[0] == "step":
                _, step, result, t = event
                writer.write(
                    _http.encode_chunk(
                        {
                            "rid": rid,
                            "step": step,
                            "of": pend.steps,
                            "result": result,
                            "t_s": round(t, 6),
                        }
                    )
                )
                await writer.drain()
                continue
            outcome: RequestOutcome = event[1]
            final = {"rid": rid, "final": True, "status": outcome.status}
            if outcome.status == COMPLETED:
                final |= {
                    "batch": outcome.batch,
                    "latency_ms": round(outcome.latency_s * 1e3, 3),
                    "slo_ok": bool(outcome.slo_ok),
                }
            writer.write(_http.encode_chunk(final) + _http.LAST_CHUNK)
            await writer.drain()
            return keep


def run_server(server: GatewayServer, duration_s: float | None = None) -> ServeReport:
    """Blocking convenience runner: start, serve, stop, report.

    With ``duration_s`` the server stops itself after that many seconds;
    otherwise it runs until the surrounding task is cancelled (the CLI
    wires SIGINT/SIGTERM to the stop event).
    """

    async def _main() -> ServeReport:
        stop = asyncio.Event()
        await server.start()
        if duration_s is not None:
            asyncio.get_running_loop().call_later(duration_s, stop.set)
        try:
            await stop.wait()
        finally:
            await server.stop()
        return server.report()

    return asyncio.run(_main())
