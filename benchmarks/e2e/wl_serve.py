"""The live serving workload: ``serve_live``.

A real ``GatewayServer`` with a ``ModelExecutor`` (factorized ResNet-18,
``no_grad`` forwards on one inference thread) listens on localhost and is
driven **closed loop** by ``LoadClient.run_closed`` with two keep-alive
connections from this same process: each caller waits for its reply before
it sends again, so a slower server simply receives less load and nothing is
shed — any failure is a bug.  One operation is one request, client write to
last byte.

Every fourth request streams three partial frames.  The two clients'
requests ride in batches of two and a batch runs as many steps as its longest
member, so a unary request that shares a batch with a streaming one waits for
all three steps: request latency has a ~10 ms and a ~25 ms mode, about half of
all requests in each, and a median over all of them falls into the gap between
the modes (it read 15-25 ms run to run).  The workload therefore reports unary
and streaming requests separately: ``step_ms_p50`` / ``step_ms_p90`` are over
the unary three quarters (two thirds of them in the fast mode, so the median
sits inside it and the p90 inside the slow one), streaming requests have
``gateway.stream_latency_ms_p50`` and ``first_frame_ms_p50``, and
``latency_ms_p95`` is over all requests.
"""

from __future__ import annotations

import asyncio
import itertools
import time

import numpy as np
from repro.gateway import GatewayServer, LoadClient, ModelExecutor, TraceRequest
from repro.gateway import http as gateway_http
from repro.serve import (
    ArrivalSpec,
    BatchPolicy,
    ServeConfig,
    ServeSimulator,
    default_registry,
    generate_arrivals,
    measure_latency_profile,
)

import benchspec
from e2e_common import (
    OpLog,
    digest_arrays,
    forward_self_ms,
    median_ms,
    ms,
    quantile,
    scaled,
    sum_check,
    wrap_modules,
)

CLIENTS = 2  # = nproc: connections of the single load-generating process
PAYLOAD_POOL = 4096  # payload seeds drawn from --seed; request i sends pool[i % 4096]
STREAM_EVERY = 4
STREAM_STEPS = 3
NUM_CLASSES = 4  # ModelRegistry.materialize's default head
PROFILE_BATCHES = (1, 2, 8)
SLO_S = 2.0
SIM_ARRIVALS = 50_000
HEALTHZ_REPEATS = 200


class ServeLive:
    name = "serve_live"

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.warmup_ops = scaled(benchspec.OPS[self.name]["warmup"], scale)
        self.loop = None

    # -- inputs ---------------------------------------------------------------

    def _requests(self, n: int) -> list[TraceRequest]:
        """The next ``n`` requests: payload seeds come from ``--seed``, ids
        continue where the last window stopped (ids are unique per server)."""
        first = self.next_rid
        self.next_rid += n
        return [
            TraceRequest(
                rid=rid,
                at_s=0.0,  # closed loop: offsets are ignored
                payload=int(self.payloads[rid % PAYLOAD_POOL]),
                steps=STREAM_STEPS if rid % STREAM_EVERY == STREAM_EVERY - 1 else 1,
            )
            for rid in range(first, first + n)
        ]

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.payloads = rng.integers(0, 2**31 - 1, size=PAYLOAD_POOL)
        self.inputs_digest = digest_arrays(self.payloads)
        self.next_rid = 0
        self.batch_steps = itertools.count()  # op id of the traced executor steps

        t0 = time.perf_counter()
        self.served = default_registry().materialize("resnet18", "factorized", width=0.25)
        t1 = time.perf_counter()
        self.profile = measure_latency_profile(
            self.served.model, self.served.input_spec, batch_sizes=PROFILE_BATCHES
        )
        t2 = time.perf_counter()
        self.materialize_s, self.profile_measure_s = t1 - t0, t2 - t1

        self.executor = ModelExecutor(self.served, self.profile)
        config = ServeConfig(slo_s=SLO_S, policy=BatchPolicy(8, 0.002), replicas=1)
        self.server = GatewayServer(self.executor, config)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self.server.start())
        self.client = LoadClient("127.0.0.1", self.server.port)
        warm = self.run_ops(self.warmup_ops)
        self.warm_op_s = warm.wall_s / warm.attempted

    def teardown(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self.server.stop())
            self.loop.close()
            self.loop = None

    # -- the timed window -----------------------------------------------------

    def _traced_run_step(self, tracer):
        """Span around each executor step; the inference thread's module
        spans adopt it as their parent."""
        inner = self.executor.run_step
        batch_step = self.batch_steps

        async def run_step(requests, payloads, step):
            with tracer.span("serve.run_step", op=next(batch_step)) as open_span:
                tracer.adopt = open_span
                try:
                    return await inner(requests, payloads, step)
                finally:
                    tracer.adopt = None

        return run_step

    def run_ops(self, n: int, tracer=None) -> OpLog:
        requests = self._requests(n)
        undo = []
        if tracer is not None:
            self.executor.run_step = self._traced_run_step(tracer)
            undo = [wrap_modules(self.served.model, tracer),
                    lambda: delattr(self.executor, "run_step")]
        t0 = time.perf_counter()
        try:
            records = self.loop.run_until_complete(
                self.client.run_closed(requests, workers=CLIENTS)
            )
        finally:
            for u in undo:
                u()
        wall = time.perf_counter() - t0

        by_rid = {r.rid: r for r in requests}
        ok, errors = [], []
        for rec in records:
            steps = by_rid[rec.rid].steps
            partial_frames = steps if steps > 1 else 0  # unary replies carry none
            if not rec.ok:
                errors.append(f"request {rec.rid}: {rec.error or rec.status or rec.http_status}")
            elif len(rec.chunk_times) != partial_frames:
                errors.append(f"request {rec.rid}: {len(rec.chunk_times)} partial frames, "
                              f"expected {partial_frames}")
            elif rec.chunk_times and rec.chunk_times[-1] > rec.final_s:
                errors.append(f"request {rec.rid}: terminal frame before a partial frame")
            else:
                ok.append(rec)
        if tracer is not None:
            # The client stamps offsets from its own start, taken a few tens
            # of microseconds after t0 on the same monotonic clock.
            for rec in ok:
                tracer.add("gateway.request", t0 + rec.sent_s, t0 + rec.final_s, op=rec.rid)
        return OpLog(
            op_s=[r.latency_s for r in ok],
            wall_s=wall,
            samples=len(ok),
            attempted=n,
            failed=n - len(ok),
            extra={"records": records, "ok": ok, "requests": by_rid, "errors": errors[:5]},
        )

    def end_to_end(self, log: OpLog) -> dict[str, float]:
        ok = log.extra["ok"]
        unary = [r.latency_s for r in ok if not r.chunk_times]
        return {
            "samples_per_s": log.samples / log.wall_s,
            "step_ms_p50": ms(quantile(unary, 0.50)),
            "step_ms_p90": ms(quantile(unary, 0.90)),
            "latency_ms_p95": ms(quantile(log.op_s, 0.95)),
            "first_frame_ms_p50": median_ms(
                [r.chunk_times[0] - r.sent_s for r in ok if r.chunk_times]
            ),
        }

    # -- correctness ----------------------------------------------------------

    def check(self, log: OpLog) -> list[str]:
        problems = list(log.extra["errors"])
        rids = set(log.extra["requests"])
        report = self.server.report()
        served = [o for o in report.outcomes if o.rid in rids]
        n_completed = sum(1 for o in served if o.status == "completed")
        if n_completed != len(log.extra["ok"]) or len(served) != log.attempted:
            problems.append(
                f"client completed {len(log.extra['ok'])} of {log.attempted}; "
                f"server reports {n_completed} completed of {len(served)}"
            )
        for rec in log.extra["ok"]:
            cls = (rec.result or {}).get("class")
            if not isinstance(cls, int) or not 0 <= cls < NUM_CLASSES:
                problems.append(f"request {rec.rid}: class id {cls!r} out of range")
                break
        return problems

    # -- per-layer metrics (traced run) ---------------------------------------

    async def _healthz_ms_p50(self) -> float:
        """GET /healthz over one keep-alive connection: HTTP parse, render
        and event loop only — no admission, batching or forward."""
        reader, writer = await asyncio.open_connection("127.0.0.1", self.server.port)
        request = gateway_http.render_request("GET", "/healthz", host="127.0.0.1")
        times = []
        try:
            for _ in range(scaled(HEALTHZ_REPEATS, self.scale)):
                t0 = time.perf_counter()
                writer.write(request)
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                length = next(
                    int(line.split(b":")[1])
                    for line in head.split(b"\r\n")
                    if line.lower().startswith(b"content-length")
                )
                await reader.readexactly(length)
                times.append(time.perf_counter() - t0)
        finally:
            writer.close()
            await writer.wait_closed()
        return median_ms(times)

    def _sim_events_per_s(self) -> float:
        rate = 0.5 * self.profile.capacity_rps()
        duration = scaled(SIM_ARRIVALS, self.scale) / rate
        arrivals = generate_arrivals(
            ArrivalSpec(rate_rps=rate, duration_s=duration, seed=self.seed)
        )
        sim = ServeSimulator(self.profile, self.server.config)
        t0 = time.perf_counter()
        sim.run(arrivals)
        return len(arrivals) / (time.perf_counter() - t0)

    def layer_metrics(self, tracer, untraced: OpLog, traced: OpLog) -> tuple[dict, list[str]]:
        rids = set(traced.extra["requests"])
        report = self.server.report()
        outcomes = [o for o in report.outcomes if o.rid in rids]
        done = [o for o in outcomes if o.status == "completed"]
        batch_of = {b.index: b for b in report.batches}
        batches = {o.batch: batch_of[o.batch] for o in done}
        n_forwards = tracer.count("nn.forward")
        forward = ms(tracer.total("nn.forward")) / n_forwards
        profile_ms = [ms(self.profile.latency(b)) for b in PROFILE_BATCHES]
        metrics = {
            "nn.forward_ms": forward,
            "nn.forward_share": tracer.total("nn.forward") / traced.wall_s,
            "serve.materialize_s": self.materialize_s,
            "serve.profile_measure_s": self.profile_measure_s,
            "serve.profile_ms_b1": profile_ms[0],
            "serve.profile_ms_b2": profile_ms[1],
            "serve.profile_ms_b8": profile_ms[2],
            "serve.queue_wait_ms_p50": median_ms(
                [batch_of[o.batch].dispatch_s - o.arrival_s for o in done]
            ),
            "serve.mean_batch_size": float(np.mean([b.size for b in batches.values()])),
            "serve.n_batches": float(len(batches)),
            "serve.shed_share": 1.0 - len(done) / len(outcomes),
            "serve.sim_events_per_s": self._sim_events_per_s(),
            "gateway.service_ms_p50": median_ms([b.service_s for b in batches.values()]),
            "gateway.overhead_ms_p50": median_ms(
                [r.latency_s - batch_of[r.batch].service_s for r in traced.extra["ok"]]
            ),
            "gateway.http_roundtrip_ms_p50": self.loop.run_until_complete(self._healthz_ms_p50()),
            "gateway.latency_ms_p95": ms(quantile(traced.op_s, 0.95)),
            "gateway.latency_ms_p99": ms(quantile(traced.op_s, 0.99)),
            "gateway.first_frame_ms_p50": self.end_to_end(traced)["first_frame_ms_p50"],
            "gateway.stream_latency_ms_p50": median_ms(
                [r.latency_s for r in traced.extra["ok"] if r.chunk_times]
            ),
            "gateway.error_share": sum(1 for r in traced.extra["records"] if r.error)
            / traced.attempted,
            "core.param_ratio": self.served.factorization["params_after"]
            / self.served.factorization["params_before"],
        }
        by_class = forward_self_ms(tracer, n_forwards)
        metrics.update(by_class)
        return metrics, sum_check("nn.fwd_self_ms.*", sum(by_class.values()), forward)
