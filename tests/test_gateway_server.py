"""The live gateway: HTTP wire format, streaming, shutdown, determinism.

No pytest-asyncio in the toolchain, so every async scenario runs inside
``asyncio.run`` from a synchronous test — which also mirrors how the CLI
drives the server.
"""

import asyncio
import json

import pytest

from repro import observability as obs
from repro.gateway import (
    GatewayServer,
    LoadClient,
    ProfileExecutor,
    TraceRequest,
    build_trace,
    summarize_records,
    trace_digest,
)
from repro.gateway import http as ghttp
from repro.serve import ArrivalSpec, BatchPolicy, LatencyProfile, ServeConfig


@pytest.fixture(autouse=True)
def _registry_clean():
    obs.get_registry().reset()
    yield
    obs.get_registry().reset()


def profile(ms=10.0):
    return LatencyProfile((1, 8), (ms / 1e3, ms / 1e3))


def config(slo_ms=500.0, max_batch=4, max_wait_ms=10.0, replicas=1):
    return ServeConfig(
        slo_s=slo_ms / 1e3,
        policy=BatchPolicy(max_batch, max_wait_ms / 1e3),
        replicas=replicas,
    )


async def _with_server(cfg, prof, fn):
    server = GatewayServer(ProfileExecutor(prof), cfg, port=0)
    await server.start()
    try:
        return await fn(server)
    finally:
        await server.stop()


async def _raw_request(server, method, path, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    writer.write(ghttp.render_request(method, path, body, keep_alive=False))
    await writer.drain()
    response = await ghttp.read_response(reader)
    writer.close()
    return response


class TestHttpWireFormat:
    def test_request_roundtrip(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(
                ghttp.render_request("POST", "/v1/infer", {"id": 3, "payload": 9})
            )
            reader.feed_eof()
            req = await ghttp.read_request(reader)
            assert req.method == "POST" and req.path == "/v1/infer"
            assert req.json() == {"id": 3, "payload": 9}
            assert req.keep_alive
            assert await ghttp.read_request(reader) is None  # clean EOF

        asyncio.run(scenario())

    def test_malformed_request_line(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(b"NONSENSE\r\n\r\n")
            reader.feed_eof()
            with pytest.raises(ghttp.HttpError) as e:
                await ghttp.read_request(reader)
            assert e.value.status == 400

        asyncio.run(scenario())

    def test_chunked_response_roundtrip(self):
        async def scenario():
            reader = asyncio.StreamReader()
            head = ghttp.render_response(200, chunked=True)
            frames = ghttp.encode_chunk({"a": 1}) + ghttp.encode_chunk({"b": 2})
            reader.feed_data(head + frames + ghttp.LAST_CHUNK)
            reader.feed_eof()
            resp = await ghttp.read_response(reader)
            assert resp.status == 200 and resp.chunked
            lines = [json.loads(x) for x in resp.body.splitlines()]
            assert lines == [{"a": 1}, {"b": 2}]

        asyncio.run(scenario())


class TestGatewayEndpoints:
    def test_healthz_model_metrics_report(self):
        async def scenario(server):
            health = await _raw_request(server, "GET", "/healthz")
            assert health.status == 200 and health.json()["ok"] is True
            model = await _raw_request(server, "GET", "/v1/model")
            assert model.json()["executor"] == "profile"
            assert model.json()["max_batch_size"] == 4
            metrics = await _raw_request(server, "GET", "/metrics")
            assert set(metrics.json()) == {"counters", "gauges", "histograms"}
            report = await _raw_request(server, "GET", "/v1/report")
            assert report.json()["summary"]["n_requests"] == 0
            missing = await _raw_request(server, "GET", "/nope")
            assert missing.status == 404

        asyncio.run(_with_server(config(), profile(), scenario))

    def test_unary_infer_completes_and_echoes(self):
        async def scenario(server):
            resp = await _raw_request(
                server, "POST", "/v1/infer", {"id": 0, "payload": 42}
            )
            assert resp.status == 200
            body = resp.json()
            assert body["status"] == "completed"
            assert body["result"] == {"echo": 42, "step": 0}
            assert body["slo_ok"] is True and body["batch"] == 0
            return server.report()

        report = asyncio.run(_with_server(config(), profile(), scenario))
        assert report.n_completed == 1 and report.n_shed == 0

    def test_duplicate_rid_rejected(self):
        async def scenario(server):
            first = await _raw_request(server, "POST", "/v1/infer", {"id": 7})
            assert first.status == 200
            second = await _raw_request(server, "POST", "/v1/infer", {"id": 7})
            assert second.status == 400

        asyncio.run(_with_server(config(), profile(), scenario))

    def test_batching_rides_one_forward(self):
        """Concurrent requests inside one max_wait window share a batch."""

        async def scenario(server):
            client = LoadClient("127.0.0.1", server.port, timeout_s=10.0)
            trace = [TraceRequest(rid=i, at_s=0.0, payload=i) for i in range(4)]
            records = await client.run_open(trace)
            assert all(r.ok for r in records)
            return server.report()

        report = asyncio.run(_with_server(config(max_wait_ms=30.0), profile(), scenario))
        assert len(report.batches) < report.n_completed  # at least one shared batch


class TestStreaming:
    def test_partial_results_before_final(self):
        """Acceptance: a streaming client observes partial results strictly
        before the final frame of its own response."""

        async def scenario(server):
            client = LoadClient("127.0.0.1", server.port, timeout_s=10.0)
            trace = [
                TraceRequest(rid=0, at_s=0.0, payload=17, steps=4),
                TraceRequest(rid=1, at_s=0.0, payload=18, steps=4),
            ]
            records = await client.run_open(trace)
            assert len(records) == 2 and all(r.ok for r in records)
            for r in records:
                assert len(r.chunk_times) == 4
                assert r.chunk_times[0] < r.final_s  # partials led the final
                assert r.chunk_times == sorted(r.chunk_times)
            summary = summarize_records(records, duration_s=0.5)
            assert summary["streamed"] == len(records)
            assert summary["stream_lead_ms_max"] > 0.0

        asyncio.run(_with_server(config(slo_ms=2000.0), profile(5.0), scenario))

    def test_partials_arrive_before_batch_completes(self):
        """The first chunk lands while later steps are still computing: its
        receive time is well under the full batch service time."""

        async def scenario(server):
            client = LoadClient("127.0.0.1", server.port, timeout_s=10.0)
            trace = [TraceRequest(rid=0, at_s=0.0, payload=5, steps=5)]
            records = await client.run_open(trace)
            (r,) = records
            assert r.ok and len(r.chunk_times) == 5
            # 5 steps x 20ms each: the first partial must beat the final by
            # at least a couple of step times.
            assert r.final_s - r.chunk_times[0] > 0.04

        asyncio.run(_with_server(config(slo_ms=2000.0), profile(20.0), scenario))


class _CountsMembers(ProfileExecutor):
    """Records how many members each ``run_step`` computed for."""

    def __init__(self, prof):
        super().__init__(prof)
        self.sizes = []

    async def run_step(self, requests, payloads, step):
        assert len(requests) == len(payloads)
        self.sizes.append(len(requests))
        return await super().run_step(requests, payloads, step)


class TestStepLevelMembership:
    """A member is aboard for its own steps only: the unary half of a
    mixed pair is answered after step 0 and steps 1, 2 run for the stream
    alone."""

    @staticmethod
    async def _mixed_pair():
        executor = _CountsMembers(profile(20.0))
        server = GatewayServer(executor, config(max_batch=2, max_wait_ms=200.0), port=0)
        await server.start()
        try:
            client = LoadClient("127.0.0.1", server.port, timeout_s=5.0)
            unary, stream = await client.run_open(
                [
                    TraceRequest(rid=0, at_s=0.0, payload=1),
                    TraceRequest(rid=1, at_s=0.0, payload=2, steps=3),
                ]
            )
            metrics = await _raw_request(server, "GET", "/metrics")
        finally:
            await server.stop()
        return executor, server.report(), unary, stream, metrics.json()

    def test_unary_member_leaves_after_its_own_step(self):
        executor, report, unary, stream, metrics = asyncio.run(self._mixed_pair())
        assert unary.ok and stream.ok and len(stream.chunk_times) == 3
        assert executor.sizes == [2, 1, 1]
        assert unary.final_s < stream.chunk_times[1]  # answered before step 1 ended
        # One batch at its dispatch size; the leaver's completion is its own.
        (batch,) = report.batches
        assert (batch.index, batch.size) == (0, 2)
        early, late = report.outcomes
        assert early.batch == late.batch == 0
        assert early.completion_s < late.completion_s == batch.completion_s
        # Observability is off: the step counters add nothing to the registry.
        assert metrics["counters"] == {} and obs.get_registry().counters() == {}

    def test_metrics_show_steps_run_and_member_steps_served(self):
        with obs.observe() as (tracer, registry):
            tracer.clear()
            _, _, unary, stream, metrics = asyncio.run(self._mixed_pair())
        assert unary.ok and stream.ok
        assert metrics["counters"]["serve.gateway.steps"] == 3
        assert metrics["counters"]["serve.gateway.member_steps"] == 4  # was 6
        (span,) = tracer.spans("serve.gateway.batch")
        assert span.attrs == {"replica": 0, "size": 2, "steps": 3, "member_steps": 4}


class TestGracefulShutdown:
    def test_queued_requests_shed_with_shutdown_reason(self):
        """stop() during a deep queue: in-flight work completes, queued
        requests come back 503 shed_shutdown, and the report accounts every
        request by reason."""

        async def scenario():
            prof = profile(80.0)  # slow service so the queue stays deep
            server = GatewayServer(
                ProfileExecutor(prof), config(slo_ms=5000.0, max_batch=2), port=0
            )
            await server.start()
            client = LoadClient("127.0.0.1", server.port, timeout_s=10.0)
            trace = [TraceRequest(rid=i, at_s=0.0, payload=i) for i in range(6)]
            send = asyncio.ensure_future(client.run_open(trace))
            await asyncio.sleep(0.1)  # first batch in flight, rest queued
            await server.stop()
            records = await send
            report = server.report()
            return records, report

        records, report = asyncio.run(scenario())
        statuses = {r.rid: r.status for r in records}
        assert report.n_requests == len(records) == 6
        shed = report.shed_by_reason()
        assert shed["shutdown"] >= 1
        assert shed["shutdown"] + report.n_completed == 6
        # Clients observed exactly what the report accounted.
        for outcome in report.outcomes:
            assert statuses[outcome.rid] == outcome.status
        assert report.summary()["n_shed_shutdown"] == shed["shutdown"]

    def test_arrival_during_drain_is_accounted(self):
        async def scenario():
            server = GatewayServer(ProfileExecutor(profile()), config(), port=0)
            await server.start()
            await server.stop()
            # The listener is closed after stop(); an in-flight connection
            # opened before close would get 503 shed_shutdown.  Simulate the
            # late-arrival path directly.
            assert server._stopping
            return server.report()

        report = asyncio.run(scenario())
        assert report.n_requests == 0


class _FailsFirstBatch(ProfileExecutor):
    """Raises on its first ``run_step``, serves every later one."""

    def __init__(self, prof):
        super().__init__(prof)
        self.calls = 0

    async def run_step(self, requests, payloads, step):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("injected executor failure")
        return await super().run_step(requests, payloads, step)


class _FailsAtStepOne(ProfileExecutor):
    """Serves step 0, raises the first time it is asked for a step 1."""

    failed = False

    async def run_step(self, requests, payloads, step):
        if step == 1 and not self.failed:
            self.failed = True
            raise RuntimeError("injected executor failure at step 1")
        return await super().run_step(requests, payloads, step)


class TestExecutorFailure:
    def test_failed_batch_is_shed_and_the_replica_keeps_serving(self):
        """An executor exception costs exactly its batch: 500 / terminal
        ``shed_error`` frame for those clients, an accounted outcome each,
        and the same replica serves the next batch."""

        async def scenario():
            server = GatewayServer(
                _FailsFirstBatch(profile()),
                config(max_batch=2, max_wait_ms=200.0),
                port=0,
            )
            await server.start()
            client = LoadClient("127.0.0.1", server.port, timeout_s=5.0)
            doomed = await client.run_open(
                [
                    TraceRequest(rid=0, at_s=0.0, payload=1),
                    TraceRequest(rid=1, at_s=0.0, payload=2, steps=2),
                ]
            )
            (served,) = await client.run_open([TraceRequest(rid=2, at_s=0.0, payload=3)])
            await asyncio.wait_for(server.stop(), timeout=5.0)
            return server, doomed, served

        server, doomed, served = asyncio.run(scenario())
        unary, stream = doomed
        assert unary.error is None and unary.http_status == 500
        assert unary.status == "shed_error"
        # The stream's 200 head was already on the wire; its terminal
        # frame carries the failure and no partial preceded it.
        assert stream.error is None and stream.status == "shed_error"
        assert stream.chunk_times == [] and stream.final_s is not None
        assert served.ok and served.http_status == 200

        report = server.report()
        assert {o.rid: o.status for o in report.outcomes} == {
            0: "shed_error",
            1: "shed_error",
            2: "completed",
        }
        assert [(b.replica, b.size) for b in report.batches] == [(0, 1)]
        assert report.summary()["n_shed_error"] == 2
        assert server._pending == {}  # nothing left unaccounted

    def test_failure_after_an_early_leave_sheds_only_who_is_still_aboard(self):
        """The executor raises at step 1, after the unary member of the
        batch was answered: its 200 and ``completed`` outcome stand, the
        stream gets its one partial and a terminal ``shed_error`` frame,
        and the same replica serves the next batch."""

        async def scenario():
            server = GatewayServer(
                _FailsAtStepOne(profile()),
                config(max_batch=2, max_wait_ms=200.0),
                port=0,
            )
            await server.start()
            client = LoadClient("127.0.0.1", server.port, timeout_s=5.0)
            first = await client.run_open(
                [
                    TraceRequest(rid=0, at_s=0.0, payload=1),
                    TraceRequest(rid=1, at_s=0.0, payload=2, steps=3),
                ]
            )
            (served,) = await client.run_open([TraceRequest(rid=2, at_s=0.0, payload=3)])
            await asyncio.wait_for(server.stop(), timeout=5.0)
            return server, first, served

        server, (unary, stream), served = asyncio.run(scenario())
        assert unary.ok and unary.http_status == 200
        assert unary.result == {"echo": 1, "step": 0}
        assert stream.error is None and stream.status == "shed_error"
        assert len(stream.chunk_times) == 1 and stream.chunk_times[0] < stream.final_s
        assert served.ok and served.http_status == 200

        report = server.report()
        assert {o.rid: o.status for o in report.outcomes} == {
            0: "completed",
            1: "shed_error",
            2: "completed",
        }
        # The failed batch keeps the record its leaver names, counting only
        # the member it served; completed requests and batch sizes agree.
        assert [(b.index, b.replica, b.size) for b in report.batches] == [(0, 0, 1), (1, 0, 1)]
        assert unary.batch == 0 and served.batch == 1
        assert report.n_completed == sum(b.size for b in report.batches) == 2
        assert report.summary()["n_shed_error"] == 1
        assert server._pending == {}


class TestTraceDeterminism:
    def test_trace_pure_function_of_seed(self):
        spec = ArrivalSpec(rate_rps=150, duration_s=2.0, process="bursty", seed=13)
        a = build_trace(spec, steps=3)
        b = build_trace(spec, steps=3)
        assert a == b
        assert trace_digest(a) == trace_digest(b)
        assert a != build_trace(ArrivalSpec(rate_rps=150, duration_s=2.0, seed=14))

    def test_payload_keyed_on_rid_not_consumption(self):
        """Payload draws are counter-keyed on rid: a longer trace's common
        prefix carries identical ids, offsets and payloads."""
        short = build_trace(ArrivalSpec(rate_rps=100, duration_s=1.0, seed=4))
        long = build_trace(ArrivalSpec(rate_rps=100, duration_s=2.0, seed=4))
        assert long[: len(short)] == short

    def test_rid_offset_shifts_ids_deterministically(self):
        """rid_offset gives a second trace a disjoint id range (server
        request ids are unique per lifetime) without touching arrivals."""
        spec = ArrivalSpec(rate_rps=100, duration_s=1.0, seed=4)
        base = build_trace(spec)
        shifted = build_trace(spec, rid_offset=1000)
        assert [t.rid for t in shifted] == [t.rid + 1000 for t in base]
        assert [t.at_s for t in shifted] == [t.at_s for t in base]
        assert shifted == build_trace(spec, rid_offset=1000)  # still pure

    def test_trace_independent_of_server_scheduling(self):
        """Replaying the same trace against two differently-scheduled
        servers offers byte-identical load (ids, payloads, steps)."""

        async def offered(ms):
            async def scenario(server):
                client = LoadClient("127.0.0.1", server.port, timeout_s=10.0)
                trace = build_trace(ArrivalSpec(rate_rps=120, duration_s=0.2, seed=9))
                await client.run_open(trace)
                return trace

            return await _with_server(config(), profile(ms), scenario)

        t_fast = asyncio.run(offered(1.0))
        t_slow = asyncio.run(offered(30.0))
        assert t_fast == t_slow
        assert trace_digest(t_fast) == trace_digest(t_slow)

    def test_closed_loop_covers_trace(self):
        async def scenario(server):
            client = LoadClient("127.0.0.1", server.port, timeout_s=10.0)
            trace = build_trace(ArrivalSpec(rate_rps=120, duration_s=0.1, seed=6))
            records = await client.run_closed(trace, workers=2)
            assert sorted(r.rid for r in records) == [t.rid for t in trace]
            assert all(r.ok for r in records)

        asyncio.run(_with_server(config(slo_ms=2000.0), profile(2.0), scenario))
