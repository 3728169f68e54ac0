"""The gateway's read path fails closed: hostile bytes and stalled peers.

Two halves.  A Hypothesis byte-fuzzer drives ``read_request`` and
``iter_chunks`` with arbitrary and almost-valid input: the only things that
may come out are a parsed value, a clean EOF or an :class:`HttpError`, and
no single read asks for more than ``MAX_LINE`` / ``MAX_BODY``.  The pinned
heads go through ``read_response`` too: one head parser serves both
directions.  Raw-socket scenarios then check the timing contract against a
live server: a peer that *started* a request and stalled gets ``408`` and a
closed connection after ``READ_TIMEOUT_S``; a keep-alive connection idling
*between* requests is left alone.  The client side has the mirror-image
deadline: a gateway that never answers costs a request ``timeout_s``, an
``error == "timeout"`` and its connection, and leaves no task behind; a
gateway that answers with a body or a chunked stream the client cannot read
costs a request a typed ``error`` and its connection, not the replay.
"""

import asyncio
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import GatewayServer, LoadClient, ProfileExecutor, TraceRequest
from repro.gateway import http as ghttp
from repro.serve import BatchPolicy, LatencyProfile, ServeConfig

SMALL_LINE, SMALL_BODY = 64, 256
# A stream buffer the whole head fits in, so that each line meets MAX_LINE
# and the header count its own bound (a head that overruns the buffer is a
# 413 before any line is looked at).
ROOMY = 16 * SMALL_BODY


@pytest.fixture(scope="class")
def small_limits():
    """Limits a few-hundred-byte input can actually reach."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ghttp, "MAX_LINE", SMALL_LINE)
        patch.setattr(ghttp, "MAX_BODY", SMALL_BODY)
        yield


class _RecordingReader(asyncio.StreamReader):
    """Remembers the largest ``readexactly`` the parser asked for."""

    largest = 0

    async def readexactly(self, n):
        self.largest = max(self.largest, n)
        return await super().readexactly(n)


def _reader(data: bytes, limit: int = SMALL_LINE) -> _RecordingReader:
    reader = _RecordingReader(limit=limit)
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def _read_one_request(data: bytes, limit: int = SMALL_LINE):
    async def read():
        return await ghttp.read_request(_reader(data, limit))

    return asyncio.run(read())


def _read_one_response(data: bytes, limit: int = SMALL_LINE):
    async def read():
        return await ghttp.read_response(_reader(data, limit))

    return asyncio.run(read())


def _as_response(wire: bytes) -> bytes:
    """``wire`` with a status line in place of its request line (cut as
    short as the request line was, when that was cut)."""
    line, sep, rest = wire.partition(ghttp.CRLF)
    status_line = b"HTTP/1.1 200 OK"
    return status_line + sep + rest if sep else status_line[: len(line)]


def _drain_requests(data: bytes, limit: int):
    async def drain():
        reader = _reader(data, limit)
        requests = []
        try:
            while (request := await ghttp.read_request(reader)) is not None:
                requests.append(request)
        except ghttp.HttpError as e:
            assert e.status in (400, 413)
        return reader, requests

    reader, requests = asyncio.run(drain())
    assert reader.largest <= SMALL_BODY
    for request in requests:
        assert len(request.body) <= SMALL_BODY
        assert len(request.method) + len(request.path) < SMALL_LINE
        assert all(len(k) + len(v) < SMALL_LINE for k, v in request.headers.items())
        assert len(request.headers) <= 101


def _cut(wire: bytes, at: int | None) -> bytes:
    return wire if at is None else wire[:at]


PINNED_HEADS = [
    (b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
    (b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 413),
    (b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort", 400),  # truncated body
    (b"GET / HT", 400),  # truncated line
    (b"GET / HTTP/1.1\r\n" + b"x" * 70 + b": 1\r\n\r\n", 413),
]
# Heads past the small buffer: with ROOMY they meet the per-line bound and
# the header count instead of the buffer limit, with the same status.
ROOMY_HEADS = [
    (b"GET / HTTP/1.1\r\nHost: x\r\n" + b"x" * 62 + b": 1\r\n\r\n", 413),
    (b"GET / HTTP/1.1\r\n" + b"".join(b"h%d: 1\r\n" % i for i in range(102)) + b"\r\n", 413),
    (b"GET / HTTP/1.1\r\nHost: x\r\nContent-Length: 300\r\nConnection: close\r\n\r\n", 413),
    (b"GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\nno colon\r\n\r\n", 400),
]
HEAD_IDS = [
    "bad-length", "negative-length", "truncated-body", "truncated-line", "long-line",
    "long-line-in-buffer", "too-many-headers", "body-too-large", "no-colon",
]  # fmt: skip
cuts = st.none() | st.integers(min_value=0, max_value=200)
noise = st.binary(max_size=16)
valid_request_lines = st.sampled_from([b"GET / HTTP/1.1", b"POST /v1/infer HTTP/1.1"])
request_lines = st.one_of(
    valid_request_lines,  # listed twice: most messages get as far as their headers
    valid_request_lines,
    noise,
    st.sampled_from([b"GET /", b"GET / FTP/1.1", b"", b"GET /" + b"x" * 70 + b" HTTP/1.1"]),
)
header_lines = noise | st.sampled_from(
    [b"Host: x", b"Connection: close", b"no colon", b": no name", b"x" * 70 + b": 1",
     b"Content-Length: 5", b"content-length:5", b"Content-Length: nope",
     b"Content-Length: -1", b"Content-Length: 300", b"Content-Length: 1_0",
     b"Content-Length: \xb2", b"Content-Length: +5", b"Content-Length:"]
)  # fmt: skip
requests_on_the_wire = st.lists(
    st.builds(
        lambda line, headers, body, at: _cut(
            ghttp.CRLF.join([line, *headers, b"", b""]) + body, at
        ),
        request_lines,
        st.lists(header_lines, max_size=4) | st.lists(header_lines, min_size=102, max_size=104),
        st.binary(max_size=8),
        cuts,
    ),
    min_size=1,
    max_size=3,
).map(b"".join)
chunk_sizes = noise | st.sampled_from(
    [b"0", b"3", b"5", b"-5", b"ff", b"fff", b"zz", b"", b"3;ext=1", b"0x3", b"x" * 70]
)
chunks_on_the_wire = st.builds(
    lambda frames, at: _cut(b"".join(frames), at),
    st.lists(
        st.builds(
            lambda size, data, end: size + ghttp.CRLF + data + end,
            chunk_sizes,
            st.binary(max_size=8),
            st.sampled_from([ghttp.CRLF, b"", b"xx"]),
        ),
        max_size=5,
    ),
    cuts,
)


class TestByteFuzzer:
    @given(data=requests_on_the_wire)
    @settings(max_examples=300, deadline=None)
    def test_read_request_yields_requests_eof_or_http_error(self, small_limits, data):
        _drain_requests(data, SMALL_LINE)

    @given(data=requests_on_the_wire)
    @settings(max_examples=300, deadline=None)
    def test_heads_inside_the_buffer_meet_the_line_and_header_bounds(
        self, small_limits, data
    ):
        _drain_requests(data, ROOMY)

    @given(data=chunks_on_the_wire)
    @settings(max_examples=300, deadline=None)
    def test_iter_chunks_yields_chunks_or_http_error(self, small_limits, data):
        async def drain():
            reader = _reader(data)
            chunks = []
            try:
                async for chunk in ghttp.iter_chunks(reader):
                    chunks.append(chunk)
            except ghttp.HttpError as e:
                assert e.status in (400, 413)
            return reader, chunks

        reader, chunks = asyncio.run(drain())
        assert reader.largest <= SMALL_BODY
        assert all(0 < len(chunk) <= SMALL_BODY for chunk in chunks)

    @pytest.mark.parametrize("wire, status", PINNED_HEADS)
    def test_the_escapes_the_fuzzer_found_are_typed_now(self, small_limits, wire, status):
        with pytest.raises(ghttp.HttpError) as e:
            _read_one_request(wire)
        assert e.value.status == status

    @pytest.mark.parametrize("limit", [SMALL_LINE, ROOMY])
    @pytest.mark.parametrize("wire, status", PINNED_HEADS + ROOMY_HEADS, ids=HEAD_IDS)
    def test_a_response_head_gets_the_status_its_request_head_gets(
        self, small_limits, wire, status, limit
    ):
        for read in (_read_one_request, _read_one_response):
            with pytest.raises(ghttp.HttpError) as e:
                read(wire if read is _read_one_request else _as_response(wire), limit)
            assert e.value.status == status

    @pytest.mark.parametrize(
        "wire",
        [
            b"GET / HTTP/1.1\r\nHost: x\r\n",  # EOF where the blank line belongs
            b"GET / HTTP/1.1\r\n",
            b"GET / HTTP/1.1\r\nHost: x\r\n\r",
        ],
        ids=["after-a-header", "after-the-start-line", "half-a-blank-line"],
    )
    def test_a_head_without_its_blank_line_is_truncated(self, small_limits, wire):
        for read in (_read_one_request, _read_one_response):
            with pytest.raises(ghttp.HttpError) as e:
                read(wire if read is _read_one_request else _as_response(wire), ROOMY)
            assert e.value.status == 400

    @pytest.mark.parametrize("line", [b"HTTP/1.1 abc OK", b"HTTP/1.1", b"HTTP/2 200 OK"])
    def test_a_malformed_status_line_is_a_400(self, line):
        with pytest.raises(ghttp.HttpError) as e:
            _read_one_response(line + b"\r\n\r\n")
        assert e.value.status == 400

    @pytest.mark.parametrize("wire", [b"-5\r\n", b"5\r\nab", b"2\r\nab"])
    def test_bad_chunk_framing_is_an_http_error(self, small_limits, wire):
        async def drain():
            return [c async for c in ghttp.iter_chunks(_reader(wire))]

        with pytest.raises(ghttp.HttpError):
            asyncio.run(drain())

    def test_a_blank_line_before_the_request_line_is_skipped(self):
        request = _read_one_request(b"\r\nGET /healthz HTTP/1.1\r\n\r\n")
        assert (request.method, request.path) == ("GET", "/healthz")


# -- stalled peers, against a live server ------------------------------------

TIMEOUT_S = 0.15


async def _serve(fn):
    profile = LatencyProfile((1, 8), (0.005, 0.005))
    config = ServeConfig(slo_s=0.5, policy=BatchPolicy(4, 0.005), replicas=1)
    server = GatewayServer(ProfileExecutor(profile), config, port=0)
    await server.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            return await asyncio.wait_for(fn(reader, writer), timeout=5.0)
        finally:
            writer.close()
    finally:
        await server.stop()


class TestStalledPeer:
    @pytest.fixture(autouse=True)
    def _short_timeout(self, monkeypatch):
        monkeypatch.setattr(ghttp, "READ_TIMEOUT_S", TIMEOUT_S)

    @pytest.mark.parametrize(
        "started",
        [
            b"POST /v1/inf",  # half a request line
            b"POST /v1/infer HTTP/1.1\r\nHost: x\r\nContent-Le",  # mid-header
            b"POST /v1/infer HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"id\": 1,",  # mid-body
        ],
    )
    def test_a_started_request_that_stalls_gets_408_and_a_closed_connection(self, started):
        async def scenario(reader, writer):
            loop = asyncio.get_running_loop()
            writer.write(started)
            await writer.drain()
            t0 = loop.time()
            response = await ghttp.read_response(reader)
            waited = loop.time() - t0
            assert await reader.read() == b""  # the server closed its side
            return response, waited

        response, waited = asyncio.run(_serve(scenario))
        assert response.status == 408
        assert response.headers["connection"] == "close"
        assert "not complete" in response.json()["error"]
        assert waited >= TIMEOUT_S * 0.9

    def test_idle_keep_alive_between_requests_is_left_alone(self):
        async def scenario(reader, writer):
            statuses = []
            for _ in range(2):
                await asyncio.sleep(2 * TIMEOUT_S)  # idle: nothing started
                writer.write(ghttp.render_request("GET", "/healthz"))
                await writer.drain()
                statuses.append((await ghttp.read_response(reader)).status)
            return statuses

        assert asyncio.run(_serve(scenario)) == [200, 200]


# -- the client's deadline, against a peer that never answers -----------------

CLIENT_TIMEOUT_S = 0.2
SLACK_S = 1.0


class _SilentPeer(asyncio.Protocol):
    """Accepts, swallows what arrives (or, paused, reads nothing at all) and
    never answers; keeps its transports and counts the connections lost."""

    def __init__(self, peer: dict, paused: bool):
        self.peer, self.paused = peer, paused

    def connection_made(self, transport):
        self.peer["transports"].append(transport)
        if self.paused:
            transport.pause_reading()

    def connection_lost(self, exc):
        self.peer["lost"] += 1


async def _against_silent_peer(run, paused=False):
    """``run(client)`` against a peer that never answers; returns the
    records, the seconds it took and how many connections the peer saw
    made and lost."""
    loop = asyncio.get_running_loop()
    peer = {"transports": [], "lost": 0}
    sock = socket.create_server(("127.0.0.1", 0))
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # inherited on accept
    server = await loop.create_server(lambda: _SilentPeer(peer, paused), sock=sock)
    try:
        client = LoadClient("127.0.0.1", sock.getsockname()[1], timeout_s=CLIENT_TIMEOUT_S)
        t0 = loop.time()
        records = await run(client)
        took = loop.time() - t0
        assert asyncio.all_tasks() == {asyncio.current_task()}
        made = len(peer["transports"])
        for transport in peer["transports"]:
            transport.resume_reading()  # a paused peer cannot see the drop
        for _ in range(100):  # the peer sees the drop a little later
            if peer["lost"] == made:
                break
            await asyncio.sleep(0.01)
        return records, took, {"made": made, "lost": peer["lost"]}
    finally:
        server.close()
        await server.wait_closed()


def _trace(n):
    return [TraceRequest(rid=i, at_s=0.0, payload=i) for i in range(n)]


class TestClientDeadline:
    @pytest.mark.parametrize("mode", ["closed", "open"])
    def test_a_peer_that_never_answers_costs_timeout_s_and_the_connection(self, mode):
        async def run(client):
            if mode == "closed":
                return await client.run_closed(_trace(2), workers=1)
            return await client.run_open(_trace(2))

        records, took, peer = asyncio.run(_against_silent_peer(run))
        assert [r.error for r in records] == ["timeout", "timeout"]
        assert all(r.http_status == 0 and r.latency_s is None for r in records)
        # Closed loop: one keep-alive connection per request, since a timed
        # out one is dropped; the two requests wait one after the other.
        rounds = 2 if mode == "closed" else 1
        assert CLIENT_TIMEOUT_S * rounds * 0.9 <= took < CLIENT_TIMEOUT_S * rounds + SLACK_S
        assert peer == {"made": 2, "lost": 2}

    def test_a_stalled_drain_ends_as_a_timeout(self, monkeypatch):
        """The peer reads nothing and the request is larger than every
        socket buffer on the way, so ``drain`` is the await that stalls."""
        drains = []
        real_drain = asyncio.StreamWriter.drain

        async def timed_drain(writer):
            t0 = asyncio.get_running_loop().time()
            try:
                await real_drain(writer)
            finally:
                drains.append(asyncio.get_running_loop().time() - t0)

        monkeypatch.setattr(asyncio.StreamWriter, "drain", timed_drain)
        monkeypatch.setattr(ghttp, "render_request", lambda *a, **k: b"x" * (8 << 20))

        async def run(client):
            return await client.run_closed(_trace(1), workers=1)

        (record,), took, peer = asyncio.run(_against_silent_peer(run, paused=True))
        assert record.error == "timeout"
        # The drain waited out most of the deadline (the write before it
        # takes the rest); a drain that does not stall returns at once.
        assert drains and drains[0] >= CLIENT_TIMEOUT_S / 2
        assert CLIENT_TIMEOUT_S * 0.9 <= took < CLIENT_TIMEOUT_S + SLACK_S
        assert peer == {"made": 1, "lost": 1}


class _CannedPeer(asyncio.Protocol):
    """Answers the first bytes of each connection with one fixed response
    and leaves the connection open; counts the connections lost."""

    def __init__(self, peer: dict, response: bytes):
        self.peer, self.response, self.answered = peer, response, False

    def connection_made(self, transport):
        self.transport = transport
        self.peer["made"] += 1

    def data_received(self, data):
        if not self.answered:
            self.answered = True
            self.transport.write(self.response)

    def connection_lost(self, exc):
        self.peer["lost"] += 1


async def _against_canned_peer(response: bytes, mode: str, n: int = 3):
    """Replay ``n`` requests in ``mode`` against a peer that answers every
    one with ``response``; returns the records and the peer's counts."""
    loop = asyncio.get_running_loop()
    peer = {"made": 0, "lost": 0}
    server = await loop.create_server(lambda: _CannedPeer(peer, response), "127.0.0.1", 0)
    try:
        client = LoadClient("127.0.0.1", server.sockets[0].getsockname()[1], timeout_s=5.0)
        if mode == "closed":
            records = await client.run_closed(_trace(n), workers=1)
        else:
            records = await client.run_open(_trace(n))
        for _ in range(100):  # the peer sees the drop a little later
            if peer["lost"] == peer["made"]:
                break
            await asyncio.sleep(0.01)
        return records, peer
    finally:
        server.close()
        await server.wait_closed()


OK_HEAD = b"HTTP/1.1 200 OK\r\n"
CHUNKED = OK_HEAD + b"Transfer-Encoding: chunked\r\n\r\n"


class TestMalformedResponse:
    """A response that is valid HTTP but not the gateway's protocol ends as
    one record with a typed ``error``; the replay goes on and the
    connection is dropped."""

    @pytest.mark.parametrize("mode", ["closed", "open"])
    @pytest.mark.parametrize(
        "response, error",
        [
            (OK_HEAD + b"Content-Length: 3\r\n\r\nabc", "malformed_body"),
            (OK_HEAD + b"Content-Length: 3\r\n\r\n[1]", "malformed_body"),
            (OK_HEAD + b"Content-Length: 2\r\n\r\n\xff\xfe", "malformed_body"),
            (CHUNKED + ghttp.encode_chunk(b"abc") + ghttp.LAST_CHUNK, "malformed_body"),
            (CHUNKED + ghttp.encode_chunk({}) + ghttp.LAST_CHUNK, "no_final_frame"),
            (CHUNKED + ghttp.LAST_CHUNK, "no_final_frame"),
        ],
        ids=["not-json", "not-an-object", "not-utf8", "chunk-not-json", "no-final", "no-frames"],
    )
    def test_ends_as_one_typed_record(self, response, error, mode):
        records, peer = asyncio.run(_against_canned_peer(response, mode))
        assert [r.rid for r in records] == [0, 1, 2]
        assert [r.error for r in records] == [error] * 3
        assert all(r.http_status == 200 and not r.ok and r.latency_s is None for r in records)
        assert peer == {"made": 3, "lost": 3}


async def _closed_loop(policy, n, before=lambda: None, after=lambda: None):
    """``n`` closed-loop requests from two workers against a live gateway
    with ``policy``; ``before`` / ``after`` run around the replay."""
    profile = LatencyProfile((1, 8), (0.001, 0.001))
    config = ServeConfig(slo_s=2.0, policy=policy, replicas=1)
    server = GatewayServer(ProfileExecutor(profile), config, port=0)
    await server.start()
    try:
        before()
        try:
            client = LoadClient("127.0.0.1", server.port, timeout_s=5.0)
            records = await client.run_closed(_trace(n), workers=2)
        finally:
            after()
        assert all(r.ok for r in records)
        return server.report()
    finally:
        await server.stop()


class TestServerDeadlines:
    def test_a_lone_request_dispatches_at_its_flush_deadline(self):
        max_wait = 0.05
        report = asyncio.run(_closed_loop(BatchPolicy(8, max_wait), 1))
        (outcome,), (batch,) = report.outcomes, report.batches
        assert batch.size == 1
        assert max_wait <= batch.dispatch_s - outcome.arrival_s < 2 * max_wait

    def test_a_closed_loop_run_creates_no_task_per_request(self):
        """Tasks created while a closed loop runs — client workers, server
        connection handlers — do not grow with the number of requests."""

        def count_tasks(n):
            created = []

            def factory(loop, coro):
                created.append(coro)
                return asyncio.Task(coro, loop=loop)

            asyncio.run(
                _closed_loop(
                    BatchPolicy(4, 0.002),
                    n,
                    before=lambda: asyncio.get_running_loop().set_task_factory(factory),
                    after=lambda: asyncio.get_running_loop().set_task_factory(None),
                )
            )
            return len(created)

        assert count_tasks(8) == count_tasks(32)
