"""The gateway's read path fails closed: hostile bytes and stalled peers.

Two halves.  A Hypothesis byte-fuzzer drives ``read_request`` and
``iter_chunks`` with arbitrary and almost-valid input: the only things that
may come out are a parsed value, a clean EOF or an :class:`HttpError`, and
no single read asks for more than ``MAX_LINE`` / ``MAX_BODY``.  Raw-socket
scenarios then check the timing contract against a live server: a peer that
*started* a request and stalled gets ``408`` and a closed connection after
``READ_TIMEOUT_S``; a keep-alive connection idling *between* requests is
left alone.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import GatewayServer, ProfileExecutor
from repro.gateway import http as ghttp
from repro.serve import BatchPolicy, LatencyProfile, ServeConfig

SMALL_LINE, SMALL_BODY = 64, 256


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


def _reader(data: bytes) -> _RecordingReader:
    reader = _RecordingReader(limit=SMALL_LINE)
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def _read_one_request(data: bytes):
    async def read():
        return await ghttp.read_request(_reader(data))

    return asyncio.run(read())


def _cut(wire: bytes, at: int | None) -> bytes:
    return wire if at is None else wire[:at]


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
        async def drain():
            reader = _reader(data)
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

    @pytest.mark.parametrize(
        "wire, status",
        [
            (b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 413),
            (b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort", 400),  # truncated body
            (b"GET / HT", 400),  # truncated line
            (b"GET / HTTP/1.1\r\n" + b"x" * 70 + b": 1\r\n\r\n", 413),
        ],
    )
    def test_the_escapes_the_fuzzer_found_are_typed_now(self, small_limits, wire, status):
        with pytest.raises(ghttp.HttpError) as e:
            _read_one_request(wire)
        assert e.value.status == status

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
