"""Minimal HTTP/1.1 on asyncio streams — no dependencies, both sides.

The gateway speaks just enough HTTP for its own clients: request-line +
headers + ``Content-Length`` bodies on the way in, fixed-length or
``Transfer-Encoding: chunked`` responses on the way out.  One head parser
serves both directions: a head is read with one ``readuntil`` and parsed
from bytes.  Chunked
encoding is what makes streaming inference work over plain HTTP — the
server flushes one chunk per completed batch step and the client sees
partial results while later steps are still computing.

Deliberately not here: TLS, compression, pipelining, HTTP/2, multipart.
A reproduction's gateway needs a wire format, not a web framework.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

__all__ = [
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "read_request",
    "read_response",
    "render_response",
    "render_request",
    "encode_chunk",
    "LAST_CHUNK",
    "iter_chunks",
    "MAX_LINE",
    "MAX_BODY",
    "READ_TIMEOUT_S",
]

# Hard limits so a malformed or hostile peer cannot balloon memory...
MAX_LINE = 16 * 1024
MAX_BODY = 8 * 1024 * 1024
# ...or hold a connection half-read: a request whose first byte has arrived
# must be complete within this many seconds (408 otherwise).  Idle
# keep-alive *between* requests is not bounded.
READ_TIMEOUT_S = 10.0

CRLF = b"\r\n"
LAST_CHUNK = b"0\r\n\r\n"
CONTENT_TYPE = "application/json"  # both directions carry JSON only

STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Protocol violation; carries the status the server should answer."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self):
        try:
            return json.loads(self.body or b"{}")
        except json.JSONDecodeError as e:
            raise HttpError(400, f"invalid JSON body: {e}") from e

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


@dataclass
class HttpResponse:
    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self):
        return json.loads(self.body or b"{}")

    @property
    def chunked(self) -> bool:
        return self.headers.get("transfer-encoding", "").lower() == "chunked"


async def _read_head(reader: asyncio.StreamReader, parse_start, first: bytes):
    """One message head — start line and headers — read with one ``readuntil``.

    ``first`` is the head's first byte when the caller has read it already
    (``read_request`` waits for it unbounded), else ``b""``.  The head must
    fit the stream's buffer limit (asyncio's default is 64 KiB) and each of
    its lines :data:`MAX_LINE`, or it is a 413.  The lines are checked in
    wire order, the start line through ``parse_start`` first.  The start
    line ends at the first CRLF after byte 0, so one CRLF before it is
    skipped (RFC 9112 §2.2).
    """
    head = first + await _read(reader.readuntil(CRLF + CRLF), "head")
    end = head.find(CRLF, 1)
    start = parse_start(_checked(head[:end]))
    headers: dict[str, str] = {}
    # Every header line ends in CRLF; the last piece of the split is empty.
    for line in head[end + 2 : -2].split(CRLF)[:-1]:
        name, sep, value = _checked(line).partition(b":")
        if len(headers) > 100:
            raise HttpError(413, "too many headers")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.decode("latin-1").strip().lower()] = value.decode("latin-1").strip()
    return start, headers


def _checked(line: bytes) -> bytes:
    if len(line) + len(CRLF) > MAX_LINE:
        raise HttpError(413, "header line too long")
    return line


def _request_line(line: bytes) -> tuple[str, str]:
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {line!r}")
    return parts[0].upper(), parts[1]


def _status_line(line: bytes) -> int:
    parts = line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1.") or not parts[1].isdecimal():
        raise HttpError(400, f"malformed status line {line!r}")
    return int(parts[1])


async def _read(stream_read, what: str) -> bytes:
    """Await one stream read; a short read is a 400, an overlong one a 413."""
    try:
        return await stream_read
    except asyncio.IncompleteReadError as e:
        raise HttpError(400, f"truncated {what}") from e
    except asyncio.LimitOverrunError as e:
        raise HttpError(413, f"{what} too large") from e


async def _read_body(reader: asyncio.StreamReader, headers: dict[str, str]) -> bytes:
    """The ``Content-Length`` body that follows a head."""
    value = headers.get("content-length", "0") or "0"
    try:
        length = int(value)
    except ValueError as e:
        raise HttpError(400, f"malformed Content-Length {value!r}") from e
    if length < 0 or length > MAX_BODY:
        raise HttpError(413, "body too large")
    return await _read(reader.readexactly(length), "body") if length else b""


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request; ``None`` on clean EOF (client closed keep-alive).

    Waiting for a request's first byte is unbounded (idle keep-alive);
    from then on the peer has :data:`READ_TIMEOUT_S` to finish it, or the
    read fails closed with a 408.
    """
    first = await reader.read(1)
    if not first:
        return None
    stall = asyncio.get_running_loop().call_later(READ_TIMEOUT_S, _fail_stalled, reader)
    try:
        (method, path), headers = await _read_head(reader, _request_line, first)
        body = await _read_body(reader, headers)
    finally:
        stall.cancel()
    return HttpRequest(method=method, path=path, headers=headers, body=body)


def _fail_stalled(reader: asyncio.StreamReader) -> None:
    """Wake the pending read (and fail every later one) with a 408."""
    reader.set_exception(
        HttpError(408, f"request not complete after {READ_TIMEOUT_S:g} s")
    )


def render_response(
    status: int,
    body: bytes | dict | list | None = None,
    *,
    keep_alive: bool = True,
    chunked: bool = False,
) -> bytes:
    """Response head (+ body unless ``chunked``), ready to write.

    With ``chunked=True`` only the head is returned; the caller streams
    :func:`encode_chunk` frames and finishes with :data:`LAST_CHUNK`.
    """
    if isinstance(body, (dict, list)):
        body = json.dumps(body, sort_keys=True).encode()
    body = body or b""
    lines = [f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}"]
    lines.append(f"Content-Type: {CONTENT_TYPE}")
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    else:
        lines.append(f"Content-Length: {len(body)}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head if chunked else head + body


def encode_chunk(data: bytes | dict) -> bytes:
    """One chunked-transfer frame (JSON payloads get a trailing newline so
    a streaming client can split frames on lines too)."""
    if isinstance(data, dict):
        data = json.dumps(data, sort_keys=True).encode() + b"\n"
    return f"{len(data):x}".encode() + CRLF + data + CRLF


# -- client side --------------------------------------------------------


def render_request(
    method: str,
    path: str,
    body: bytes | dict | None = None,
    *,
    host: str = "localhost",
    keep_alive: bool = True,
) -> bytes:
    if isinstance(body, dict):
        body = json.dumps(body, sort_keys=True).encode()
    body = body or b""
    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}"]
    if body:
        lines.append(f"Content-Type: {CONTENT_TYPE}")
    lines.append(f"Content-Length: {len(body)}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def iter_chunks(reader: asyncio.StreamReader):
    """Yield decoded chunk payloads until the terminal zero-length chunk."""
    while True:
        size_line = _checked((await _read(reader.readuntil(CRLF), "chunk"))[:-2])
        try:
            size = int(size_line.split(b";")[0], 16)
        except ValueError as e:
            raise HttpError(400, f"malformed chunk size {size_line!r}") from e
        if size < 0 or size > MAX_BODY:
            raise HttpError(413, "chunk too large")
        data = await _read(reader.readexactly(size), "chunk")
        await _read(reader.readexactly(2), "chunk")  # trailing CRLF
        if size == 0:
            return
        yield data


async def read_response(reader: asyncio.StreamReader) -> HttpResponse:
    """Read one full response, reassembling chunked bodies."""
    status, headers = await _read_head(reader, _status_line, b"")
    if headers.get("transfer-encoding", "").lower() == "chunked":
        body = b"".join([c async for c in iter_chunks(reader)])
    else:
        body = await _read_body(reader, headers)
    return HttpResponse(status=status, headers=headers, body=body)
