"""Minimal HTTP/1.1 on asyncio streams — no dependencies, both sides.

The gateway speaks just enough HTTP for its own clients: request-line +
headers + ``Content-Length`` bodies on the way in, fixed-length or
``Transfer-Encoding: chunked`` responses on the way out.  Chunked
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


async def _read_line(reader: asyncio.StreamReader, head: bytes = b"") -> bytes:
    """One CRLF-terminated line, ``head`` being bytes of it already read."""
    try:
        line = head + await reader.readuntil(CRLF)
    except asyncio.IncompleteReadError as e:
        if not e.partial and not head:
            return b""  # clean EOF between requests
        raise HttpError(400, "truncated line") from e
    except asyncio.LimitOverrunError as e:
        raise HttpError(413, "header line too long") from e
    if len(line) > MAX_LINE:
        raise HttpError(413, "header line too long")
    return line[:-2]


async def _read_headers(reader: asyncio.StreamReader) -> dict[str, str]:
    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if not line:
            return headers
        if len(headers) > 100:
            raise HttpError(413, "too many headers")
        name, sep, value = line.partition(b":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.decode("latin-1").strip().lower()] = value.decode("latin-1").strip()


async def _read_exactly(reader: asyncio.StreamReader, n: int, what: str) -> bytes:
    try:
        return await reader.readexactly(n)
    except asyncio.IncompleteReadError as e:
        raise HttpError(400, f"truncated {what}") from e


def _content_length(headers: dict[str, str]) -> int:
    value = headers.get("content-length", "0") or "0"
    try:
        length = int(value)
    except ValueError as e:
        raise HttpError(400, f"malformed Content-Length {value!r}") from e
    if length < 0 or length > MAX_BODY:
        raise HttpError(413, "body too large")
    return length


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request; ``None`` on clean EOF (client closed keep-alive).

    Waiting for a request's first byte is unbounded (idle keep-alive);
    from then on the peer has :data:`READ_TIMEOUT_S` to finish it, or the
    read fails closed with a 408.
    """
    first = await reader.read(1)
    if not first:
        return None
    # A timer, not ``wait_for``: no task per request on the serving path.
    stall = asyncio.get_running_loop().call_later(READ_TIMEOUT_S, _fail_stalled, reader)
    try:
        line = await _read_line(reader, first)
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise HttpError(400, f"malformed request line {line!r}")
        method, path, _version = parts
        headers = await _read_headers(reader)
        length = _content_length(headers)
        body = await _read_exactly(reader, length, "body") if length else b""
    finally:
        stall.cancel()
    return HttpRequest(method=method.upper(), path=path, headers=headers, body=body)


def _fail_stalled(reader: asyncio.StreamReader) -> None:
    """Wake the pending read (and fail every later one) with a 408."""
    reader.set_exception(
        HttpError(408, f"request not complete after {READ_TIMEOUT_S:g} s")
    )


def render_response(
    status: int,
    body: bytes | dict | list | None = None,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    chunked: bool = False,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Response head (+ body unless ``chunked``), ready to write.

    With ``chunked=True`` only the head is returned; the caller streams
    :func:`encode_chunk` frames and finishes with :data:`LAST_CHUNK`.
    """
    if isinstance(body, (dict, list)):
        body = json.dumps(body, sort_keys=True).encode()
    body = body or b""
    lines = [f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}"]
    lines.append(f"Content-Type: {content_type}")
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    else:
        lines.append(f"Content-Length: {len(body)}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    for k, v in (extra_headers or {}).items():
        lines.append(f"{k}: {v}")
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
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    if isinstance(body, dict):
        body = json.dumps(body, sort_keys=True).encode()
    body = body or b""
    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}"]
    if body:
        lines.append("Content-Type: application/json")
    lines.append(f"Content-Length: {len(body)}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    for k, v in (extra_headers or {}).items():
        lines.append(f"{k}: {v}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def _read_status_and_headers(reader: asyncio.StreamReader) -> tuple[int, dict[str, str]]:
    line = await _read_line(reader)
    if not line:
        raise HttpError(400, "connection closed before response")
    parts = line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise HttpError(400, f"malformed status line {line!r}")
    return int(parts[1]), await _read_headers(reader)


async def iter_chunks(reader: asyncio.StreamReader):
    """Yield decoded chunk payloads until the terminal zero-length chunk."""
    while True:
        size_line = await _read_line(reader)
        try:
            size = int(size_line.split(b";")[0], 16)
        except ValueError as e:
            raise HttpError(400, f"malformed chunk size {size_line!r}") from e
        if size < 0 or size > MAX_BODY:
            raise HttpError(413, "chunk too large")
        data = await _read_exactly(reader, size, "chunk")
        await _read_exactly(reader, 2, "chunk")  # trailing CRLF
        if size == 0:
            return
        yield data


async def read_response(reader: asyncio.StreamReader) -> HttpResponse:
    """Read one full response, reassembling chunked bodies."""
    status, headers = await _read_status_and_headers(reader)
    if headers.get("transfer-encoding", "").lower() == "chunked":
        body = b"".join([c async for c in iter_chunks(reader)])
    else:
        length = _content_length(headers)
        body = await _read_exactly(reader, length, "body") if length else b""
    return HttpResponse(status=status, headers=headers, body=body)
