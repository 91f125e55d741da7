"""Hand-rolled HTTP/1.1 framing for the layout server and loadgen.

Like every other transport layer in this repo (structured logs,
heartbeats, Prometheus exposition) the serving protocol is
zero-dependency: requests and responses are parsed and written
directly over :mod:`asyncio` stream pairs.  The subset implemented is
exactly what the JSON service needs --

* request line + headers + ``Content-Length`` bodies (no trailers,
  no multipart, no TLS);
* keep-alive by default (HTTP/1.1 semantics): a connection serves
  requests until the client sends ``Connection: close`` or EOF;
* ``Transfer-Encoding: chunked`` responses for the JSONL progress
  streams of large sweep requests (each chunk is one complete JSON
  line, so consumers can parse incrementally);
* a tiny :class:`HttpError` carrying a status code and a JSON-able
  message, raised anywhere in a handler and rendered uniformly.

Both sides of the wire live here so the server, the load generator,
and the tests share one framing implementation.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "CLIENT_HEADER",
    "DEFAULT_MAX_BODY",
    "MAX_HEADER_BYTES",
    "SERVE_SCHEMA",
    "TRACE_HEADER",
    "ChunkedJsonWriter",
    "HttpError",
    "HttpRequest",
    "http_request",
    "json_body",
    "json_body_spliced",
    "read_request",
    "read_response",
    "send_json",
    "send_response",
]

SERVE_SCHEMA = "repro.serve/v1"

#: Parse limits: a request head (line + headers) beyond this is a 400,
#: a declared body beyond ``max_body`` is a 413.
MAX_HEADER_BYTES = 32 * 1024
DEFAULT_MAX_BODY = 16 * 1024 * 1024

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Header naming the requesting client for per-client quotas; absent
#: clients share one ``"anonymous"`` bucket.
CLIENT_HEADER = "x-repro-client"

#: W3C-traceparent-style trace context header
#: (``00-<32hex trace>-<16hex span>-<2hex flags>``); parsed with
#: :func:`repro.obs.context.parse_traceparent`.  Malformed values
#: degrade to "no inbound context", never a 4xx.
TRACE_HEADER = "x-repro-trace"


class HttpError(Exception):
    """An HTTP failure a handler wants rendered as a JSON error body."""

    def __init__(
        self, status: int, message: str, *, retry_after: float | None = None
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


@dataclass
class HttpRequest:
    """One parsed request: line, lower-cased headers, raw body."""

    method: str
    target: str
    path: str
    query: dict = field(default_factory=dict)
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        """The body as a JSON object (400 on anything else)."""
        if not self.body:
            return {}
        try:
            doc = json.loads(self.body)
        except ValueError as exc:
            raise HttpError(400, f"request body is not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise HttpError(400, "request body must be a JSON object")
        return doc

    @property
    def client_id(self) -> str:
        return str(self.headers.get(CLIENT_HEADER) or "anonymous")

    @property
    def wants_close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"


async def read_request(
    reader: asyncio.StreamReader, *, max_body: int = DEFAULT_MAX_BODY
) -> HttpRequest | None:
    """Parse one request; ``None`` on a clean EOF between requests."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(400, "request head too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(400, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    split = urlsplit(target)
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_s = headers.get("content-length", "0")
    try:
        length = int(length_s)
    except ValueError:
        raise HttpError(400, f"bad Content-Length: {length_s!r}") from None
    if length < 0:
        raise HttpError(400, f"bad Content-Length: {length_s!r}")
    if length > max_body:
        raise HttpError(413, f"request body over {max_body} bytes")
    body = await reader.readexactly(length) if length else b""
    return HttpRequest(
        method=method.upper(),
        target=target,
        path=unquote(split.path),
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


def json_body(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def json_body_spliced(obj: dict, key: str, raw: str) -> bytes:
    """``json_body({**obj, key: json.loads(raw)})`` without the round trip.

    ``raw`` -- the text of one JSON value, which the caller vouches
    for -- goes into the body verbatim at ``key``'s sorted position
    (``key`` must not be in ``obj``).  The bytes differ from
    :func:`json_body`'s only in the key order *inside* ``raw``; the
    parsed documents are equal.
    """
    head = {k: v for k, v in obj.items() if k < key}
    tail = {k: v for k, v in obj.items() if k > key}
    members = [json.dumps(key) + ": " + raw]
    if head:
        members.insert(0, json.dumps(head, sort_keys=True)[1:-1])
    if tail:
        members.append(json.dumps(tail, sort_keys=True)[1:-1])
    return ("{" + ", ".join(members) + "}\n").encode()


def _head(
    status: int,
    *,
    content_type: str,
    content_length: int | None,
    chunked: bool = False,
    retry_after: float | None = None,
    close: bool = False,
) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}", f"Content-Type: {content_type}"]
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    elif content_length is not None:
        lines.append(f"Content-Length: {content_length}")
    if retry_after is not None:
        lines.append(f"Retry-After: {max(0, int(retry_after + 0.999))}")
    lines.append(f"Connection: {'close' if close else 'keep-alive'}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def send_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    *,
    content_type: str = "text/plain; charset=utf-8",
    retry_after: float | None = None,
    close: bool = False,
) -> None:
    writer.write(
        _head(
            status,
            content_type=content_type,
            content_length=len(body),
            retry_after=retry_after,
            close=close,
        )
        + body
    )
    await writer.drain()


async def send_json(
    writer: asyncio.StreamWriter,
    status: int,
    obj,
    *,
    retry_after: float | None = None,
    close: bool = False,
) -> None:
    await send_response(
        writer,
        status,
        json_body(obj),
        content_type="application/json",
        retry_after=retry_after,
        close=close,
    )


class ChunkedJsonWriter:
    """A chunked JSONL response: one JSON document per chunk/line.

    The sweep endpoint streams progress through this -- each
    :meth:`send` is one complete JSON line flushed as one HTTP chunk,
    so a client can parse the stream incrementally while jobs are
    still running.
    """

    def __init__(self, writer: asyncio.StreamWriter):
        self._writer = writer
        self._started = False

    async def start(self, status: int = 200) -> None:
        if self._started:
            return
        self._started = True
        self._writer.write(
            _head(
                status,
                content_type="application/jsonl",
                content_length=None,
                chunked=True,
            )
        )
        await self._writer.drain()

    async def send(self, obj) -> None:
        if not self._started:
            await self.start()
        chunk = json_body(obj)
        self._writer.write(
            f"{len(chunk):x}\r\n".encode("latin-1") + chunk + b"\r\n"
        )
        await self._writer.drain()

    async def finish(self) -> None:
        if not self._started:
            await self.start()
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()


# ---------------------------------------------------------------------------
# client side (loadgen + tests)


async def read_response(
    reader: asyncio.StreamReader, *, max_body: int = DEFAULT_MAX_BODY
) -> tuple[int, dict, bytes]:
    """``(status, headers, body)`` for one response.

    Handles ``Content-Length`` bodies and ``chunked`` transfer
    encoding (the two framings the server emits); a missing length
    means read-to-EOF, the HTTP/1.0 fallback.
    """
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ValueError(f"malformed status line: {lines[0]!r}")
    status = int(parts[1])
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding", "").lower() == "chunked":
        body = bytearray()
        while True:
            size_line = await reader.readuntil(b"\r\n")
            size = int(size_line.strip().split(b";")[0], 16)
            if size == 0:
                await reader.readuntil(b"\r\n")
                break
            if len(body) + size > max_body:
                raise ValueError("chunked response too large")
            body += await reader.readexactly(size)
            await reader.readexactly(2)  # trailing CRLF
        return status, headers, bytes(body)
    if "content-length" in headers:
        length = int(headers["content-length"])
        if length > max_body:
            raise ValueError("response body too large")
        return status, headers, await reader.readexactly(length)
    return status, headers, await reader.read(max_body)


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    *,
    body: dict | None = None,
    headers: dict | None = None,
    timeout: float = 60.0,
) -> tuple[int, dict, bytes]:
    """One-shot request on a fresh connection (tests, simple scripts).

    The load generator keeps its own persistent connections; this
    helper trades efficiency for convenience.
    """

    async def _go():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            payload = json_body(body) if body is not None else b""
            head = [
                f"{method} {path} HTTP/1.1",
                f"Host: {host}:{port}",
                f"Content-Length: {len(payload)}",
                "Connection: close",
            ]
            if body is not None:
                head.append("Content-Type: application/json")
            for name, value in (headers or {}).items():
                head.append(f"{name}: {value}")
            writer.write(
                ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload
            )
            await writer.drain()
            return await read_response(reader)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    return await asyncio.wait_for(_go(), timeout)
