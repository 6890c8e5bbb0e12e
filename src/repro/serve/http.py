"""Minimal asyncio HTTP/1.1 front end (stdlib only).

Just enough protocol for the intel API: request-line + headers,
``Content-Length`` bodies, keep-alive, JSON responses.  The transport
is deliberately decoupled from routing — the server takes any async
``handler(HttpRequest) -> HttpResponse``, so tests can call the
application directly and the benchmark can swap transports.

:class:`BackgroundServer` runs the event loop in a daemon thread for
synchronous callers (tests, the bench harness, CI smoke).
"""

import asyncio
import json
import socket
import threading
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Optional
from urllib.parse import parse_qs, unquote, urlsplit

__all__ = [
    "BackgroundServer",
    "HttpRequest",
    "HttpResponse",
    "HttpServer",
    "create_listen_socket",
    "json_response",
    "read_request",
]

#: request bodies above this are rejected with 413.
MAX_BODY_BYTES = 4 * 1024 * 1024
#: request line / header section ceiling.
MAX_HEADER_BYTES = 64 * 1024

_REASONS = {
    200: "OK", 400: "Bad Request", 401: "Unauthorized",
    404: "Not Found", 405: "Method Not Allowed",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error",
}


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    target: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        """Case-insensitive header lookup."""
        return self.headers.get(name.lower(), default)

    def json(self) -> Any:
        """Decode the body as JSON (raises ValueError on garbage)."""
        return json.loads(self.body.decode("utf-8"))


@dataclass
class HttpResponse:
    """One response about to be serialised."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    def render(self) -> bytes:
        """Serialise status line + headers + body to wire bytes."""
        reason = _REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}",
                 f"content-type: {self.content_type}",
                 f"content-length: {len(self.body)}"]
        lines.extend(f"{name}: {value}"
                     for name, value in self.headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        return head + self.body


def json_response(payload: Any, status: int = 200,
                  headers: Optional[Dict[str, str]] = None
                  ) -> HttpResponse:
    """Build an HttpResponse carrying a JSON document."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return HttpResponse(status=status, body=body,
                        headers=dict(headers or {}))


async def read_request(reader: asyncio.StreamReader
                       ) -> Optional[HttpRequest]:
    """Parse one request off the stream; None on clean EOF.

    Raises ValueError on malformed input (the connection handler turns
    that into a 400 and closes).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise ValueError("truncated request head") from None
    except asyncio.LimitOverrunError:
        raise ValueError("request head too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise ValueError("request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ValueError(f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise ValueError("body too large")
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    query = {name: values[-1]
             for name, values in parse_qs(split.query).items()}
    return HttpRequest(method=method.upper(), target=target,
                       path=unquote(split.path), query=query,
                       headers=headers, body=body)


Handler = Callable[[HttpRequest], Awaitable[HttpResponse]]


def create_listen_socket(host: str, port: int,
                         reuse_port: bool = False,
                         listen: bool = True) -> socket.socket:
    """A bound TCP socket, ready for :class:`HttpServer` (``sock=``).

    ``reuse_port`` sets ``SO_REUSEPORT`` before binding, letting N
    independent server processes listen on the same (host, port) with
    the kernel balancing accepted connections across them — the
    multi-process serving fleet's socket strategy.  ``listen=False``
    binds without listening (the fleet parent holds such a socket
    purely as a port reservation; a non-listening ``SO_REUSEPORT``
    socket never receives connections).

    Raises OSError if ``reuse_port`` is requested on a platform
    without ``SO_REUSEPORT`` — callers fall back to fork-inherited
    listen sockets (see :class:`repro.serve.fleet.ServerFleet`).
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise OSError("SO_REUSEPORT not supported")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        if listen:
            sock.listen(128)
    except BaseException:
        sock.close()
        raise
    return sock


class HttpServer:
    """asyncio streams server around one async request handler.

    ``sock`` (a pre-bound listening socket) overrides host/port
    binding — the multi-process fleet passes each worker its own
    ``SO_REUSEPORT`` socket, or the fork-inherited parent one.
    """

    def __init__(self, handler: Handler, host: str = "127.0.0.1",
                 port: int = 0,
                 sock: Optional[socket.socket] = None) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self._sock = sock
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> "HttpServer":
        """Bind (or adopt ``sock``) and start accepting; resolves the
        real port."""
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self._sock,
                limit=MAX_HEADER_BYTES)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port,
                limit=MAX_HEADER_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Run until cancelled."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting and close the listening sockets."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ValueError as exc:
                    writer.write(json_response(
                        {"error": str(exc)}, status=400).render())
                    await writer.drain()
                    break
                if request is None:
                    break
                try:
                    response = await self.handler(request)
                except Exception:  # noqa: BLE001 — 500 boundary
                    # a fixed body: exception text can carry internals
                    response = json_response(
                        {"error": "internal error"}, status=500)
                close = (request.header("connection").lower() == "close")
                if close:
                    response.headers["connection"] = "close"
                writer.write(response.render())
                await writer.drain()
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-exchange
        except asyncio.CancelledError:
            # server shutdown with the connection idle; finishing
            # normally keeps the streams done-callback from re-raising
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


class BackgroundServer:
    """An HttpServer on its own event-loop thread (sync callers).

    Context-manager friendly::

        with BackgroundServer(app.handle) as server:
            client = IntelClient("127.0.0.1", server.port)
    """

    def __init__(self, handler: Handler, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self._handler = handler
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[HttpServer] = None
        self._started = threading.Event()

    def start(self) -> "BackgroundServer":
        """Spin up the loop thread; returns once the port is bound."""
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._server = HttpServer(self._handler, host=self.host,
                                  port=self._requested_port)
        self._loop.run_until_complete(self._server.start())
        self.port = self._server.port
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self._server.stop())
            # drain keep-alive connection tasks before closing the loop
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            self._loop.close()

    def call_soon(self, callback: Callable[[], None]) -> None:
        """Schedule a callback on the server's loop (thread-safe)."""
        if self._loop is None:
            raise RuntimeError("server not started")
        self._loop.call_soon_threadsafe(callback)

    def stop(self) -> None:
        """Stop the loop and join the thread."""
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
            self._loop = None
            self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
