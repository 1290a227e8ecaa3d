"""Stdlib asyncio HTTP/1.1 front-end for :class:`~repro.service.RuleService`.

The dependency-free tier is the *primary* implementation, not a
fallback.  An :mod:`asyncio` protocol
parses requests and keeps connections alive; the synchronous
``RuleService.handle`` runs on a bounded :class:`ThreadPoolExecutor` so
slow cold mines never stall the accept loop, while warm cache hits clear a
worker thread in microseconds.

Two entry points:

* :func:`serve_forever` — the blocking server behind ``repro serve``;
* :class:`BackgroundServer` — the same server on a daemon thread bound to
  an ephemeral port, for hermetic in-process tests and the load-test
  harness (the service object stays reachable, so tests can monkeypatch
  the layers below and read the metrics counters directly).
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from urllib.parse import parse_qsl, urlsplit

from repro.service.app import RuleService

__all__ = ["BackgroundServer", "serve_forever"]

# A request body bound: mining requests are small JSON documents; anything
# larger is a client error, answered before the body is read into memory.
MAX_BODY_BYTES = 1_048_576
MAX_HEADER_BYTES = 16_384


def _reason(status: int) -> str:
    try:
        return HTTPStatus(status).phrase
    except ValueError:
        return "Unknown"


def _encode_response(status: int, payload: dict, keep_alive: bool) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_reason(status)}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("ascii")
    return head + body


class _ConnectionClosed(Exception):
    """The peer went away mid-request; nothing left to answer."""


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict, dict, bytes] | None:
    """Parse one request; ``None`` on clean EOF between requests."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not request_line:
        return None
    try:
        method, target, version = request_line.decode("ascii").split()
    except (UnicodeDecodeError, ValueError) as exc:
        raise _BadRequest(f"malformed request line: {exc}") from exc
    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await reader.readline()
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise _BadRequest("request headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator:
            raise _BadRequest(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length_header = headers.get("content-length", "0")
    try:
        length = int(length_header)
    except ValueError as exc:
        raise _BadRequest(f"invalid Content-Length {length_header!r}") from exc
    if length < 0 or length > MAX_BODY_BYTES:
        raise _BadRequest(f"request body of {length} bytes exceeds the limit")
    if length:
        try:
            body = await reader.readexactly(length)
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            raise _ConnectionClosed() from exc
    split = urlsplit(target)
    query = dict(parse_qsl(split.query))
    keep_alive = version != "HTTP/1.0" and headers.get("connection", "").lower() != "close"
    headers["__keep_alive__"] = "1" if keep_alive else ""
    return method, split.path, query, headers, body


class _BadRequest(Exception):
    """The request could not be parsed; answered with a typed 400."""


async def _serve_connection(
    service: RuleService,
    pool: ThreadPoolExecutor,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    loop = asyncio.get_running_loop()
    try:
        while True:
            try:
                request = await _read_request(reader)
            except _BadRequest as exc:
                payload = {
                    "error": {
                        "type": "ServiceError",
                        "status": 400,
                        "message": str(exc),
                    }
                }
                writer.write(_encode_response(400, payload, keep_alive=False))
                await writer.drain()
                return
            except _ConnectionClosed:
                return
            if request is None:
                return
            method, path, query, headers, body = request
            keep_alive = bool(headers.pop("__keep_alive__", ""))
            status, payload = await loop.run_in_executor(
                pool, service.handle, method, path, query, headers, body
            )
            writer.write(_encode_response(status, payload, keep_alive))
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            # Loop shutdown cancels idle keep-alive connections; the
            # cancellation re-raises at this await and must not escape
            # into the stream handler's task (it would be logged as an
            # unhandled callback exception).
            pass


async def _run_server(
    service: RuleService,
    host: str,
    port: int,
    workers: int,
    ready: "threading.Event | None" = None,
    bound: "list | None" = None,
    stop: "asyncio.Event | None" = None,
) -> None:
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-serve")
    try:

        async def handler(reader, writer):
            await _serve_connection(service, pool, reader, writer)

        server = await asyncio.start_server(handler, host=host, port=port)
        try:
            if bound is not None:
                bound.append(server.sockets[0].getsockname()[1])
            if ready is not None:
                ready.set()
            if stop is None:
                async with server:
                    await server.serve_forever()
            else:
                async with server:
                    await stop.wait()
        finally:
            server.close()
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def serve_forever(
    service: RuleService, host: str = "127.0.0.1", port: int = 8000, workers: int = 8
) -> None:
    """Run the server on the calling thread until interrupted."""
    try:
        asyncio.run(_run_server(service, host, port, workers))
    except KeyboardInterrupt:
        pass


class BackgroundServer:
    """The stdlib server on a daemon thread, bound to an ephemeral port.

    Context-manager styled::

        with BackgroundServer(service) as server:
            http.client.HTTPConnection("127.0.0.1", server.port)
    """

    def __init__(
        self,
        service: RuleService,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 8,
        startup_timeout: float = 10.0,
    ) -> None:
        self.service = service
        self.host = host
        self._bound: list[int] = []
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None

        def run() -> None:
            async def main() -> None:
                self._loop = asyncio.get_running_loop()
                self._stop = asyncio.Event()
                await _run_server(
                    service,
                    host,
                    port,
                    workers,
                    ready=self._ready,
                    bound=self._bound,
                    stop=self._stop,
                )

            asyncio.run(main())

        self._thread = threading.Thread(target=run, daemon=True, name="repro-server")
        self._thread.start()
        if not self._ready.wait(timeout=startup_timeout):
            raise RuntimeError("service failed to start within the startup timeout")

    @property
    def port(self) -> int:
        return self._bound[0]

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
