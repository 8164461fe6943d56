"""A minimal asyncio HTTP/1.1 binding for :class:`QueryService`.

Stdlib only, on purpose: the service must run on a bare install, the same
constraint the rest of the repo honours (numpy and networkx, nothing else
assumed). It implements exactly what the service needs — JSON request and
response bodies framed by ``Content-Length``, keep-alive connections,
``Transfer-Encoding: chunked`` for the streaming endpoints, and a
reader-side EOF watch so a client hanging up mid-stream cancels its
Monte-Carlo run promptly instead of computing into a dead socket.

A richer ASGI binding (FastAPI/uvicorn) can front the same
:class:`~repro.service.app.QueryService` later, gated behind a capability
check like :func:`fastapi_available` — the app layer is transport-
independent either way, which is also what makes it unit-testable without
a socket.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

from repro.service.app import QueryService, StreamResponse

#: Refuse requests with unreasonable framing before buffering anything big.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 256 * 1024 * 1024

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
}


def fastapi_available() -> bool:
    """Whether the optional FastAPI transport could be imported here."""
    try:
        import fastapi  # noqa: F401
    except ImportError:
        return False
    return True


class _BadRequest(Exception):
    """Malformed framing; the connection is answered with 400 and closed."""


async def _read_request(reader):
    """Parse one request; ``None`` on a clean EOF between requests."""
    request_line = await reader.readline()
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _BadRequest("malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers = {}
    header_bytes = 0
    while True:
        line = await reader.readline()
        if not line:
            return None  # truncated mid-headers: treat as disconnect
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise _BadRequest("headers too large")
        if line in (b"\r\n", b"\n"):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest("malformed header line")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise _BadRequest("malformed Content-Length") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise _BadRequest("request body too large")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


def _json_response(status: int, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    reason = _REASONS.get(status, "Error")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n"
        "\r\n"
    ).encode()
    return head + body


async def _watch_disconnect(reader, cancel: asyncio.Event) -> None:
    """Set ``cancel`` when the peer closes (or talks) mid-stream.

    The protocol forbids pipelining a request while a stream is in
    flight, so any readable byte — and certainly EOF — means the client
    is gone as far as this stream is concerned.
    """
    with contextlib.suppress(Exception):
        await reader.read(1)
    cancel.set()


async def _write_stream(reader, writer, response: StreamResponse) -> bool:
    """Send one chunked-stream response; returns keep-alive eligibility."""
    writer.write(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/x-ndjson\r\n"
        b"Transfer-Encoding: chunked\r\n"
        b"Connection: keep-alive\r\n"
        b"\r\n"
    )
    cancel = asyncio.Event()
    watcher = asyncio.ensure_future(_watch_disconnect(reader, cancel))
    generator = response.factory(cancel)
    write_failed = False
    try:
        async for item in generator:
            line = (json.dumps(item) + "\n").encode()
            writer.write(b"%x\r\n" % len(line) + line + b"\r\n")
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                cancel.set()
                write_failed = True
                break
    finally:
        # Stop watching *before* the terminal chunk goes out: the client
        # cannot legally send its next request until it has seen the
        # terminal chunk, so the watcher can never eat that request's
        # first byte.
        watcher.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await watcher
        with contextlib.suppress(Exception):
            await generator.aclose()
    if write_failed or cancel.is_set():
        return False
    writer.write(b"0\r\n\r\n")
    try:
        await writer.drain()
    except (ConnectionError, OSError):
        return False
    return True


async def _handle_connection(service: QueryService, reader, writer) -> None:
    try:
        while True:
            try:
                request = await _read_request(reader)
            except _BadRequest as exc:
                with contextlib.suppress(ConnectionError, OSError):
                    writer.write(_json_response(400, {"error": str(exc)}))
                    await writer.drain()
                break
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                break
            if request is None:
                break
            method, target, _headers, body = request
            path = target.split("?", 1)[0]
            response = await service.dispatch(method, path, body)
            if isinstance(response, StreamResponse):
                if not await _write_stream(reader, writer, response):
                    break
            else:
                status, payload = response
                try:
                    writer.write(_json_response(status, payload))
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
            if service.shutdown_requested():
                break
    finally:
        with contextlib.suppress(Exception):
            writer.close()
            await writer.wait_closed()


async def run_service(service: QueryService, host: str = "127.0.0.1",
                      port: int = 0) -> None:
    """Serve ``service`` until its shutdown event fires.

    Prints a single ``repro-service listening on host:port`` readiness
    line (the same contract as the distributed worker's spawn helper) and
    tears every resident resource down on the way out.
    """
    active_writers: set = set()

    async def handler(reader, writer):
        active_writers.add(writer)
        try:
            await _handle_connection(service, reader, writer)
        finally:
            active_writers.discard(writer)

    server = await asyncio.start_server(handler, host, port)
    bound_host, bound_port = server.sockets[0].getsockname()[:2]
    print(f"repro-service listening on {bound_host}:{bound_port}", flush=True)
    try:
        await service.shutdown_event.wait()
        # Give the /shutdown handler a beat to flush its response.
        await asyncio.sleep(0.05)
    finally:
        server.close()
        # Idle keep-alive connections would hold wait_closed() open
        # forever (3.12 waits for handler completion); abort them.
        for writer in list(active_writers):
            with contextlib.suppress(Exception):
                writer.close()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(server.wait_closed(), timeout=5.0)
        service.close()


def serve_http(host: str = "127.0.0.1", port: int = 0, **service_kwargs) -> None:
    """Blocking entry point behind ``repro serve-http``.

    ``service_kwargs`` are forwarded to :class:`QueryService` (coalescing,
    cache sizing, plan caps); environment knobs fill anything omitted.
    """
    service = QueryService(**service_kwargs)
    try:
        asyncio.run(run_service(service, host=host, port=port))
    except KeyboardInterrupt:
        service.close()
