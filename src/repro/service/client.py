"""Blocking client + subprocess lifecycle for the query service.

:class:`ServiceClient` speaks the service's JSON protocol over one
keep-alive ``http.client`` connection — stdlib only, usable from tests,
benchmarks, and plain scripts. Streaming responses (``/sample``) come
back as a generator of decoded updates; ``http.client`` undoes the
chunked framing transparently.

:func:`spawn_service` mirrors
:func:`repro.circuits.distributed.spawn_local_worker`: subprocess spawn,
readiness-line wait, and a handle whose ``stop()`` the caller owns — the
one spawn/teardown implementation the service tests, the fault drills and
the E19 bench all share.
"""

from __future__ import annotations

import base64
import http.client
import json
import os

from repro.util import ReproError
from repro.util.helpers import spawn_until_ready

#: The readiness line a spawned service prints, parsed by spawn_service.
READY_PREFIX = "repro-service listening on"


class ServiceClientError(ReproError):
    """An error response from the service, carrying the HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ServiceClient:
    """A keep-alive JSON client for one service address."""

    def __init__(self, address: str, timeout: float = 60.0):
        address = address.strip()
        for prefix in ("http://", "https://"):
            if address.startswith(prefix):
                address = address[len(prefix):]
        address = address.rstrip("/")
        host, sep, port = address.rpartition(":")
        if not sep:
            raise ReproError(f"service address needs host:port, got {address!r}")
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    # -- plumbing --------------------------------------------------------- #

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        """Drop the connection (hard: aborts any in-flight stream)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _send(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        last_error: Exception | None = None
        # One retry on a stale keep-alive connection the server closed
        # between requests; never retried mid-response.
        for attempt in (0, 1):
            connection = self._connection()
            try:
                connection.request(
                    method, path, body=body,
                    headers={"Content-Type": "application/json"},
                )
                return connection.getresponse()
            except (http.client.HTTPException, ConnectionError,
                    BrokenPipeError, OSError) as exc:
                last_error = exc
                self.close()
                if attempt:
                    raise
        raise ReproError(f"service request failed: {last_error}")

    def request(self, method: str, path: str, payload=None) -> dict:
        """One JSON round trip; raises :class:`ServiceClientError` on >= 400."""
        response = self._send(method, path, payload)
        data = response.read()
        decoded = json.loads(data) if data else {}
        if response.status >= 400:
            raise ServiceClientError(
                response.status,
                decoded.get("error", f"service returned {response.status}"),
            )
        return decoded

    # -- endpoints -------------------------------------------------------- #

    def health(self) -> dict:
        return self.request("GET", "/health")

    def stats(self) -> dict:
        return self.request("GET", "/stats")

    def transport(self) -> dict:
        """The service's distributed-transport block from ``/stats``.

        ``{"provider", "auth", "pipeline_depth", "registered_hosts"}`` —
        what secures the worker links, how deep shard pipelining runs,
        and which workers joined elastically (empty on older services).
        """
        return self.stats().get("transport", {})

    def register_plan(self, plan_bytes: bytes) -> dict:
        """Register a wire plan; returns the service's digest record."""
        encoded = base64.b64encode(plan_bytes).decode("ascii")
        return self.request("POST", "/plans", {"plan_b64": encoded})

    def register_compiled(self, compiled) -> str:
        """Register a :class:`CompiledCircuit`'s plan; returns its digest."""
        return self.register_plan(compiled.wire_bytes())["digest"]

    def compile(self, instance_payload: dict, query: dict,
                probabilities: dict | None = None, method: str = "lineage",
                default_probability: float = 0.5) -> dict:
        """Server-side ingest + compile; returns digest/variables/default row."""
        body = {
            "instance": instance_payload,
            "query": query,
            "method": method,
            "default_probability": default_probability,
        }
        if probabilities is not None:
            body["probabilities"] = probabilities
        return self.request("POST", "/compile", body)

    def probability(self, digest: str, rows, peers: int | None = None) -> dict:
        """Marginals for ``rows`` (slot order) under plan ``digest``."""
        body = {"digest": digest, "rows": [list(map(float, row)) for row in rows]}
        if peers is not None:
            body["peers"] = peers
        return self.request("POST", "/probability", body)

    def sample(self, digest: str, row, samples: int, chunk: int | None = None,
               seed: int = 0):
        """Stream converging Monte-Carlo estimates; yields update dicts.

        The generator ends after the ``done: true`` update. Abandoning it
        and calling :meth:`close` aborts the run server-side (the
        disconnect-cancellation path the fault tests exercise).
        """
        body = {
            "digest": digest, "row": [float(v) for v in row],
            "samples": samples, "seed": seed,
        }
        if chunk is not None:
            body["chunk"] = chunk
        response = self._send("POST", "/sample", body)
        if response.status >= 400:
            data = response.read()
            decoded = json.loads(data) if data else {}
            raise ServiceClientError(
                response.status,
                decoded.get("error", f"service returned {response.status}"),
            )

        def updates():
            while True:
                line = response.readline()
                if not line:
                    break
                yield json.loads(line)

        return updates()

    def shutdown(self) -> None:
        """Ask the service to exit (tolerates the connection dropping)."""
        try:
            self.request("POST", "/shutdown")
        except (ReproError, OSError, http.client.HTTPException,
                ConnectionError, ValueError):
            pass
        finally:
            self.close()


class LocalService:
    """A ``repro serve-http`` subprocess spawned by :func:`spawn_service`."""

    __slots__ = ("process", "host", "port")

    def __init__(self, process, host: str, port: int):
        self.process = process
        self.host = host
        self.port = port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def client(self, timeout: float = 60.0) -> ServiceClient:
        return ServiceClient(self.address, timeout=timeout)

    def alive(self) -> bool:
        return self.process.poll() is None

    def wait_dead(self, timeout: float = 10.0) -> int:
        """Block until the process exits; returns its exit code."""
        return self.process.wait(timeout=timeout)

    def stop(self) -> None:
        """Terminate the service and reap it (idempotent, escalates)."""
        import subprocess

        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck
                self.process.kill()
                self.process.wait(timeout=5.0)
        if self.process.stdout is not None:
            self.process.stdout.close()


def spawn_service(port: int = 0, coalesce: bool = True,
                  cache_size: int | None = None,
                  startup_timeout: float = 30.0,
                  env: dict | None = None,
                  extra_args: tuple = ()) -> LocalService:
    """Start a localhost query service subprocess and wait until ready.

    Runs ``python -m repro serve-http`` with this process's ``repro``
    package on the child's path and blocks for the readiness line.
    ``coalesce=False`` passes ``--no-coalesce`` (every request its own
    pass); ``cache_size`` passes ``--cache-size``. ``env``
    overlays extra environment variables on the child (e.g.
    ``REPRO_DISTRIBUTED_HOSTS`` for the fault drills). The caller owns
    teardown (:meth:`LocalService.stop`).
    """
    child_env = dict(os.environ)
    if env:
        child_env.update({key: str(value) for key, value in env.items()})
    command = ["serve-http", "--port", str(port)]
    if not coalesce:
        command.append("--no-coalesce")
    if cache_size is not None:
        command += ["--cache-size", str(cache_size)]
    command += list(extra_args)
    return LocalService(
        *spawn_until_ready(command, child_env, startup_timeout, "service")
    )
