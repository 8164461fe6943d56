"""Shared fixtures: process-wide knob isolation + distributed worker lifecycle.

Two jobs live here:

- keep the process-wide state (the knob overrides of :mod:`repro.config`,
  the engine registry, warn-once latches) test-isolated, so a test that
  flips a knob — or fails mid-flip — cannot leak it into the rest of the
  suite;
- manage localhost distributed workers for the socket tests: ephemeral TCP
  ports, subprocess spawn with a readiness wait, and guaranteed teardown so
  no test can leak a listening socket or an orphan worker process.

Tests that open sockets or spawn worker subprocesses carry the
``distributed`` marker (registered below) so sandboxed runs can deselect
them with ``-m "not distributed"``.
"""

import socket

import pytest

from repro import config
from repro.circuits import distributed, evaluation, parallel
from repro.util.helpers import LocalProcess


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "distributed: test uses localhost TCP sockets and/or worker "
        "subprocesses (deselect with -m 'not distributed')",
    )


@pytest.fixture(autouse=True)
def restore_process_state():
    """Restore the knob overrides, the engine registry and warn-once latches.

    Knobs are process-wide (:mod:`repro.config`), and so are the engine
    registry and the latches of the degraded-path warnings. Tests should
    scope knobs with ``config.overrides`` — this fixture is the backstop:
    it saves the one override table and puts it back, "no override"
    entries included.
    """
    overrides = dict(config._OVERRIDES)
    engines = dict(evaluation._ENGINES)
    warned = set(distributed._WARNED)
    serial_warned = parallel._SERIAL_FALLBACK_WARNED
    yield
    config._OVERRIDES.clear()
    config._OVERRIDES.update(overrides)
    evaluation._ENGINES.clear()
    evaluation._ENGINES.update(engines)
    if distributed._REGISTRY_BIND is None:
        # Tests that bind an explicit registry must not leak it (or the
        # membership it admitted) into the next test. The env-armed
        # registry (the CI TLS topology) is suite-wide and stays up.
        distributed.stop_registry()
        for leaked in distributed._HOST_POOL.registered():
            distributed._HOST_POOL.drain(leaked)
    distributed._WARNED.clear()
    distributed._WARNED.update(warned)
    parallel._SERIAL_FALLBACK_WARNED = serial_warned


@pytest.fixture(scope="session", autouse=True)
def shutdown_parallel_backend():
    """Stop the pools (process + TCP) and shared memory when the suite ends.

    The persistent :class:`~repro.circuits.distributed.HostPool` is left
    running *between* tests on purpose — connection reuse across calls is
    the behaviour under test — and torn down once here.
    """
    yield
    parallel.shutdown()
    distributed.close_pool()


# --------------------------------------------------------------------------- #
# distributed worker lifecycle

@pytest.fixture
def unused_tcp_port():
    """An ephemeral localhost TCP port that was free a moment ago."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def worker_factory():
    """Spawn localhost workers with guaranteed teardown, one test at a time.

    Yields a ``factory(max_tasks=None, port=0, secret=None, delay=None,
    tls_cert=None, tls_key=None, tls_ca=None, register=None,
    advertise=None) -> LocalProcess`` built on
    :func:`repro.circuits.distributed.spawn_local_worker` (the same spawn/
    readiness-wait/teardown implementation the benchmarks use); every
    spawned worker — including ones the test deliberately crashed — is
    reaped when the test ends, whether it passed or not. ``port`` lets a
    test bounce a worker and relaunch it at the same address; ``secret``
    arms authentication; ``delay`` makes the worker artificially slow;
    the ``tls_*`` paths arm transport security and ``register`` dials a
    coordinator registry (elastic membership).
    """
    spawned: list[LocalProcess] = []

    def factory(
        max_tasks: int | None = None, port: int = 0,
        secret: str | None = None, delay: float | None = None,
        tls_cert: str | None = None, tls_key: str | None = None,
        tls_ca: str | None = None, register: str | None = None,
        advertise: str | None = None,
    ) -> LocalProcess:
        handle = distributed.spawn_local_worker(
            max_tasks=max_tasks, port=port, secret=secret, delay=delay,
            tls_cert=tls_cert, tls_key=tls_key, tls_ca=tls_ca,
            register=register, advertise=advertise,
        )
        spawned.append(handle)
        return handle

    yield factory
    for handle in spawned:
        handle.stop()


@pytest.fixture(scope="module")
def module_worker():
    """One healthy worker shared by a whole test module (spawned once)."""
    handle = distributed.spawn_local_worker()
    yield handle
    handle.stop()


@pytest.fixture
def hung_startup(tmp_path):
    """A ``PYTHONPATH`` entry that hangs a python child before it prints.

    Its ``sitecustomize.py`` records the child's pid and sleeps 30 s, so a
    spawn helper given it sees a live child that never prints a line.
    Returns ``(directory, child_pid)``; ``child_pid()`` reads the pid.
    """
    pid_file = tmp_path / "child.pid"
    (tmp_path / "sitecustomize.py").write_text(
        "import os, time\n"
        f"with open({str(pid_file)!r}, 'w') as out:\n"
        "    out.write(str(os.getpid()))\n"
        "time.sleep(30)\n"
    )
    return str(tmp_path), lambda: int(pid_file.read_text())
