"""Small shared helpers used across the library.

Everything here is dependency-free so that any subpackage can import it
without creating cycles.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Iterator
from typing import TypeVar

T = TypeVar("T")


class ReproError(Exception):
    """Base class for all errors raised by this library."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`ReproError` with ``message`` unless ``condition`` holds.

    Used for validating user-facing invariants (as opposed to ``assert``,
    which guards internal logic and may be stripped with ``-O``).
    """
    if not condition:
        raise ReproError(message)


def powerset(items: Iterable[T]) -> Iterator[tuple[T, ...]]:
    """Yield every subset of ``items`` as a tuple, smallest subsets first.

    >>> list(powerset([1, 2]))
    [(), (1,), (2,), (1, 2)]
    """
    pool = list(items)
    return itertools.chain.from_iterable(
        itertools.combinations(pool, size) for size in range(len(pool) + 1)
    )


def pairs(items: Iterable[T]) -> Iterator[tuple[T, T]]:
    """Yield all unordered pairs of distinct elements of ``items``."""
    return itertools.combinations(items, 2)


def stable_rng(seed: int | None) -> random.Random:
    """Return a :class:`random.Random` seeded deterministically.

    All randomized components of the library accept a ``seed`` and create
    their generator through this helper so behaviour is reproducible.
    """
    return random.Random(seed if seed is not None else 0)


def fresh_name_factory(prefix: str):
    """Return a zero-argument callable producing ``prefix0, prefix1, ...``."""
    counter = itertools.count()

    def fresh() -> str:
        return f"{prefix}{next(counter)}"

    return fresh


def parse_hostport(spec: str) -> tuple[str, int]:
    """Split a ``host:port`` spec, refusing a missing host or a bad port."""
    host, sep, port = str(spec).strip().rpartition(":")
    check(bool(sep) and bool(host), f"host spec {spec!r} is not host:port")
    try:
        port_number = int(port)
    except ValueError:
        raise ReproError(f"host spec {spec!r} has a non-integer port") from None
    check(0 < port_number < 65536, f"host spec {spec!r} port out of range")
    return host, port_number


class LocalProcess:
    """A ``python -m repro`` child serving on ``host:port``.

    :func:`spawn_until_ready` returns one once the child is ready; the
    caller owns its teardown (:meth:`stop`).
    """

    __slots__ = ("process", "host", "port")

    def __init__(self, process, host: str, port: int):
        self.process = process
        self.host = host
        self.port = port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def alive(self) -> bool:
        return self.process.poll() is None

    def wait_dead(self, timeout: float = 10.0) -> int:
        """Block until the process exits; returns its exit code."""
        return self.process.wait(timeout=timeout)

    def stop(self) -> None:
        """Terminate the child and reap it (idempotent, escalates to kill)."""
        import subprocess

        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                self.process.kill()
                self.process.wait(timeout=5.0)
        if self.process.stdout is not None:
            self.process.stdout.close()


def spawn_until_ready(args: list[str], env: dict, startup_timeout: float,
                      what: str, handle=LocalProcess):
    """Run ``python -m repro *args`` and wait for its readiness line.

    The child finds this process's ``repro`` package first on its
    ``PYTHONPATH`` (``env`` supplies the rest of its environment) and
    prints ``... listening on host:port`` once it serves. The wait reads
    the child's output against one deadline and returns ``handle(process,
    host, port)``, a :class:`LocalProcess` or a subclass of it, as soon as
    that line arrives. A child that exits first, or is not ready after
    ``startup_timeout`` seconds, printing or silent, is killed, and
    :class:`ReproError` names ``what`` and its last output.
    """
    import os
    import re
    import select
    import subprocess
    import sys
    import time
    from pathlib import Path

    package_root = str(Path(__file__).resolve().parents[2])
    env = dict(env)
    env["PYTHONPATH"] = package_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
    )
    deadline = time.monotonic() + startup_timeout
    fd = process.stdout.fileno()
    output = b""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            break
        chunk = os.read(fd, 65536)
        if not chunk:
            break  # the child closed its output: it exited
        output += chunk
        lines = output[:output.rfind(b"\n") + 1]  # complete lines only
        match = re.search(rb"listening on ([\w.\-]+):(\d+)", lines)
        if match:
            return handle(process, match.group(1).decode(), int(match.group(2)))
    process.kill()
    process.wait(timeout=5.0)
    process.stdout.close()
    last = output.decode(errors="replace").strip().splitlines()[-1:]
    raise ReproError(
        f"{what} never became ready within {startup_timeout:g} s "
        f"(last output: {' '.join(last)!r})"
    )
