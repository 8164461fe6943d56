"""One registry for every process-wide knob.

Each knob is declared once, in the table below: its default, the
``REPRO_*`` variable that sets it and the parser for that variable, the
check a configured value must pass, and the override currently
installed. The modules that act on a knob keep no copy of it; they read
it with :func:`get` when they need it. :func:`configure` sets any number
of knobs by name, :func:`overrides` scopes them, and :func:`describe`
lists them all with their current values.

>>> from repro import config
>>> config.configure(engine="message_passing", parallel_workers=0)
>>> with config.overrides(instance_backend="columnar", pipeline_depth=4):
...     ...                                        # scoped; restored on exit

One rule resolves every knob. An installed override wins. With none,
:func:`get` parses the knob's variable when the knob is read, so a
variable changed later is seen; an unset variable means the default.
:func:`overrides` restores the override state it found, "no override"
included. A malformed configured value is refused with a
:class:`~repro.util.ReproError` naming the knob, before any knob
changes; a malformed variable is refused naming the variable, when its
knob is read.

This module imports no subsystem at module scope, so ``import
repro.config`` stays cheap. The one check that needs one (the engine
registry) imports it when its knob is set. The transport knobs
(``distributed_secret``, ``distributed_tls``) are plain values:
:func:`repro.circuits.distributed.provider_from_knobs` builds the auth
provider from them when a connection needs it.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Mapping
from contextlib import contextmanager
from typing import Any, Callable, NamedTuple

from repro.util import ReproError, check, parse_hostport

__all__ = ["Knob", "configure", "describe", "get", "knobs", "overrides"]

#: The instance backends :func:`repro.instances.make_instance` builds.
INSTANCE_BACKENDS = ("object", "columnar")

#: The keys of the ``distributed_tls`` knob's dict.
_TLS_KEYS = ("certfile", "keyfile", "cafile")

# The stored state of a knob with no override installed; ``accept``
# returns it for a ``None`` that means "follow the environment" (the
# instance backend).
_UNSET = object()


class Knob(NamedTuple):
    """One registered knob.

    ``accept`` checks and normalizes a configured value; ``parse`` turns
    the text of the ``env`` variable into a value. ``default`` is the
    value when no override is installed and the variable is unset — or,
    for the TLS knob, which reads its three variables together, a
    function returning it.
    """

    name: str
    doc: str
    default: Any
    accept: Callable[[Any], Any]
    env: str | None = None
    parse: Callable[[str], Any] | None = None

    def unset_value(self) -> Any:
        """The value with no override installed."""
        if self.parse is not None:
            text = os.environ.get(self.env, "")
            if text.strip():
                try:
                    return self.parse(text)
                except ReproError as exc:
                    raise ReproError(f"{self.env}={text!r}: {exc}") from None
        return self.default() if callable(self.default) else self.default


# --------------------------------------------------------------------------- #
# checks and parsers

def _int(value: Any) -> int:
    check(
        isinstance(value, int) and not isinstance(value, bool),
        f"expected an int, got {value!r}",
    )
    return value


def _count(value: Any) -> int:
    check(_int(value) >= 0, f"must be non-negative, got {value}")
    return value


def _engine(value: Any) -> str:
    from repro.circuits.evaluation import available_engines

    known = available_engines()
    check(value in known, f"unknown engine {value!r}; available: {', '.join(known)}")
    return value


def _backend(value: Any) -> Any:
    if value is None:
        return _UNSET
    check(value in INSTANCE_BACKENDS, f"expected one of {INSTANCE_BACKENDS}")
    return value


def _parse_workers(text: str) -> int:
    text = text.strip().lower()
    if text == "auto":
        return os.cpu_count() or 1
    try:
        return max(0, int(text))
    except ValueError:
        return 0


def _hosts(value: Any) -> tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        value = [part for part in value.replace(";", ",").split(",") if part.strip()]
    check(
        isinstance(value, Iterable),
        "expected a host:port string or an iterable of them",
    )
    specs = tuple(value)
    for spec in specs:
        check(isinstance(spec, str), f"host {spec!r} is not a string")
        parse_hostport(spec)
    return tuple(spec.strip() for spec in specs)


def _parse_hosts(text: str) -> tuple[str, ...]:
    try:
        return _hosts(text)
    except ReproError:
        return ()  # one malformed entry disables the knob rather than half-working


def _secret(value: Any) -> str | None:
    check(value is None or isinstance(value, str), "expected a string")
    return value or None


def _tls(value: Any) -> dict | None:
    if value is None:
        return None
    check(isinstance(value, Mapping), f"expected a dict with keys {_TLS_KEYS}")
    unknown = [key for key in value if key not in _TLS_KEYS]
    check(not unknown, f"unknown key(s) {unknown}; expected {_TLS_KEYS}")
    if not (value.get("certfile") or value.get("cafile")):
        return None
    return {key: str(value[key]) if value.get(key) else None for key in _TLS_KEYS}


def _tls_from_environment() -> dict | None:
    return _tls({
        "certfile": os.environ.get("REPRO_DISTRIBUTED_TLS_CERT"),
        "keyfile": os.environ.get("REPRO_DISTRIBUTED_TLS_KEY"),
        "cafile": os.environ.get("REPRO_DISTRIBUTED_TLS_CA"),
    })


# Task frames kept in flight per pooled worker connection by default.
# Depth 1 is the lockstep send→wait protocol; anything higher lets shard
# N+1 cross the wire while shard N computes.
_PIPELINE_DEPTH = 4


def _depth(value: Any) -> int:
    return _PIPELINE_DEPTH if value is None else max(1, _int(value))


def _parse_depth(text: str) -> int:
    try:
        return max(1, int(text))
    except ValueError:
        return _PIPELINE_DEPTH


# --------------------------------------------------------------------------- #
# the registry

_KNOBS: dict[str, Knob] = {
    knob.name: knob
    for knob in (
        Knob(
            "engine",
            "Default probability engine when a call names none.",
            "message_passing",
            _engine,
        ),
        Knob(
            "forced_engine",
            "Engine override trumping every per-call choice (None = off).",
            None,
            lambda value: None if value is None else _engine(value),
        ),
        Knob(
            "instance_backend",
            "Default instance backend for make_instance and the generators "
            "(None = follow the environment).",
            "object",
            _backend,
            "REPRO_INSTANCE_BACKEND",
            lambda text: _backend(text.strip()),
        ),
        Knob(
            "parallel_workers",
            "Local worker processes for sharded batch evaluation (0 = serial; "
            "the variable also takes 'auto').",
            0,
            lambda value: 0 if value is None else _count(value),
            "REPRO_PARALLEL_WORKERS",
            _parse_workers,
        ),
        Knob(
            "distributed_hosts",
            "Remote worker host:port list (empty = stay local).",
            (),
            _hosts,
            "REPRO_DISTRIBUTED_HOSTS",
            _parse_hosts,
        ),
        Knob(
            "distributed_secret",
            "Shared HMAC worker-auth secret (None = unauthenticated).",
            None,
            _secret,
            "REPRO_DISTRIBUTED_SECRET",
            _secret,
        ),
        Knob(
            "distributed_tls",
            "TLS knob dict (certfile/keyfile/cafile; None = off).",
            _tls_from_environment,
            _tls,
            "REPRO_DISTRIBUTED_TLS_*",
        ),
        Knob(
            "pipeline_depth",
            "Task frames kept in flight per worker connection (1 = lockstep).",
            _PIPELINE_DEPTH,
            _depth,
            "REPRO_DISTRIBUTED_PIPELINE",
            _parse_depth,
        ),
    )
}

_OVERRIDES: dict[str, Any] = {}


def knobs() -> tuple[str, ...]:
    """All registered knob names, sorted."""
    return tuple(sorted(_KNOBS))


def _knob(name: str) -> Knob:
    knob = _KNOBS.get(name)
    if knob is None:
        known = ", ".join(sorted(_KNOBS))
        raise ReproError(f"unknown knob {name!r}; known knobs: {known}")
    return knob


def get(name: str) -> Any:
    """The effective value of one knob: its override, else its variable."""
    value = _OVERRIDES.get(name, _UNSET)
    return _knob(name).unset_value() if value is _UNSET else value


def describe() -> dict[str, dict[str, Any]]:
    """Every knob with its current value, docstring, and variable."""
    return {
        name: {"value": get(name), "doc": knob.doc, "env": knob.env}
        for name, knob in sorted(_KNOBS.items())
    }


def _install(state: dict[str, Any]) -> None:
    for name, value in state.items():
        if value is _UNSET:
            _OVERRIDES.pop(name, None)
        else:
            _OVERRIDES[name] = value


def configure(**values: Any) -> None:
    """Set any number of knobs by name: ``configure(engine="dd", ...)``.

    Every value is checked before any is installed, so a refused call
    leaves every knob as it was.
    """
    state = {}
    for name, value in values.items():
        knob = _knob(name)
        try:
            state[name] = knob.accept(value)
        except ReproError as exc:
            raise ReproError(f"{name}={value!r}: {exc}") from None
    _install(state)


@contextmanager
def overrides(**values: Any):
    """Scope any number of knob changes, restoring the prior state on exit::

        with config.overrides(engine="shannon", parallel_workers=2):
            ...

    A knob that had no override before has none again afterwards, so its
    variable is read afresh.
    """
    previous = {name: _OVERRIDES.get(name, _UNSET) for name in values}
    configure(**values)  # refuses an unknown name before anything changes
    try:
        yield
    finally:
        _install(previous)
