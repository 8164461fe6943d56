"""Persistent on-disk plan cache: lowering survives process restarts.

`BENCH_compiled_eval.json` made the cost asymmetry stark: lowering a
12.9k-gate circuit costs tens of milliseconds while a warm batched
evaluation costs a fraction of one — yet every process restart, CI job and
fresh ``repro-worker`` host used to pay lowering again. This module keeps
two kinds of entries in one size-bounded directory (the ``plan_cache_dir``
knob of :mod:`repro.config`, or ``REPRO_PLAN_CACHE_DIR``; unset disables
everything):

- ``<fingerprint>.circ`` — a full lowering keyed by a content fingerprint
  of the *arena* (the flat gate mirrors of
  :class:`repro.circuits.circuit.Circuit` plus the output gate), written by
  :func:`repro.circuits.compile_circuit` on a miss and rebuilt without
  running any lowering pass on a hit
  (:meth:`~repro.circuits.compiled.CompiledCircuit._from_arrays`);
- ``<plan_digest>.plan`` — the exact PR-4 wire payload keyed by
  :func:`repro.circuits.distributed.plan_checksum`, written through by
  ``plan_to_bytes`` on the coordinator and by workers when a plan arrives
  over the socket, and consulted by the worker's ``PLAN_OFFER`` handler so
  a freshly spawned worker answers ``PLAN_HAVE`` without ever receiving
  the plan bytes.

Entries are written atomically (temp file + ``os.replace``, so concurrent
writers — a pytest worker and a ``repro serve`` subprocess sharing one
directory — can never expose a torn file), evicted least-recently-used by
mtime once the directory exceeds the ``plan_cache_limit_bytes`` knob, and
*validated* on every load: a corrupt entry (checksum mismatch, truncation,
arrays that fail :func:`repro.circuits.compiled.check_plan_arrays`) is
deleted and treated as a miss, never trusted. The cache is strictly
best-effort — any filesystem error degrades to a miss/no-op, counted in
:func:`stats`, and compilation proceeds as if the cache were off.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
import tempfile

from repro import config
from repro.util import ReproError, check

#: Entry suffixes: full lowerings by arena fingerprint, wire payloads by
#: plan digest.
CIRC_SUFFIX = ".circ"
PLAN_SUFFIX = ".plan"

_STATS = {
    "hits": 0,
    "misses": 0,
    "stores": 0,
    "evictions": 0,
    "corrupt": 0,
    "io_errors": 0,
}

#: Totals folded in by :func:`reset_stats`, mirroring
#: ``compiled.compile_stats(lifetime=True)``.
_LIFETIME = dict.fromkeys(_STATS, 0)


def enabled() -> bool:
    """Whether a cache directory is configured (the ``plan_cache_dir`` knob)."""
    return config.get("plan_cache_dir") is not None


def stats(lifetime: bool = False) -> dict:
    """A snapshot of this process's cache counters.

    With ``lifetime=True`` the counts span the whole process, including
    everything zeroed by intervening :func:`reset_stats` calls.
    """
    if lifetime:
        return {key: _STATS[key] + _LIFETIME[key] for key in _STATS}
    return dict(_STATS)


def reset_stats() -> None:
    """Zero the cache counters (test isolation); totals are kept."""
    for key in _STATS:
        _LIFETIME[key] += _STATS[key]
        _STATS[key] = 0


# Aliases with unambiguous names for re-export from the package root.
plan_cache_stats = stats
reset_plan_cache_stats = reset_stats


# --------------------------------------------------------------------------- #
# keying

def arena_fingerprint(circuit) -> str | None:
    """Content fingerprint of an arena + output: the ``.circ`` cache key.

    Hashes the flat gate mirrors (kind codes, variable slots, CSR inputs),
    the interned variable names, the output gate and the wire version, so
    two processes that build byte-identical arenas — the deterministic
    workload generators — land on the same entry. Returns ``None`` for
    circuits without the flat mirrors (exotic subclasses) or arenas too
    large for the int32 entry encoding.
    """
    kind_codes = getattr(circuit, "_kind_codes", None)
    if kind_codes is None or circuit.output is None:
        return None
    if len(circuit) >= 1 << 31:  # pragma: no cover - int32 entry encoding
        return None
    digest = hashlib.sha256()
    digest.update(b"repro-circ-fp-v1")
    digest.update(sys.byteorder.encode())
    digest.update(struct.pack("<qq", len(circuit), circuit.output))
    for buffer in (
        kind_codes,
        circuit._var_slots,
        circuit._inputs_flat,
        circuit._input_offsets,
    ):
        raw = buffer.tobytes()
        digest.update(struct.pack("<q", len(raw)))
        digest.update(raw)
    names = "\x00".join(circuit._slot_names).encode()
    digest.update(struct.pack("<q", len(names)))
    digest.update(names)
    return digest.hexdigest()[:32]


def _entry_path(name: str, suffix: str) -> str | None:
    directory = config.get("plan_cache_dir")
    if directory is None:
        return None
    return os.path.join(directory, name + suffix)


# --------------------------------------------------------------------------- #
# raw entry I/O

def _read_entry(path: str) -> bytes | None:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return None
    except OSError:
        _STATS["io_errors"] += 1
        return None
    try:
        os.utime(path)  # LRU touch; best-effort
    except OSError:
        pass
    return raw


def _write_entry(path: str, blob: bytes) -> None:
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
    except OSError:
        _STATS["io_errors"] += 1
        return
    _STATS["stores"] += 1
    _evict(directory)


def _drop_corrupt(path: str) -> None:
    _STATS["corrupt"] += 1
    try:
        os.unlink(path)
    except OSError:
        pass


def entries() -> list[tuple[str, int, float]]:
    """``(filename, size, mtime)`` of every cache entry, oldest first."""
    directory = config.get("plan_cache_dir")
    if directory is None:
        return []
    found = []
    try:
        with os.scandir(directory) as it:
            for item in it:
                if not item.name.endswith((CIRC_SUFFIX, PLAN_SUFFIX)):
                    continue
                try:
                    meta = item.stat()
                except OSError:
                    continue
                found.append((item.name, meta.st_size, meta.st_mtime))
    except OSError:
        return []
    found.sort(key=lambda row: (row[2], row[0]))
    return found


def clear() -> int:
    """Delete every cache entry; returns how many were removed."""
    removed = 0
    directory = config.get("plan_cache_dir")
    for name, _size, _mtime in entries():
        try:
            os.unlink(os.path.join(directory, name))
            removed += 1
        except OSError:
            pass
    return removed


def _evict(directory: str) -> None:
    """Drop oldest-mtime entries until the directory fits the size bound."""
    limit = config.get("plan_cache_limit_bytes")
    listing = entries()
    total = sum(size for _name, size, _mtime in listing)
    for name, size, _mtime in listing:
        if total <= limit:
            break
        try:
            os.unlink(os.path.join(directory, name))
        except OSError:
            continue
        total -= size
        _STATS["evictions"] += 1


# --------------------------------------------------------------------------- #
# full lowerings (.circ)

def load_compiled(circuit, fingerprint: str):
    """Rebuild a :class:`CompiledCircuit` from a ``.circ`` entry, or ``None``.

    The entry must decode (checksummed blob), belong to this fingerprint,
    and pass the full structural validation of
    :meth:`CompiledCircuit._from_arrays`; anything less deletes the entry
    and reports a miss.
    """
    path = _entry_path(fingerprint, CIRC_SUFFIX)
    if path is None:
        return None
    raw = _read_entry(path)
    if raw is None:
        _STATS["misses"] += 1
        return None
    from repro.circuits import distributed
    from repro.circuits.compiled import CompiledCircuit

    try:
        meta, sections = distributed._unpack_blob(raw, arrays=True)
        check(meta.get("kind") == "circ", "not a cached lowering")
        check(
            meta.get("fingerprint") == fingerprint,
            "cached lowering fingerprint mismatch",
        )
        var_names = meta.get("var_names")
        check(
            isinstance(var_names, list)
            and all(isinstance(name, str) for name in var_names),
            "cached lowering variable names are damaged",
        )
        compiled = CompiledCircuit._from_arrays(
            circuit,
            size=int(meta["size"]),
            kinds=sections["kinds"],
            offsets=sections["offsets"],
            indices=sections["indices"],
            var_slot=sections["var_slot"],
            var_names=var_names,
            levels=sections["levels"],
            gate_ids=sections["gate_ids"],
            output=int(meta["output"]),
        )
    except (ReproError, KeyError, ValueError, TypeError, OverflowError):
        _drop_corrupt(path)
        _STATS["misses"] += 1
        return None
    _STATS["hits"] += 1
    return compiled


def store_compiled(compiled, fingerprint: str) -> None:
    """Write one lowering as a ``.circ`` entry (atomic, best-effort)."""
    path = _entry_path(fingerprint, CIRC_SUFFIX)
    if path is None:
        return
    from repro.circuits import distributed

    arrays = compiled._np32
    blob = distributed._pack_blob(
        {
            "kind": "circ",
            "fingerprint": fingerprint,
            "size": compiled.size,
            "output": compiled.output,
            "n_vars": len(compiled.var_names),
            "var_names": list(compiled.var_names),
        },
        [
            ("kinds", "i", arrays[0] if arrays is not None else compiled.kinds),
            ("offsets", "i", arrays[1] if arrays is not None else compiled.offsets),
            ("indices", "i", arrays[2] if arrays is not None else compiled.indices),
            ("var_slot", "i", arrays[3] if arrays is not None else compiled.var_slot),
            ("levels", "i", compiled.levels_array()),
            ("gate_ids", "i", list(compiled.gate_ids)),
        ],
    )
    _write_entry(path, blob)


# --------------------------------------------------------------------------- #
# wire payloads (.plan)

def load_plan_blob(digest: str) -> bytes | None:
    """The exact wire payload stored under ``digest``, or ``None``.

    Verifies the content digest against the bytes before returning them —
    the same identity the distributed ``PLAN_OFFER`` handshake trusts — so
    a torn or tampered entry deletes itself and misses.
    """
    path = _entry_path(digest, PLAN_SUFFIX)
    if path is None:
        return None
    raw = _read_entry(path)
    if raw is None:
        _STATS["misses"] += 1
        return None
    from repro.circuits import distributed

    if distributed.plan_checksum(raw) != digest:
        _drop_corrupt(path)
        _STATS["misses"] += 1
        return None
    _STATS["hits"] += 1
    return raw


def store_plan_blob(digest: str, blob: bytes) -> None:
    """Write one wire payload as a ``.plan`` entry (atomic, best-effort)."""
    path = _entry_path(digest, PLAN_SUFFIX)
    if path is not None:
        _write_entry(path, blob)


def has_plan(digest: str) -> bool:
    """Whether a wire payload for ``digest`` is on disk — existence only.

    No read, no validation, no LRU touch: the query service reports its
    write-through state with this without perturbing the cache (a corrupt
    entry still answers ``True`` here and is caught by
    :func:`load_plan_blob`'s checksum on the first real load).
    """
    path = _entry_path(digest, PLAN_SUFFIX)
    if path is None:
        return False
    try:
        return os.path.exists(path)
    except OSError:  # pragma: no cover - exotic filesystem failure
        return False
