"""Distributed shard execution over wire-serialized circuit plans: stage 5.

The sharded worker pool (:mod:`repro.circuits.parallel`, fourth stage) is
bounded by one machine. This module fans the *same* deterministic shards out
over TCP so any number of hosts can chew on one batch or Monte-Carlo run:

- **Wire format** — :func:`plan_to_bytes` / :func:`plan_from_bytes` pack a
  compiled circuit's int32 CSR buffers, its level schedule, and the metadata
  a worker needs (``size``/``output``/``n_vars``) into a self-describing,
  versioned, CRC-checksummed binary blob (layout table in
  ``ARCHITECTURE.md``). Corrupted, truncated, or wrong-version payloads are
  rejected with :class:`~repro.util.ReproError` before any evaluation can
  happen.
- **Protocol** — length-prefixed frames over TCP (``uint32`` length, one
  message-kind byte, a JSON header, a binary blob). A coordinator publishes
  the plan (and, for Karp–Luby, the witness tables) **once per connection**,
  then streams tiny shard descriptors; workers answer with hit counts or
  output slices. :class:`WorkerServer` is the worker side; the CLI exposes
  it as ``repro-worker serve`` / ``python -m repro serve``.
- **Persistent runtime** — a module-level :class:`HostPool` owns one
  authenticated TCP connection per worker host, kept open **across**
  ``evaluate_batch``/``probability_batch``/sampling calls on a dedicated
  event-loop thread. Plans cross the wire at most once per worker per
  circuit: the coordinator offers a content digest first
  (``PLAN_OFFER`` → ``PLAN_HAVE``/``PLAN_NEED``) and ships the blob only
  on ``PLAN_NEED``. Shard dispatch is a **work-stealing queue**: an idle
  connection pulls the next ``(seed, shard_index, count)`` descriptor, and
  when the queue runs dry it re-runs descriptors still in flight on slower
  hosts, so one slow host never gates the merge — determinism is
  untouched because a shard's content depends only on its descriptor and
  results merge keyed by shard id (first answer wins). Idle connections
  are health-checked with a ``PING`` heartbeat before reuse and
  transparently reconnected, so a bounced worker rejoins the pool (and is
  re-sent any plan it lost). **A shard is retried on worker disconnect**
  (on another worker, or locally when none remain), exactly as before.
- **Auth + transport security** — a pluggable :class:`AuthProvider` seam.
  Shared-secret authentication (a worker started with ``repro serve
  --secret …`` or ``REPRO_DISTRIBUTED_SECRET`` embeds a random challenge
  in its ``HELLO`` and requires an HMAC-SHA256 response) remains one
  provider; :class:`TLSAuth` wraps every socket in TLS — mutual TLS when
  a CA bundle demands client certificates — configured by ``repro serve
  --tls-cert/--tls-key/--tls-ca`` and the ``distributed_tls`` knob
  (``REPRO_DISTRIBUTED_TLS_*``), with a plaintext retry only when
  explicitly allowed (``REPRO_DISTRIBUTED_TLS_ALLOW_PLAINTEXT``).
- **Capability handshake + pipelining + elastic membership** — ``HELLO``
  carries a capability set (:data:`PROTOCOL_CAPS`) and peers restrict
  themselves to the intersection, so mixed worker versions keep serving
  each other (only an empty intersection rejects). Connections whose
  worker negotiated ``pipeline`` keep ``pipeline_depth`` task frames
  in flight with out-of-order RESULT correlation by shard id — shard N+1
  crosses the wire while shard N computes. Workers may also dial *in*:
  ``repro serve --register host:port`` REGISTERs with the coordinator's
  registry (``REPRO_DISTRIBUTED_REGISTRY_BIND`` / :func:`start_registry`)
  and joins the default host list until its registration link drops —
  an autoscaler adds and drains hosts mid-run with no static config.

Knobs: ``hosts=`` on the entry points (and on the sampling baselines),
defaulting to the process-wide ``distributed_hosts`` knob (set with
``config.configure``/``config.overrides`` of :mod:`repro.config`, the
``REPRO_DISTRIBUTED_HOSTS`` environment variable — a comma-separated
``host:port`` list — or the CLI ``--hosts`` flag). The transport knobs
(``distributed_secret``, ``distributed_tls``, ``auth_provider``,
``pipeline_depth``) live in the same registry; this module keeps none of
them, and reads them when it connects. An empty host list means
"stay local": every entry point then defers to the worker pool / in-process
kernels, so the five execution tiers degrade gracefully top to bottom.
Unreachable hosts are warned about once per process and skipped; a run
whose every worker dies still completes locally with identical results.
:func:`pool_stats` exposes the runtime's counters (connects, reconnects,
digest hits, plans published, steals, hosts skipped for a missing
capability, per-host task counts);
:func:`reset_pool` drops the persistent connections (the per-call baseline
benchmarks measure against).
"""

from __future__ import annotations

import asyncio
import atexit
import hashlib
import hmac as hmac_module
import json
import os
import secrets as secrets_module
import ssl
import struct
import threading
import warnings
import zlib
from collections import deque

import numpy as np

from repro import config
from repro.circuits import compiled as _compiled
from repro.circuits import parallel as _parallel
from repro.util import ReproError, check, parse_hostport
from repro.util.helpers import spawn_until_ready

# --------------------------------------------------------------------------- #
# wire format: versioned, checksummed plan serialization

#: Magic bytes opening every wire blob (``R``\ epro ``C``\ ircuit ``P``\ lan).
WIRE_MAGIC = b"RCP1"

#: Version of the wire layout; bumped on any incompatible change.
WIRE_VERSION = 1

#: Version of the *connection* protocol, carried in HELLO and checked by
#: the coordinator — distinct from the blob layout version above so either
#: can move alone. Bumped to 2 when the digest handshake (PLAN_OFFER /
#: PLAN_HAVE / PLAN_NEED) and the AUTH challenge became part of every
#: conversation: a version-1 peer would not merely miss features, it would
#: drop the connection on the first unknown frame, so mismatches must fail
#: loudly at hello time instead. From there on the int is frozen: new
#: features negotiate through the capability set below instead of another
#: bump, so mixed worker versions keep serving each other.
PROTOCOL_VERSION = 2

#: What a plain version-2 peer can do. A HELLO without a ``caps`` entry
#: (an older build) is assumed to speak exactly this set — the behaviours
#: the version-2 protocol already required.
V2_BASELINE_CAPS = frozenset({"mc", "kl", "eval", "ping", "plan-offer"})

#: The Monte-Carlo stream this build's ``mc`` shards draw: the lazy
#: bit-sliced comparison of :func:`repro.circuits.parallel._mc_shard_hits`.
#: Older builds answered ``mc`` from a float32 stream, so a coordinator
#: sends Monte-Carlo shards only to workers that negotiated this
#: capability; summing hits from two streams would match neither. The
#: other direction is guarded too: each ``mc`` task names this stream in
#: its ``stream`` field, and a worker refuses a task that names none (an
#: older coordinator) or another one, so that coordinator falls back to
#: its own local stream.
MC_STREAM_CAP = "mc-lazy24"

#: Everything this build speaks. HELLO carries ``sorted(PROTOCOL_CAPS)``
#: and each side restricts itself to the *intersection* with its peer's
#: set: a worker missing ``pipeline`` is simply driven lockstep, one
#: missing :data:`MC_STREAM_CAP` takes no Monte-Carlo shards, a
#: coordinator that never registers ignores ``register``, and only an
#: empty intersection is a hard handshake failure. ``caps`` itself is
#: advertised so peers can tell "negotiated baseline" from "legacy hello".
PROTOCOL_CAPS = V2_BASELINE_CAPS | frozenset(
    {"caps", "pipeline", "register", MC_STREAM_CAP}
)


def negotiate_caps(meta: dict, peer: str) -> frozenset:
    """The capability set shared with a peer, from its HELLO metadata.

    A hello without ``caps`` must carry the exact legacy version int (the
    old all-or-nothing check) and grants :data:`V2_BASELINE_CAPS`. With
    ``caps`` present the version int is advisory and the intersection with
    :data:`PROTOCOL_CAPS` decides; an empty intersection — nothing both
    sides can do — is the only remaining hard rejection.
    """
    advertised = meta.get("caps")
    if advertised is None:
        if meta.get("version") != PROTOCOL_VERSION:
            raise ReproError(
                f"peer {peer} speaks protocol {meta.get('version')!r} with no "
                f"capability set, not {PROTOCOL_VERSION}"
            )
        return V2_BASELINE_CAPS
    shared = PROTOCOL_CAPS & frozenset(str(cap) for cap in advertised)
    if not (shared - {"caps"}):
        raise ReproError(
            f"peer {peer} shares no protocol capabilities with this build "
            f"(it offered {sorted(str(c) for c in advertised)!r})"
        )
    return shared

#: Fixed wire header: magic, version, flags, crc32(meta+payload), meta
#: length, payload length — little-endian, 24 bytes.
_HEADER = struct.Struct("<4sHHIIQ")

#: Section type codes: ``i`` int32, ``f`` float32, ``d`` float64.
_DTYPES = {"i": ("<i4", 4), "f": ("<f4", 4), "d": ("<f8", 8)}

#: Hard cap on a single protocol frame / wire blob (guards a corrupt length
#: prefix from allocating unbounded memory).
MAX_FRAME_BYTES = 1 << 31


def _values_to_bytes(typecode: str, values) -> bytes:
    """Little-endian bytes of a flat numeric sequence."""
    dtype = _DTYPES[typecode][0]
    return np.ascontiguousarray(values, dtype=dtype).reshape(-1).tobytes()


def _values_from_bytes(typecode: str, raw):
    """Inverse of :func:`_values_to_bytes`: a read-only array over ``raw``."""
    dtype, itemsize = _DTYPES[typecode]
    check(len(raw) % itemsize == 0, "wire section length is not a whole item count")
    return np.frombuffer(raw, dtype=dtype)


def _pack_blob(meta: dict, sections: list[tuple[str, str, object]]) -> bytes:
    """Pack named numeric sections + JSON metadata into one checksummed blob.

    ``sections`` is ``[(name, typecode, values), ...]``; the JSON header
    gains a ``sections`` entry of ``[name, typecode, offset, nbytes]`` rows
    so the blob is self-describing — a reader needs nothing but this module.
    The JSON header is padded with spaces so the payload starts at a
    multiple of 8 bytes, and zero bytes put every section at a multiple of
    8 in the payload: a decoded section is an aligned array over the blob.
    Readers locate sections by offset, so unpadded blobs decode too.
    """
    payload_parts: list[bytes] = []
    directory = []
    offset = 0
    for name, typecode, values in sections:
        raw = _values_to_bytes(typecode, values)
        pad = -offset % 8
        directory.append([name, typecode, offset + pad, len(raw)])
        payload_parts += [bytes(pad), raw]
        offset += pad + len(raw)
    payload = b"".join(payload_parts)
    meta = dict(meta, sections=directory)
    meta_bytes = json.dumps(meta, separators=(",", ":"), sort_keys=True).encode()
    meta_bytes += b" " * (-(_HEADER.size + len(meta_bytes)) % 8)
    crc = zlib.crc32(payload, zlib.crc32(meta_bytes)) & 0xFFFFFFFF
    header = _HEADER.pack(
        WIRE_MAGIC, WIRE_VERSION, 0, crc, len(meta_bytes), len(payload)
    )
    return header + meta_bytes + payload


def _unpack_blob(data: bytes) -> tuple[dict, dict]:
    """Validate and unpack a :func:`_pack_blob` blob; raises on any damage."""
    check(isinstance(data, (bytes, bytearray, memoryview)), "wire payload must be bytes")
    data = bytes(data)
    check(
        len(data) >= _HEADER.size,
        f"wire payload truncated: {len(data)} bytes is shorter than the header",
    )
    magic, version, _flags, crc, meta_len, payload_len = _HEADER.unpack_from(data)
    check(magic == WIRE_MAGIC, f"not a circuit-plan wire payload (magic {magic!r})")
    check(
        version == WIRE_VERSION,
        f"unsupported wire version {version} (this build speaks {WIRE_VERSION})",
    )
    expected = _HEADER.size + meta_len + payload_len
    check(
        len(data) == expected,
        f"wire payload truncated or padded: expected {expected} bytes, got {len(data)}",
    )
    meta_bytes = data[_HEADER.size : _HEADER.size + meta_len]
    # A view, so each section's array reads the blob in place.
    payload = memoryview(data)[_HEADER.size + meta_len :]
    actual = zlib.crc32(payload, zlib.crc32(meta_bytes)) & 0xFFFFFFFF
    check(actual == crc, "wire payload corrupt: checksum mismatch")
    try:
        meta = json.loads(meta_bytes)
    except ValueError as exc:  # pragma: no cover - crc catches random damage
        raise ReproError(f"wire metadata is not valid JSON: {exc}") from None
    out: dict[str, np.ndarray] = {}
    for name, typecode, offset, nbytes in meta.pop("sections"):
        check(typecode in _DTYPES, f"unknown wire section type {typecode!r}")
        check(
            0 <= offset and offset + nbytes <= len(payload),
            f"wire section {name!r} overruns the payload",
        )
        out[name] = _values_from_bytes(typecode, payload[offset : offset + nbytes])
    return meta, out


def plan_to_bytes(compiled) -> bytes:
    """Serialize a compiled circuit's batch plan to the versioned wire format.

    Packs the four int32 CSR buffers, the per-gate level schedule
    (:func:`repro.circuits.compiled.gate_levels`, which the receiver
    re-verifies against the CSR arrays and then groups its batch plan
    by), and the ``size``/``output``/``n_vars`` metadata. The result is
    cached on the compiled circuit, so repeated connections reuse one
    encoding.
    """
    compiled = _compiled.compile_circuit(compiled)
    cached = compiled._wire_cache
    if cached is None:
        kinds, offsets, indices, var_slot = compiled._int32_arrays()
        cached = _pack_blob(
            {
                "kind": "plan",
                "size": compiled.size,
                "output": compiled.output,
                "n_vars": len(compiled.var_names),
            },
            [
                ("kinds", "i", kinds),
                ("offsets", "i", offsets),
                ("indices", "i", indices),
                ("var_slot", "i", var_slot),
                ("levels", "i", compiled.levels_array()),
            ],
        )
        compiled._wire_cache = cached
        if compiled._wire_digest is None:
            compiled._wire_digest = plan_checksum(cached)
    return cached


def plan_checksum(plan_bytes: bytes) -> str:
    """Content digest of a wire payload (workers cache decoded plans by it).

    SHA-256 over the exact bytes, truncated to 128 bits of hex — strong
    enough that the ``PLAN_HAVE``/``PLAN_NEED`` handshake can treat digest
    equality as payload equality (the CRC in the header only guards
    transport damage, not cache identity).
    """
    return hashlib.sha256(plan_bytes).hexdigest()[:32]


class WirePlan:
    """A circuit plan decoded from the wire, ready to evaluate shards.

    Holds the CSR arrays and the level schedule as read-only int32 arrays
    over the payload and lowers them to the level-scheduled
    :class:`~repro.circuits.compiled._BatchPlan` on first use. The level
    schedule shipped in the payload is re-verified against the CSR arrays
    on construction, and the batch plan groups by it — a plan that decodes
    is a plan that evaluates.
    """

    __slots__ = ("size", "output", "n_vars", "kinds", "offsets", "indices",
                 "var_slot", "levels", "_plan")

    def __init__(self, meta: dict, sections: dict[str, np.ndarray]):
        self.size = int(meta["size"])
        self.output = int(meta["output"])
        self.n_vars = int(meta["n_vars"])
        for name in ("kinds", "offsets", "indices", "var_slot", "levels"):
            check(name in sections, f"wire plan is missing the {name!r} section")
            setattr(self, name, sections[name])
        self._validate()
        self._plan = None

    def _validate(self) -> None:
        size = self.size
        check(
            len(self.levels) == size,
            "wire plan sections disagree about the gate count",
        )
        _compiled.check_plan_arrays(
            size=size, kinds=self.kinds, offsets=self.offsets,
            indices=self.indices, var_slot=self.var_slot,
            n_vars=self.n_vars, output=self.output,
        )
        check(
            _compiled.levels_consistent(
                self.kinds, self.offsets, self.indices, self.levels
            ),
            "wire plan corrupt: level schedule does not match the CSR arrays",
        )

    # -- evaluation ------------------------------------------------------- #

    def batch_plan(self):
        """The level-scheduled numpy plan, built once."""
        if self._plan is None:
            self._plan = _compiled._BatchPlan(
                self.kinds, self.offsets, self.indices, self.var_slot,
                self.levels, self.output,
            )
        return self._plan

    def run_rows(self, rows, as_float: bool) -> list:
        """Evaluate an iterable of slot-value rows, one output per row."""
        rows = [list(row) for row in rows]  # copies rows drawn from shared buffers
        dtype = np.float64 if as_float else np.bool_
        matrix = np.asarray(rows, dtype=dtype)
        if matrix.ndim != 2:  # empty batch, or zero-variable circuit
            matrix = matrix.reshape(len(rows), self.n_vars)
        out = np.empty(matrix.shape[0], dtype=dtype)
        self.batch_plan().run_into(matrix, out, as_float)
        return out.tolist()

    def mc_shard_hits(self, probs, seed: int, index: int, count: int) -> int:
        """Hit count of one deterministic ``(seed, index, count)`` MC shard.

        Exactly :func:`repro.circuits.parallel._mc_shard_hits` on the
        decoded plan — bit-identical to the in-process and pool paths.
        The probabilities, seed and count come off the wire, so they are
        checked first: one probability per variable slot, a non-negative
        int seed, a positive int count.
        """
        probs32 = _parallel.mc_marginals(probs, self.n_vars)
        seed = _parallel.check_sampling(count, seed)
        return _parallel._mc_shard_hits(
            self.batch_plan(), probs32, seed, index, count
        )


def plan_from_bytes(data: bytes) -> WirePlan:
    """Decode, verify and lower a :func:`plan_to_bytes` payload.

    Raises :class:`~repro.util.ReproError` for anything that is not a
    byte-exact, current-version plan: wrong magic, unsupported version,
    truncation, checksum mismatch, or internally inconsistent sections
    (including a level schedule that disagrees with the CSR arrays).
    """
    meta, sections = _unpack_blob(data)
    check(meta.get("kind") == "plan", "wire payload is not a circuit plan")
    return WirePlan(meta, sections)


def _tables_to_bytes(membership, probs, cumulative, total_weight):
    """Pack Karp–Luby witness tables with the same framing as plans."""
    n_witnesses, n_facts = membership.shape
    return _pack_blob(
        {
            "kind": "tables",
            "n_witnesses": n_witnesses,
            "n_facts": n_facts,
            "total_weight": float(total_weight),
        },
        [
            ("membership", "i", membership),
            ("probs", "d", probs),
            ("cumulative", "d", cumulative),
        ],
    )


class WireTables:
    """Decoded Karp–Luby witness tables (membership matrix + weights)."""

    __slots__ = ("n_witnesses", "n_facts", "total_weight", "membership",
                 "probs", "cumulative")

    def __init__(self, meta: dict, sections: dict[str, np.ndarray]):
        self.n_witnesses = int(meta["n_witnesses"])
        self.n_facts = int(meta["n_facts"])
        self.total_weight = float(meta["total_weight"])
        check(
            len(sections["membership"]) == self.n_witnesses * self.n_facts
            and len(sections["probs"]) == self.n_facts
            and len(sections["cumulative"]) == self.n_witnesses,
            "wire tables sections disagree about their shape",
        )
        self.membership = sections["membership"].reshape(
            self.n_witnesses, self.n_facts
        )
        self.probs = sections["probs"]
        self.cumulative = sections["cumulative"]

    def kl_shard_hits(self, seed: int, index: int, count: int) -> int:
        return _parallel._kl_shard_hits(
            self.membership,
            self.probs,
            self.cumulative,
            self.total_weight,
            seed,
            index,
            count,
        )


def tables_from_bytes(data: bytes) -> WireTables:
    meta, sections = _unpack_blob(data)
    check(meta.get("kind") == "tables", "wire payload is not a witness table set")
    return WireTables(meta, sections)


# --------------------------------------------------------------------------- #
# routing

def effective_hosts(hosts) -> tuple[str, ...]:
    """Resolve a per-call ``hosts`` argument against the process-wide knob.

    ``None`` defers to the ``distributed_hosts`` knob *plus* any workers that
    REGISTERed with this coordinator's registry (static list first,
    deduplicated); an explicit empty list (or ``()``) forces local
    execution regardless of the knob, and an explicit list is taken
    verbatim — elastic members only ever extend the default.
    """
    if hosts is None:
        static = config.get("distributed_hosts")
        elastic = registered_hosts()
        if elastic:
            return tuple(dict.fromkeys(static + elastic))
        return static
    if isinstance(hosts, str):
        hosts = [part for part in hosts.replace(";", ",").split(",") if part.strip()]
    return tuple(str(spec).strip() for spec in hosts)


def should_distribute(n_rows: int, hosts=None) -> bool:
    """Whether a matrix batch of ``n_rows`` should go over the wire."""
    return bool(effective_hosts(hosts)) and n_rows >= _parallel.PARALLEL_MIN_ROWS


def auth_response(secret: str, challenge_hex: str) -> str:
    """The HMAC-SHA256 answer to a worker's hello challenge.

    The worker sends a random ``challenge`` (hex) in its ``HELLO``; the
    coordinator must reply with ``HMAC(secret, challenge_bytes)`` before
    anything else. Challenge-response keeps the secret itself off the wire
    and makes every handshake transcript single-use.
    """
    return hmac_module.new(
        secret.encode(), bytes.fromhex(challenge_hex), hashlib.sha256
    ).hexdigest()


# --------------------------------------------------------------------------- #
# transport security: the pluggable AuthProvider seam

class AuthProvider:
    """How a coordinator secures (and authenticates) worker connections.

    The base class is the plaintext provider: no transport encryption, and
    worker challenges answered with the process-wide
    ``distributed_secret`` knob. Subclasses override any of the three
    seams — :meth:`client_ssl` / :meth:`server_ssl` for transport
    contexts, :meth:`secret` for the challenge-response credential — so
    HMAC, TLS, mTLS, or a custom backend all plug into the same
    :class:`HostPool` without it knowing which is active.
    """

    name = "plaintext"

    def client_ssl(self) -> ssl.SSLContext | None:
        """Context for dialing out (coordinator→worker); ``None`` = plaintext."""
        return None

    def server_ssl(self) -> ssl.SSLContext | None:
        """Context for listening (the registration endpoint); ``None`` = plaintext."""
        return None

    def secret(self) -> str | None:
        """The shared secret used to answer HMAC challenges, if any."""
        return config.get("distributed_secret")

    def plaintext_fallback(self) -> bool:
        """Whether a failed TLS handshake may retry in plaintext (opt-in)."""
        return False


class HMACAuth(AuthProvider):
    """Shared-secret challenge-response only (the pre-TLS behaviour)."""

    name = "hmac"

    def __init__(self, secret: str | None = None):
        self._secret = str(secret) if secret else None

    def secret(self) -> str | None:
        return self._secret if self._secret is not None else super().secret()


class TLSAuth(AuthProvider):
    """TLS transport security, optionally mutual, on top of the HMAC layer.

    ``certfile``/``keyfile`` are this endpoint's own certificate — a
    worker's server certificate, or the coordinator's *client* certificate
    when the fleet requires mutual TLS. ``cafile`` is the bundle the peer
    is verified against: a coordinator needs it to trust workers; a worker
    that sets it demands (and verifies) client certificates, turning the
    link into mTLS. Hostname/IP checking stays on — certificates must name
    the address they serve. ``allow_plaintext`` opts into a one-shot
    plaintext retry when the peer does not speak TLS at all (never when
    certificate *verification* fails).
    """

    def __init__(self, certfile: str | None = None, keyfile: str | None = None,
                 cafile: str | None = None, *, secret: str | None = None,
                 allow_plaintext: bool = False):
        self.certfile = str(certfile) if certfile else None
        self.keyfile = str(keyfile) if keyfile else None
        self.cafile = str(cafile) if cafile else None
        self._secret = str(secret) if secret else None
        self._allow_plaintext = bool(allow_plaintext)
        self._client_ctx: ssl.SSLContext | None = None
        self._server_ctx: ssl.SSLContext | None = None

    @property
    def name(self) -> str:  # type: ignore[override]
        return "mtls" if (self.cafile and self.certfile) else "tls"

    def client_ssl(self) -> ssl.SSLContext | None:
        if self._client_ctx is None:
            check(
                self.cafile is not None,
                "TLS coordinator needs a CA bundle to verify workers "
                "(REPRO_DISTRIBUTED_TLS_CA)",
            )
            context = ssl.create_default_context(
                ssl.Purpose.SERVER_AUTH, cafile=self.cafile
            )
            if self.certfile:  # present a client certificate for mTLS peers
                context.load_cert_chain(self.certfile, self.keyfile)
            self._client_ctx = context
        return self._client_ctx

    def server_ssl(self) -> ssl.SSLContext | None:
        if self._server_ctx is None:
            check(
                self.certfile is not None and self.keyfile is not None,
                "a TLS endpoint needs its own certificate and key "
                "(--tls-cert/--tls-key or REPRO_DISTRIBUTED_TLS_CERT/_KEY)",
            )
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(self.certfile, self.keyfile)
            if self.cafile:  # mutual TLS: demand and verify client certs
                context.load_verify_locations(self.cafile)
                context.verify_mode = ssl.CERT_REQUIRED
            self._server_ctx = context
        return self._server_ctx

    def secret(self) -> str | None:
        return self._secret if self._secret is not None else super().secret()

    def plaintext_fallback(self) -> bool:
        return self._allow_plaintext


_TLS_PROVIDER_CACHE: tuple[tuple, TLSAuth] | None = None
_PLAINTEXT_PROVIDER = AuthProvider()


def auth_provider() -> AuthProvider:
    """The active provider: the ``auth_provider`` knob's effective value."""
    return config.get("auth_provider")


def provider_from_knobs() -> AuthProvider:
    """The provider no explicit install overrides: TLS > HMAC > plaintext."""
    global _TLS_PROVIDER_CACHE
    tls = config.get("distributed_tls")
    if tls is not None:
        key = tuple(sorted(tls.items()))
        if _TLS_PROVIDER_CACHE is None or _TLS_PROVIDER_CACHE[0] != key:
            # Cache per config so SSL contexts build once, not per connect.
            _TLS_PROVIDER_CACHE = (key, TLSAuth(**tls))
        return _TLS_PROVIDER_CACHE[1]
    if config.get("distributed_secret") is not None:
        return HMACAuth()
    return _PLAINTEXT_PROVIDER


# --------------------------------------------------------------------------- #
# pipelining and registration

#: Task payload bytes allowed in flight beyond the first frame. Both peers
#: write without reading while a pipeline drains, so unread bytes in each
#: direction must stay below the kernel socket buffers or the pair can
#: deadlock writing at each other; results are never larger than their
#: tasks here (a row's answer is one value), so capping outstanding *task*
#: bytes bounds both directions. Frames bigger than the window simply ride
#: an empty pipe — lockstep, exactly as before.
PIPELINE_WINDOW_BYTES = 1 << 17

#: ``host:port`` to bind the coordinator's registration endpoint on, from
#: ``REPRO_DISTRIBUTED_REGISTRY_BIND``. When set, the endpoint starts
#: lazily with the pool and workers launched with ``repro serve
#: --register host:port`` join the host list without being configured on
#: the coordinator at all.
_REGISTRY_BIND: str | None = os.environ.get("REPRO_DISTRIBUTED_REGISTRY_BIND") or None

#: Seconds a registering worker waits between dial attempts (the registry
#: may simply not be up yet; registration failure is never fatal).
REGISTER_RETRY_SECONDS = 1.0


_WARNED: set[str] = set()


def _warn_once(key: str, message: str) -> None:
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message + " (warning once per process)", RuntimeWarning, stacklevel=3)


# --------------------------------------------------------------------------- #
# protocol framing

MSG_HELLO = 1
MSG_PLAN = 2
MSG_TABLES = 3
MSG_TASK = 4
MSG_RESULT = 5
MSG_ERROR = 6
MSG_SHUTDOWN = 7
MSG_PING = 8
MSG_PONG = 9
MSG_PLAN_OFFER = 10
MSG_PLAN_HAVE = 11
MSG_PLAN_NEED = 12
MSG_AUTH = 13
MSG_AUTH_OK = 14
MSG_REGISTER = 15
MSG_DEREGISTER = 16

#: Seconds allowed for a TCP connect + handshake before a host is skipped.
CONNECT_TIMEOUT = 5.0

#: Seconds a pooled idle connection gets to answer the PING heartbeat
#: before it is declared dead and reconnected.
HEARTBEAT_TIMEOUT = 2.0

#: Matrix passes cut their rows into this many shards per host so the
#: stealing queue has slack to rebalance between hosts of unequal speed.
STEAL_SHARDS_PER_HOST = 4

#: Minimum seconds a shard must have been in flight before an idle
#: connection may steal (re-run) it. The effective grace per connection is
#: ``max(STEAL_GRACE, 2 × its own observed per-shard latency)``, so
#: homogeneous hosts finishing within a whisker of each other do not
#: duplicate the tail shard of every call — stealing fires for genuine
#: stragglers only.
STEAL_GRACE = 0.05

#: Upper bound on one matrix shard's payload, so a frame always fits the
#: uint32 length prefix with room to spare and workers never buffer more
#: than this per task.
MAX_SHARD_BYTES = 1 << 26


async def _send_message(writer, kind: int, meta: dict, blob: bytes = b"") -> None:
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode()
    payload = struct.pack("<BI", kind, len(meta_bytes)) + meta_bytes + blob
    check(
        len(payload) <= MAX_FRAME_BYTES,
        f"protocol frame of {len(payload)} bytes exceeds the wire limit",
    )
    writer.write(struct.pack("<I", len(payload)) + payload)
    await writer.drain()


async def _read_message(reader) -> tuple[int, dict, bytes]:
    raw = await reader.readexactly(4)
    (length,) = struct.unpack("<I", raw)
    if not 5 <= length <= MAX_FRAME_BYTES:
        raise ReproError(f"protocol frame length {length} out of bounds")
    payload = await reader.readexactly(length)
    kind, meta_len = struct.unpack_from("<BI", payload)
    if 5 + meta_len > length:
        raise ReproError("protocol frame header overruns the frame")
    meta = json.loads(payload[5 : 5 + meta_len])
    return kind, meta, payload[5 + meta_len :]


#: Exceptions that mean "this connection is gone", triggering a shard retry.
_CONNECTION_ERRORS = (
    ConnectionError,
    asyncio.IncompleteReadError,
    asyncio.TimeoutError,
    TimeoutError,
    OSError,
)


async def _open_transport(host: str, port: int, provider: AuthProvider):
    """``(reader, writer)`` with the provider's transport security applied.

    Certificate *verification* failures are always fatal (the peer speaks
    TLS; trust is the whole point). A peer that does not speak TLS at all
    raises unless the provider explicitly allows a one-shot plaintext
    retry — the "mixed fleet mid-rollout" escape hatch.
    """
    context = provider.client_ssl()
    if context is None:
        return await asyncio.wait_for(
            asyncio.open_connection(host, port), CONNECT_TIMEOUT
        )
    try:
        return await asyncio.wait_for(
            asyncio.open_connection(host, port, ssl=context), CONNECT_TIMEOUT
        )
    except ssl.SSLCertVerificationError as exc:
        raise ReproError(
            f"worker {host}:{port} failed TLS certificate verification ({exc})"
        ) from None
    except ssl.SSLError as exc:
        if not provider.plaintext_fallback():
            raise ReproError(
                f"TLS handshake with worker {host}:{port} failed ({exc}); set "
                "REPRO_DISTRIBUTED_TLS_ALLOW_PLAINTEXT=1 to permit a plaintext "
                "retry during rollout"
            ) from None
        _warn_once(
            f"tls-fallback:{host}:{port}",
            f"worker {host}:{port} does not speak TLS; retrying in plaintext "
            "as explicitly allowed",
        )
        return await asyncio.wait_for(
            asyncio.open_connection(host, port), CONNECT_TIMEOUT
        )


# --------------------------------------------------------------------------- #
# worker side

_WORKER_CACHE_LIMIT = 8


class WorkerServer:
    """The worker side of the protocol: serve shards over localhost/TCP.

    One instance serves any number of coordinator connections; decoded
    plans and witness tables are cached per process by content digest, so
    a coordinator reconnecting (or several coordinators sharing one
    circuit) pays the decode once — and, via the ``PLAN_OFFER`` →
    ``PLAN_HAVE``/``PLAN_NEED`` handshake, the *transfer* once too.

    ``secret`` arms shared-secret authentication: the hello carries a
    random challenge and the first client message must be a valid
    ``MSG_AUTH`` HMAC response or the connection is refused.
    ``tls_cert``/``tls_key`` wrap the listener in TLS (plus ``tls_ca`` to
    demand client certificates — mutual TLS); ``register`` dials a
    coordinator's registration endpoint so this worker joins its host
    list without static configuration, advertising ``advertise`` (or its
    own bound address). ``max_tasks`` is a fault-injection hook for tests
    and drills: the process dies abruptly (``os._exit``) when asked to
    run task ``max_tasks + 1``, simulating a mid-run crash. ``delay``
    sleeps before every task — the slow-host hook the work-stealing tests
    and drills use. ``hello_caps``/``hello_version`` override what HELLO
    advertises — the mixed-version drill hooks (``hello_caps=()`` sends a
    caps-less legacy version-2 hello).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 max_tasks: int | None = None, secret: str | None = None,
                 delay: float = 0.0, tls_cert: str | None = None,
                 tls_key: str | None = None, tls_ca: str | None = None,
                 register: str | None = None, advertise: str | None = None,
                 hello_caps=None, hello_version: int | None = None):
        self.host = host
        self.port = port  # 0 = ephemeral; replaced by the bound port on start
        self.max_tasks = max_tasks
        self.secret = str(secret) if secret else None
        self.delay = float(delay or 0.0)
        self.tls = (
            TLSAuth(tls_cert, tls_key, tls_ca, secret=self.secret)
            if tls_cert
            else None
        )
        self.register = str(register) if register else None
        self.advertise = str(advertise) if advertise else None
        self.hello_caps = None if hello_caps is None else tuple(hello_caps)
        self.hello_version = hello_version
        self.registered = False  # True while the registry link is up
        self._executed = 0
        self._plans: dict[str, WirePlan] = {}
        self._tables: dict[str, WireTables] = {}
        self._server = None
        self._register_task = None

    def _hello_meta(self) -> dict:
        hello = {
            "version": (
                PROTOCOL_VERSION if self.hello_version is None else self.hello_version
            ),
            "wire": WIRE_VERSION,
            "pid": os.getpid(),
            "auth": self.secret is not None,
        }
        caps = sorted(PROTOCOL_CAPS) if self.hello_caps is None else self.hello_caps
        if caps:  # an empty override simulates a caps-less legacy hello
            hello["caps"] = list(caps)
        return hello

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port,
            ssl=self.tls.server_ssl() if self.tls is not None else None,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.register is not None:
            self._register_task = asyncio.ensure_future(self._register_loop())

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._register_task is not None:
            self._register_task.cancel()
            try:
                await self._register_task
            except asyncio.CancelledError:
                pass
            self._register_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _register_loop(self) -> None:
        """Keep a registration link to the coordinator open, forever.

        Dials ``self.register``, answers its challenge, REGISTERs this
        worker's advertised address, then holds the connection open
        answering PINGs — its EOF is the coordinator's signal to drain
        the membership. Every failure (registry not up yet, bounced
        coordinator) just waits and re-dials; a worker that cannot
        register still serves its static listeners. On cancellation
        (worker stop) a polite DEREGISTER is attempted first.
        """
        reg_host, reg_port = parse_hostport(self.register)
        advertise = self.advertise or f"{self.host}:{self.port}"
        context = None
        if self.tls is not None and self.tls.cafile is not None:
            context = self.tls.client_ssl()
        writer = None
        announced = False
        try:
            while True:
                try:
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(reg_host, reg_port, ssl=context),
                        CONNECT_TIMEOUT,
                    )
                    kind, meta, _blob = await asyncio.wait_for(
                        _read_message(reader), CONNECT_TIMEOUT
                    )
                    if kind != MSG_HELLO:
                        raise ReproError("registry endpoint did not greet")
                    challenge = meta.get("challenge")
                    if challenge is not None:
                        check(
                            self.secret is not None,
                            "coordinator registry requires authentication and "
                            "this worker has no secret",
                        )
                        await _send_message(
                            writer, MSG_AUTH,
                            {"mac": auth_response(self.secret, challenge)},
                        )
                        akind, _ameta, _ablob = await asyncio.wait_for(
                            _read_message(reader), CONNECT_TIMEOUT
                        )
                        if akind != MSG_AUTH_OK:
                            raise ReproError("registry rejected authentication")
                    await _send_message(
                        writer, MSG_REGISTER,
                        {"advertise": advertise, "pid": os.getpid(),
                         "caps": sorted(PROTOCOL_CAPS)},
                    )
                    kind, meta, _blob = await asyncio.wait_for(
                        _read_message(reader), CONNECT_TIMEOUT
                    )
                    if kind != MSG_REGISTER or not meta.get("accepted"):
                        raise ReproError("registry refused the registration")
                    self.registered = True
                    if not announced:
                        announced = True
                        print(
                            f"repro-worker registered with {self.register} "
                            f"as {advertise}",
                            flush=True,
                        )
                    while True:  # hold the link; EOF on either side = drain
                        kind, meta, _blob = await _read_message(reader)
                        if kind == MSG_PING:
                            await _send_message(
                                writer, MSG_PONG, {"pid": os.getpid()}
                            )
                        elif kind == MSG_SHUTDOWN:
                            raise asyncio.IncompleteReadError(b"", None)
                except asyncio.CancelledError:
                    if writer is not None and self.registered:
                        try:  # polite drain; EOF covers it if this fails
                            await _send_message(
                                writer, MSG_DEREGISTER, {"advertise": advertise}
                            )
                        except BaseException:  # noqa: BLE001 - best effort
                            pass
                    raise
                except _CONNECTION_ERRORS + (ReproError,):
                    pass
                finally:
                    self.registered = False
                    if writer is not None:
                        try:
                            writer.close()
                        except Exception:  # pragma: no cover - teardown race
                            pass
                        writer = None
                await asyncio.sleep(REGISTER_RETRY_SECONDS)
        except asyncio.CancelledError:
            raise

    def _cache_put(self, cache: dict, key: str, value) -> None:
        while len(cache) >= _WORKER_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        cache[key] = value

    @staticmethod
    def _held(held: dict, digest, cache: dict):
        """The payload ``digest`` names: this connection's, else the shared one."""
        payload = held.pop(digest, None)
        if payload is None:
            return cache.get(digest)
        held[digest] = payload  # most recently used
        return payload

    async def _handle(self, reader, writer) -> None:
        try:
            hello = self._hello_meta()
            challenge = None
            if self.secret is not None:
                challenge = secrets_module.token_hex(16)
                hello["challenge"] = challenge
            await _send_message(writer, MSG_HELLO, hello)
            if challenge is not None:
                kind, meta, _blob = await asyncio.wait_for(
                    _read_message(reader), CONNECT_TIMEOUT
                )
                expected = auth_response(self.secret, challenge)
                if kind != MSG_AUTH or not hmac_module.compare_digest(
                    str(meta.get("mac", "")), expected
                ):
                    await _send_message(
                        writer, MSG_ERROR, {"message": "authentication failed"}
                    )
                    return
                await _send_message(writer, MSG_AUTH_OK, {"pid": os.getpid()})
            # The payloads this connection's coordinator holds as
            # published, least recently used first. Tasks read them from
            # here, so the shared caches' evictions cannot strand one; this
            # set evicts only while it answers an offer, and the answer
            # names what it evicted so the coordinator offers it again.
            held: dict = {}
            while True:
                kind, meta, blob = await _read_message(reader)
                if kind == MSG_SHUTDOWN:
                    break
                if kind == MSG_PING:
                    await _send_message(writer, MSG_PONG, {"pid": os.getpid()})
                elif kind == MSG_PLAN_OFFER:
                    key = meta["checksum"]
                    cache = self._tables if meta.get("kind") == "tables" else self._plans
                    payload = self._held(held, key, cache)
                    reply = {"checksum": key}
                    if key not in held:
                        evicted = []
                        while len(held) >= _WORKER_CACHE_LIMIT:
                            oldest = next(iter(held))
                            del held[oldest]
                            evicted.append(oldest)
                        if evicted:
                            reply["evicted"] = evicted
                        if payload is not None:
                            held[key] = payload
                    await _send_message(
                        writer,
                        MSG_PLAN_HAVE if payload is not None else MSG_PLAN_NEED,
                        reply,
                    )
                elif kind == MSG_PLAN:
                    key = meta["checksum"]
                    if key not in self._plans:
                        self._cache_put(self._plans, key, plan_from_bytes(blob))
                    held[key] = self._plans[key]
                elif kind == MSG_TABLES:
                    key = meta["checksum"]
                    if key not in self._tables:
                        self._cache_put(self._tables, key, tables_from_bytes(blob))
                    held[key] = self._tables[key]
                elif kind == MSG_TASK:
                    if self.max_tasks is not None and self._executed >= self.max_tasks:
                        os._exit(17)  # fault injection: die instead of answering
                    self._executed += 1
                    if self.delay > 0:  # slow-host drill hook
                        await asyncio.sleep(self.delay)
                    try:
                        rmeta, rblob = self._execute(meta, blob, held)
                    except Exception as exc:  # noqa: BLE001 - reported to coordinator
                        await _send_message(
                            writer, MSG_ERROR,
                            {"id": meta.get("id"),
                             "message": f"{type(exc).__name__}: {exc}"},
                        )
                    else:
                        await _send_message(writer, MSG_RESULT, rmeta, rblob)
                else:
                    raise ReproError(f"unexpected protocol message kind {kind}")
        except _CONNECTION_ERRORS:
            pass  # coordinator went away; nothing to answer
        except ReproError:
            pass  # malformed stream; drop the connection
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except _CONNECTION_ERRORS:  # pragma: no cover - teardown race
                pass

    def _execute(self, meta: dict, blob: bytes, held: dict) -> tuple[dict, bytes]:
        op = meta["op"]
        task_id = meta["id"]
        if op == "mc":
            # A coordinator names the stream it sums; one that names none
            # (an older build) or another one falls back locally instead.
            stream = meta.get("stream")
            check(
                stream == MC_STREAM_CAP,
                f"mc task asks for stream {stream!r}; this worker draws "
                f"{MC_STREAM_CAP!r}",
            )
            plan = self._held(held, meta["plan"], self._plans)
            check(plan is not None, "task references a plan this worker never got")
            probs = _values_from_bytes("f", blob)
            hits = plan.mc_shard_hits(probs, meta["seed"], meta["index"], meta["count"])
            return {"id": task_id, "hits": hits}, b""
        if op == "kl":
            tables = self._held(held, meta["tables"], self._tables)
            check(tables is not None, "task references tables this worker never got")
            hits = tables.kl_shard_hits(meta["seed"], meta["index"], meta["count"])
            return {"id": task_id, "hits": hits}, b""
        if op == "eval":
            plan = self._held(held, meta["plan"], self._plans)
            check(plan is not None, "task references a plan this worker never got")
            as_float = bool(meta["as_float"])
            rows = int(meta["rows"])
            itemsize = 8 if as_float else 1
            check(
                len(blob) == rows * plan.n_vars * itemsize,
                "eval task blob does not match its row count",
            )
            dtype = np.float64 if as_float else np.bool_
            matrix = np.frombuffer(blob, dtype=dtype).reshape(rows, plan.n_vars)
            out = np.empty(rows, dtype=dtype)
            plan.batch_plan().run_into(matrix, out, as_float)
            return {"id": task_id}, out.tobytes()
        raise ReproError(f"unknown distributed task op {op!r}")


class LocalWorker:
    """A ``repro serve`` worker subprocess spawned by :func:`spawn_local_worker`."""

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
        """Terminate the worker and reap it (idempotent, escalates to kill)."""
        import subprocess

        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                self.process.kill()
                self.process.wait(timeout=5.0)
        if self.process.stdout is not None:
            self.process.stdout.close()


def spawn_local_worker(max_tasks: int | None = None,
                       startup_timeout: float = 30.0, port: int = 0,
                       secret: str | None = None,
                       delay: float | None = None,
                       tls_cert: str | None = None,
                       tls_key: str | None = None,
                       tls_ca: str | None = None,
                       register: str | None = None,
                       advertise: str | None = None) -> LocalWorker:
    """Start a localhost shard worker subprocess and wait until it is ready.

    Runs ``python -m repro serve`` (``port=0`` lets the OS pick, so any
    number can coexist; a fixed port lets tests bounce a worker and
    relaunch it at the same address) with this process's ``repro`` package
    on the child's path, and blocks until the worker prints its
    ``repro-worker listening on host:port`` readiness line. The caller owns
    teardown (:meth:`LocalWorker.stop`). Tests and benchmarks share this
    one implementation of the spawn/readiness/teardown dance; ``max_tasks``
    (crash after N tasks), ``secret`` (require auth), ``delay`` (sleep
    before each task), the ``tls_*`` certificate paths and
    ``register``/``advertise`` (elastic membership) pass the serve flags
    through.
    """
    env = dict(os.environ)
    if tls_cert is not None or tls_key is not None or tls_ca is not None:
        # An explicit TLS configuration means exactly these files: serve
        # backfills each missing --tls-* flag from the environment on its
        # own, so an ambient REPRO_DISTRIBUTED_TLS_CA (the CI distributed
        # job runs the suite under full mTLS) would silently upgrade a
        # server-auth-only worker to demanding client certificates.
        for tls_var in ("REPRO_DISTRIBUTED_TLS_CERT",
                        "REPRO_DISTRIBUTED_TLS_KEY",
                        "REPRO_DISTRIBUTED_TLS_CA"):
            env.pop(tls_var, None)
    command = ["serve", "--port", str(port)]
    if max_tasks is not None:
        command += ["--max-tasks", str(max_tasks)]
    if secret is not None:
        command += ["--secret", str(secret)]
    if delay is not None:
        command += ["--delay", str(delay)]
    if tls_cert is not None:
        command += ["--tls-cert", str(tls_cert)]
    if tls_key is not None:
        command += ["--tls-key", str(tls_key)]
    if tls_ca is not None:
        command += ["--tls-ca", str(tls_ca)]
    if register is not None:
        command += ["--register", str(register)]
    if advertise is not None:
        command += ["--advertise", str(advertise)]
    return LocalWorker(*spawn_until_ready(command, env, startup_timeout, "worker"))


# --------------------------------------------------------------------------- #
# coordinator side: the persistent host pool

class _Conn:
    """One pooled worker connection plus what that worker is known to hold."""

    __slots__ = ("hostport", "reader", "writer", "published", "pid", "caps")

    def __init__(self, hostport: str, reader, writer, pid, caps=V2_BASELINE_CAPS):
        self.hostport = hostport
        self.reader = reader
        self.writer = writer
        self.published: set[str] = set()  # digests confirmed on this worker
        self.pid = pid
        self.caps = caps  # negotiated capability intersection


class _StealQueue:
    """The work-stealing shard queue one coordinated call pumps from.

    Connections pull the next pending slot when idle; once the pending
    deque runs dry, an idle connection *steals* a slot still in flight on
    another (presumably slower) connection and re-runs it. Shard contents
    are pure functions of their descriptors and results are recorded
    first-answer-wins by task id, so a steal can never change the merged
    value — it only stops a slow host from gating the merge. ``ran`` (per
    connection) caps each slot at one execution per connection, which
    bounds total work at ``shards × hosts`` even in pathological cases,
    and a slot only becomes stealable after ``min_age`` seconds in flight
    (:data:`STEAL_GRACE`-based), so near-simultaneous finishers do not
    re-run each other's tail shards for nothing.
    """

    __slots__ = ("_pending", "_inflight", "_stats")

    def __init__(self, n_tasks: int, stats: dict):
        self._pending = deque(range(n_tasks))
        self._inflight: dict[int, float] = {}  # slot -> first-dispatch time
        self._stats = stats

    def take(
        self, ran: set[int], now: float = 0.0, min_age: float = 0.0
    ) -> tuple[int | None, float | None]:
        """``(slot, None)`` to run, ``(None, seconds)`` to retry after a
        wait (in-flight work exists but is younger than ``min_age``), or
        ``(None, None)`` when nothing is left for this connection."""
        if self._pending:
            slot = self._pending.popleft()
            self._inflight[slot] = now
            return slot, None
        best = None
        soonest: float | None = None
        for slot, started in self._inflight.items():
            if slot in ran:
                continue
            age = now - started
            if age >= min_age:
                if best is None or started < self._inflight[best]:
                    best = slot  # steal the longest-suffering shard first
            else:
                remaining = min_age - age
                soonest = remaining if soonest is None else min(soonest, remaining)
        if best is not None:
            self._stats["steals"] += 1
            return best, None  # original dispatch time kept: age keeps growing
        return None, soonest

    def release(self, slot: int) -> None:
        """Put a failed slot back for some other connection (or the local
        fallback) to run."""
        self._inflight.pop(slot, None)
        self._pending.append(slot)

    def done(self, slot: int) -> None:
        self._inflight.pop(slot, None)


def _fresh_stats() -> dict:
    return {
        "calls": 0,
        "connects": 0,
        "reconnects": 0,
        "heartbeat_failures": 0,
        "plan_offers": 0,
        "plan_cache_hits": 0,
        "plans_published": 0,
        "publishes_skipped": 0,
        "tasks_completed": 0,
        "steals": 0,
        "registrations": 0,
        "drains": 0,
        "capability_skips": 0,
        "per_host_tasks": {},
    }


class HostPool:
    """Persistent coordinator runtime: connections that outlive calls.

    One instance per process (module-level :data:`_HOST_POOL`). All socket
    I/O runs on a dedicated daemon thread's event loop, so entry points can
    block on :meth:`run` from plain synchronous code *and* from inside a
    running event loop (a web handler, a notebook) without nesting
    ``asyncio.run``. Connections are keyed by ``host:port`` and reused
    across calls; before reuse an idle connection is health-checked with a
    ``PING`` heartbeat and transparently re-opened if the worker bounced —
    the fresh connection re-publishes whatever plans the new worker
    process is missing (the digest handshake makes that exact). Counters
    are exposed by :meth:`stats`; they are only ever mutated on the pool
    thread.
    """

    def __init__(self):
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._start_lock = threading.Lock()
        self._conns: dict[str, _Conn] = {}
        self._host_locks: dict[str, asyncio.Lock] = {}
        self._ever_connected: set[str] = set()
        self._stats = _fresh_stats()
        self._registered: dict[str, int] = {}  # hostport -> registering pid
        self._registry = None  # the asyncio server accepting registrations
        self._registry_addr: str | None = None
        self._registry_lock = threading.Lock()
        self._registry_tasks: set = set()  # live per-connection handlers

    # -- lifecycle -------------------------------------------------------- #

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        with self._start_lock:
            if self._loop is not None and self._thread is not None \
                    and self._thread.is_alive():
                return self._loop
            loop = asyncio.new_event_loop()
            thread = threading.Thread(
                target=loop.run_forever, name="repro-host-pool", daemon=True
            )
            thread.start()
            self._loop, self._thread = loop, thread
            return loop

    def _submit(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self._ensure_loop())

    def reset(self) -> None:
        """Drop every pooled connection (politely), keeping the stats.

        The next call reconnects from scratch — this is the per-call
        baseline the amortization benchmark measures against, and the
        test hook for exercising the worker-side plan cache across
        connections.
        """
        if self._loop is None:
            return
        self._submit(self._close_connections()).result()

    def close(self) -> None:
        """Tear the runtime down: connections, registry, then the loop thread.

        Runs at interpreter exit via :func:`close_pool`, which may be
        *after* the daemon loop thread was already torn down — so every
        step is best-effort and the method is idempotent: a dead loop
        just has its references dropped, never awaited. Exceptions never
        escape (an atexit hook that raises turns a clean exit noisy).
        """
        loop, thread = self._loop, self._thread
        if loop is None:
            return
        alive = thread is not None and thread.is_alive() and not loop.is_closed()
        if alive:
            try:
                # Not _submit: that would restart a dead loop thread.
                asyncio.run_coroutine_threadsafe(
                    self._close_runtime(), loop
                ).result(timeout=5.0)
            except Exception:  # pragma: no cover - interpreter-exit races
                pass
            try:
                loop.call_soon_threadsafe(loop.stop)
                thread.join(timeout=5.0)
            except Exception:  # pragma: no cover - interpreter-exit races
                pass
        try:
            if not loop.is_closed():
                loop.close()
        except Exception:  # pragma: no cover - interpreter-exit races
            pass
        self._loop = None
        self._thread = None
        self._host_locks = {}
        self._conns = {}
        self._registered = {}
        self._registry = None
        self._registry_addr = None

    async def _close_runtime(self) -> None:
        await self._close_registry()
        await self._close_connections()

    async def _close_registry(self) -> None:
        if self._registry is None:
            return
        self._registry.close()
        try:
            await asyncio.wait_for(self._registry.wait_closed(), timeout=1.0)
        except Exception:  # pragma: no cover - teardown race
            pass
        # Registered workers hold their link open (membership = the link),
        # so every live handler is parked in a read that would outlive the
        # loop — cancel them or interpreter exit logs pending-task noise.
        for task in list(self._registry_tasks):
            task.cancel()
        if self._registry_tasks:
            await asyncio.gather(
                *self._registry_tasks, return_exceptions=True
            )
        self._registry_tasks.clear()
        self._registry = None
        self._registry_addr = None
        self._registered = {}

    async def _close_connections(self) -> None:
        for conn in list(self._conns.values()):
            try:
                await _send_message(conn.writer, MSG_SHUTDOWN, {})
            except _CONNECTION_ERRORS:
                pass
            self._discard(conn)

    def stats(self) -> dict:
        """A snapshot of the runtime counters plus the open connections.

        Counters (and the connection dict) are mutated on the pool thread,
        so the snapshot is taken there too — a caller iterating them
        directly could race a resize mid-call. With no loop running yet
        the pool is idle and the direct copy is safe.
        """
        if self._loop is not None and self._thread is not None \
                and self._thread.is_alive():
            return self._submit(self._snapshot()).result()
        return self._snapshot_now()

    async def _snapshot(self) -> dict:
        return self._snapshot_now()

    def _snapshot_now(self) -> dict:
        snapshot = dict(self._stats)
        snapshot["per_host_tasks"] = dict(self._stats["per_host_tasks"])
        snapshot["open_connections"] = sorted(self._conns)
        snapshot["registered_hosts"] = sorted(self._registered)
        snapshot["registry_addr"] = self._registry_addr
        return snapshot

    # -- elastic membership: the registration endpoint -------------------- #

    def registered(self) -> tuple[str, ...]:
        """Hosts currently registered via the endpoint (insertion order)."""
        return tuple(self._registered)

    def ensure_registry(self) -> str | None:
        """Start the env-armed registry once; returns its bound address."""
        if _REGISTRY_BIND is None:
            return self._registry_addr
        host, port = parse_hostport(_REGISTRY_BIND)
        try:
            return self.start_registry(host, port)
        except (ReproError, OSError) as exc:
            _warn_once(
                "registry-bind",
                f"could not bind the worker registry on {_REGISTRY_BIND} "
                f"({exc}); elastic registration disabled",
            )
            return None

    def start_registry(self, host: str = "127.0.0.1", port: int = 0) -> str:
        """Bind the registration endpoint (idempotent); returns ``host:port``.

        Workers started with ``repro serve --register host:port`` dial it,
        authenticate exactly like a coordinator dialing a worker (HMAC
        challenge when a secret is armed; TLS when the provider has a
        server certificate), REGISTER an advertised address, and hold the
        connection open — membership lasts exactly as long as the link.
        """
        with self._registry_lock:
            if self._registry_addr is not None:
                return self._registry_addr
            self._registry_addr = self._submit(
                self._start_registry(host, port)
            ).result(timeout=CONNECT_TIMEOUT)
            return self._registry_addr

    def stop_registry(self) -> None:
        """Close the registration endpoint and drop every registered host."""
        with self._registry_lock:
            if self._registry_addr is None:
                return
            self._submit(self._close_registry()).result(timeout=CONNECT_TIMEOUT)

    def admit(self, hostport: str) -> None:
        """Add a worker to the elastic membership (thread-safe test/API hook)."""
        parse_hostport(hostport)
        self._submit(self._admit(hostport)).result(timeout=CONNECT_TIMEOUT)

    def drain(self, hostport: str) -> None:
        """Remove a worker from the elastic membership (thread-safe)."""
        self._submit(self._drain(hostport)).result(timeout=CONNECT_TIMEOUT)

    async def _start_registry(self, host: str, port: int):
        provider = auth_provider()
        try:
            context = provider.server_ssl()
        except ReproError:
            # A coordinator without its own certificate still registers
            # workers — the link is then HMAC/plaintext like the old wire.
            context = None
        self._registry = await asyncio.start_server(
            self._handle_registration, host, port, ssl=context
        )
        bound = self._registry.sockets[0].getsockname()[1]
        return f"{host}:{bound}"

    async def _admit(self, hostport: str, pid: int = 0) -> None:
        if hostport not in self._registered:
            self._stats["registrations"] += 1
        self._registered[hostport] = pid

    async def _drain(self, hostport: str) -> None:
        if self._registered.pop(hostport, None) is None:
            return
        self._stats["drains"] += 1
        conn = self._conns.get(hostport)
        lock = self._host_locks.get(hostport)
        if conn is not None and (lock is None or not lock.locked()):
            # The pooled connection is idle: retire it politely now. A
            # busy one finishes its current call first (the queue simply
            # stops handing the host work on the next call).
            try:
                await _send_message(conn.writer, MSG_SHUTDOWN, {})
            except _CONNECTION_ERRORS:
                pass
            self._discard(conn)

    async def _handle_registration(self, reader, writer) -> None:
        """One registry peer: challenge, REGISTER, then hold until EOF."""
        provider = auth_provider()
        advertise = None
        task = asyncio.current_task()
        self._registry_tasks.add(task)
        try:
            hello = {
                "version": PROTOCOL_VERSION,
                "caps": sorted(PROTOCOL_CAPS),
                "role": "registry",
                "pid": os.getpid(),
            }
            secret = provider.secret()
            challenge = None
            if secret is not None:
                challenge = secrets_module.token_hex(16)
                hello["challenge"] = challenge
            await _send_message(writer, MSG_HELLO, hello)
            kind, meta, _blob = await asyncio.wait_for(
                _read_message(reader), CONNECT_TIMEOUT
            )
            if challenge is not None:
                expected = auth_response(secret, challenge)
                if kind != MSG_AUTH or not hmac_module.compare_digest(
                    str(meta.get("mac", "")), expected
                ):
                    await _send_message(
                        writer, MSG_ERROR, {"message": "authentication failed"}
                    )
                    return
                await _send_message(writer, MSG_AUTH_OK, {"pid": os.getpid()})
                kind, meta, _blob = await asyncio.wait_for(
                    _read_message(reader), CONNECT_TIMEOUT
                )
            if kind != MSG_REGISTER:
                await _send_message(
                    writer, MSG_ERROR, {"message": "expected a REGISTER"}
                )
                return
            advertise = str(meta.get("advertise", ""))
            parse_hostport(advertise)  # garbage advertisements are refused
            await self._admit(advertise, int(meta.get("pid") or 0))
            await _send_message(
                writer, MSG_REGISTER, {"advertise": advertise, "accepted": True}
            )
            while True:  # membership lasts exactly as long as this link
                kind, meta, _blob = await _read_message(reader)
                if kind == MSG_DEREGISTER:
                    return
                if kind == MSG_PING:
                    await _send_message(writer, MSG_PONG, {"pid": os.getpid()})
        except _CONNECTION_ERRORS:
            pass  # worker went away: EOF is the drain signal
        except ReproError:
            pass  # malformed registration; refuse silently
        except asyncio.CancelledError:
            # Registry shutdown. Swallow so the task completes instead of
            # ending *cancelled*: asyncio.streams retrieves task.exception()
            # in a done-callback, and a cancelled task would re-raise there
            # and spam the loop's exception handler at teardown.
            pass
        finally:
            self._registry_tasks.discard(task)
            if advertise is not None:
                await self._drain(advertise)
            try:
                writer.close()
            except Exception:  # pragma: no cover - teardown race
                pass

    # -- connection management (pool thread only) ------------------------- #

    def _discard(self, conn: _Conn) -> None:
        if self._conns.get(conn.hostport) is conn:
            del self._conns[conn.hostport]
        try:
            conn.writer.close()
        except Exception:  # pragma: no cover - teardown race
            pass

    async def _heartbeat(self, conn: _Conn) -> bool:
        try:
            await _send_message(conn.writer, MSG_PING, {})
            kind, _meta, _blob = await asyncio.wait_for(
                _read_message(conn.reader), HEARTBEAT_TIMEOUT
            )
            return kind == MSG_PONG
        except _CONNECTION_ERRORS + (ReproError,):
            # ReproError covers a dying worker flushing a garbled partial
            # frame: that PING failed just as surely as a dropped socket —
            # letting it propagate would skip the failure accounting *and*
            # leak the dead _Conn in the pool map.
            return False

    async def _connect(self, hostport: str) -> _Conn:
        host, port = parse_hostport(hostport)
        provider = auth_provider()
        reader, writer = await _open_transport(host, port, provider)
        try:
            kind, meta, _blob = await asyncio.wait_for(
                _read_message(reader), CONNECT_TIMEOUT
            )
            if kind != MSG_HELLO:
                raise ReproError(f"worker {hostport} did not greet with HELLO")
            caps = negotiate_caps(meta, f"worker {hostport}")
            challenge = meta.get("challenge")
            if challenge is not None:
                secret = provider.secret()
                if secret is None:
                    raise ReproError(
                        f"worker {hostport} requires authentication and no "
                        "shared secret is set (REPRO_DISTRIBUTED_SECRET)"
                    )
                await _send_message(
                    writer, MSG_AUTH, {"mac": auth_response(secret, challenge)}
                )
                akind, ameta, _ablob = await asyncio.wait_for(
                    _read_message(reader), CONNECT_TIMEOUT
                )
                if akind != MSG_AUTH_OK:
                    raise ReproError(
                        f"worker {hostport} rejected authentication "
                        f"({ameta.get('message', 'denied')})"
                    )
        except BaseException:
            writer.close()
            raise
        conn = _Conn(hostport, reader, writer, meta.get("pid"), caps)
        self._stats["connects"] += 1
        if hostport in self._ever_connected:
            self._stats["reconnects"] += 1
        self._ever_connected.add(hostport)
        self._conns[hostport] = conn
        return conn

    async def _acquire(self, hostport: str, payloads, needs=None) -> _Conn | None:
        """A healthy connection with ``payloads`` published, or ``None``.

        Reuses the pooled connection when its heartbeat answers; otherwise
        reconnects (a bounced worker rejoining the pool). Failures warn
        once per host per process and return ``None`` — the caller's other
        hosts, or the local fallback, absorb the work. So does a worker
        that did not negotiate the capability ``needs``: it stays pooled
        for other calls, is counted in ``capability_skips`` and warned
        about once per host, and is sent no payload. The whole sequence
        (heartbeat included) runs inside one try so no failure path can
        leave a dead connection behind in the pool map.
        """
        conn = self._conns.get(hostport)
        try:
            if conn is not None and not await self._heartbeat(conn):
                self._stats["heartbeat_failures"] += 1
                self._discard(conn)
                conn = None
            if conn is None:
                conn = await self._connect(hostport)
            if needs is not None and needs not in conn.caps:
                self._stats["capability_skips"] += 1
                _warn_once(
                    f"caps:{hostport}:{needs}",
                    f"distributed worker {hostport} lacks the {needs!r} "
                    "capability (an older build); it takes no shard of "
                    "calls that need it",
                )
                return None
            await self._publish(conn, payloads)
        except asyncio.CancelledError:
            # Cancelled mid-exchange (a steal completed the call while
            # this host was still heartbeating/publishing): a PING or
            # offer may be on the wire with its reply unread, so the
            # connection cannot be pooled — the next call would read the
            # stale PONG/HAVE where it expects its own reply.
            if conn is not None:
                self._discard(conn)
            raise
        except _CONNECTION_ERRORS + (ReproError,) as exc:
            if conn is not None:
                self._discard(conn)
            _warn_once(
                f"connect:{hostport}",
                f"distributed worker {hostport} unreachable ({exc}); "
                "continuing without it",
            )
            return None
        return conn

    async def _publish(self, conn: _Conn, payloads) -> None:
        """Digest handshake: ship each payload at most once per worker.

        A digest already confirmed on this connection is skipped outright;
        otherwise the worker is offered the digest and only answers
        ``PLAN_NEED`` when its process-wide cache lacks it — so a plan
        crosses the wire once per worker per circuit, not once per call,
        and a reconnect to a live worker costs two tiny frames. A worker
        holds at most ``_WORKER_CACHE_LIMIT`` payloads per connection; an
        answer's ``evicted`` field names the digests it dropped to make
        room, and they leave ``conn.published`` to be offered again.
        """
        for msg_kind, msg_meta, msg_blob in payloads:
            digest = msg_meta["checksum"]
            if digest in conn.published:
                self._stats["publishes_skipped"] += 1
                continue
            self._stats["plan_offers"] += 1
            await _send_message(
                conn.writer, MSG_PLAN_OFFER,
                {"checksum": digest,
                 "kind": "tables" if msg_kind == MSG_TABLES else "plan"},
            )
            kind, meta, _blob = await _read_message(conn.reader)
            if kind == MSG_PLAN_HAVE and meta.get("checksum") == digest:
                self._stats["plan_cache_hits"] += 1
            elif kind == MSG_PLAN_NEED and meta.get("checksum") == digest:
                await _send_message(conn.writer, msg_kind, msg_meta, msg_blob)
                self._stats["plans_published"] += 1
            else:
                raise ReproError(
                    f"worker {conn.hostport} answered a plan offer with "
                    f"message kind {kind}"
                )
            conn.published.difference_update(meta.get("evicted", ()))
            conn.published.add(digest)

    # -- coordinated calls ------------------------------------------------ #

    def run(self, hosts, payloads, tasks, needs=None) -> dict:
        """Coordinate ``tasks`` over ``hosts``; returns ``{task_id: result}``.

        Blocks the calling thread until the workers have done what they
        can; anything missing from the returned dict is the caller's to
        run locally. Only hosts that negotiated the capability ``needs``
        (when given) take tasks. Thread-safe: concurrent calls interleave
        on the pool loop, serialized per host by a host lock.
        """
        if not hosts or not tasks:
            return {}
        return self._submit(
            self._run(tuple(hosts), payloads, tasks, needs)
        ).result()

    async def _run(self, hosts, payloads, tasks, needs) -> dict:
        self._stats["calls"] += 1
        results: dict = {}
        complete = asyncio.Event()
        queue = _StealQueue(len(tasks), self._stats)
        pumps = [
            asyncio.ensure_future(
                self._pump(
                    hostport, payloads, queue, tasks, results, complete, needs
                )
            )
            for hostport in dict.fromkeys(hosts)  # dedupe, keep order
        ]
        waiter = asyncio.ensure_future(complete.wait())
        all_pumps = asyncio.ensure_future(
            asyncio.gather(*pumps, return_exceptions=True)
        )
        # Wake when the pumps are all done OR every result is already in —
        # whichever comes first. In the second case, cancel stragglers
        # still blocked on a slow or wedged worker (their shard was
        # already answered by a steal); a cancelled pump discards its
        # connection, so no stale RESULT frame can be misread later.
        await asyncio.wait((all_pumps, waiter), return_when=asyncio.FIRST_COMPLETED)
        for pump in pumps:
            if not pump.done():
                pump.cancel()
        waiter.cancel()
        outcomes = await all_pumps
        for outcome in outcomes:
            if isinstance(outcome, BaseException) and not isinstance(
                outcome, asyncio.CancelledError
            ):
                raise outcome
        return results

    async def _pump(
        self, hostport, payloads, queue, tasks, results, complete, needs
    ):
        """One host's task loop for one call: pull, pipeline, record, steal.

        Up to ``pipeline_depth`` (the knob) task frames ride the connection at
        once (when the worker negotiated the ``pipeline`` capability), so
        shard N+1 crosses the wire while shard N computes; RESULT frames
        are correlated back to their shard by task id, out of order.
        Outstanding payload bytes beyond the first frame are capped at
        :data:`PIPELINE_WINDOW_BYTES` — a frame that will not fit waits
        for the pipe to empty and goes lockstep, which keeps unread bytes
        in both directions bounded far below the kernel socket buffers
        (the classic both-sides-blocked-writing pipelining deadlock).

        Tracks its own per-task latency so the stealing grace scales with
        the connection's real speed (a fast host may steal a shard that
        has been in flight for twice its own per-shard time; a slow one
        effectively never steals). ``dirty`` marks the moments a frame may
        be half-way through the socket — only then does a cancellation
        (every result already in via a steal) have to cost the pooled
        connection.
        """
        lock = self._host_locks.setdefault(hostport, asyncio.Lock())
        loop = asyncio.get_running_loop()
        conn = None
        dirty = False
        ran: set[int] = set()
        inflight: dict[int, tuple[int, float, int]] = {}  # id -> (slot, t0, bytes)

        def abandon_inflight() -> None:
            """Requeue every unanswered shard (the connection is lost)."""
            for slot, _started, _nbytes in inflight.values():
                queue.release(slot)
                ran.discard(slot)
            inflight.clear()

        try:
            async with lock:
                dirty = True  # _acquire exchanges heartbeat/auth/plan frames
                conn = await self._acquire(hostport, payloads, needs)
                dirty = False
                if conn is None:
                    return
                pipelined = config.get("pipeline_depth")
                depth = pipelined if "pipeline" in conn.caps else 1
                rejoined = False
                latency_total = 0.0
                latency_count = 0
                window_bytes = 0
                while len(results) < len(tasks):
                    min_age = STEAL_GRACE if latency_count == 0 else max(
                        STEAL_GRACE, 2.0 * latency_total / latency_count
                    )
                    retry_in = None
                    try:
                        while len(inflight) < depth:
                            slot, retry_in = queue.take(ran, loop.time(), min_age)
                            if slot is None:
                                break
                            task_id, meta, blob = tasks[slot]
                            if task_id in results:
                                queue.done(slot)
                                continue
                            payload = blob() if callable(blob) else blob
                            if inflight and (
                                window_bytes + len(payload) > PIPELINE_WINDOW_BYTES
                            ):
                                # Too big to pipeline safely: put it back
                                # and ship it alone once the pipe drains.
                                queue.release(slot)
                                break
                            ran.add(slot)
                            inflight[task_id] = (slot, loop.time(), len(payload))
                            window_bytes += len(payload)
                            dirty = True
                            await _send_message(conn.writer, MSG_TASK, meta, payload)
                        if not inflight:
                            if retry_in is None:
                                break
                            # In-flight work exists elsewhere but is too
                            # young to steal: give its owner a beat.
                            await asyncio.sleep(min(retry_in, STEAL_GRACE))
                            continue
                        kind, rmeta, rblob = await _read_message(conn.reader)
                    except _CONNECTION_ERRORS:
                        abandon_inflight()
                        window_bytes = 0
                        dirty = False
                        self._discard(conn)
                        conn = None
                        _warn_once(
                            "worker-died",
                            "a distributed worker disconnected mid-run; its "
                            "shards were requeued",
                        )
                        if rejoined:
                            return
                        rejoined = True  # one rejoin attempt per host per call
                        dirty = True
                        conn = await self._acquire(hostport, payloads, needs)
                        dirty = False
                        if conn is None:
                            return
                        depth = pipelined if "pipeline" in conn.caps else 1
                        continue
                    entry = (
                        inflight.pop(rmeta.get("id"), None)
                        if kind == MSG_RESULT
                        else None
                    )
                    if entry is None:
                        # MSG_ERROR (e.g. a cache-evicted plan on a shared
                        # worker) or a reply for nothing in flight: requeue
                        # everything and drop the connection so the next
                        # call re-publishes from a clean slate.
                        detail = (
                            rmeta.get("message") if kind == MSG_ERROR
                            else "bad reply"
                        )
                        abandon_inflight()
                        _warn_once(
                            "worker-refused",
                            f"a distributed worker refused a shard ({detail}); "
                            "it was requeued",
                        )
                        self._discard(conn)
                        return
                    slot, started, nbytes = entry
                    window_bytes -= nbytes
                    dirty = bool(inflight)  # pipelined replies still unread
                    task_id = rmeta.get("id")
                    queue.done(slot)
                    latency_total += loop.time() - started
                    latency_count += 1
                    if task_id not in results:  # first answer wins on steals
                        results[task_id] = (rmeta, rblob)
                        self._stats["tasks_completed"] += 1
                        per_host = self._stats["per_host_tasks"]
                        per_host[hostport] = per_host.get(hostport, 0) + 1
                    if len(results) >= len(tasks):
                        complete.set()
        except asyncio.CancelledError:
            # Cancelled with frames possibly half-exchanged (mid-task,
            # mid-handshake, or pipelined replies unread): the connection
            # has bytes in flight and cannot be pooled. A cancel between
            # frames keeps it.
            if conn is not None and (dirty or inflight):
                self._discard(conn)
            raise


_HOST_POOL = HostPool()


def host_pool() -> HostPool:
    """The process-wide persistent coordinator runtime."""
    return _HOST_POOL


def pool_stats() -> dict:
    """Counters of the persistent runtime (see :meth:`HostPool.stats`)."""
    return _HOST_POOL.stats()


def reset_pool() -> None:
    """Drop the pooled worker connections; the next call reconnects."""
    _HOST_POOL.reset()


def registered_hosts() -> tuple[str, ...]:
    """Workers currently registered with this coordinator's registry.

    Starts the env-armed registry (``REPRO_DISTRIBUTED_REGISTRY_BIND``)
    lazily on first use, so merely importing this module never binds a
    socket. Without the env knob or an explicit :func:`start_registry`
    this is always empty and costs a dict copy.
    """
    if _REGISTRY_BIND is not None:
        _HOST_POOL.ensure_registry()
    return _HOST_POOL.registered()


def start_registry(host: str = "127.0.0.1", port: int = 0) -> str:
    """Bind the worker-registration endpoint; returns its ``host:port``."""
    return _HOST_POOL.start_registry(host, port)


def stop_registry() -> None:
    """Close the registration endpoint and drop the elastic membership."""
    _HOST_POOL.stop_registry()


def close_pool() -> None:
    """Close the persistent runtime entirely (connections + loop thread).

    Distinct from :func:`repro.circuits.parallel.shutdown_pool` (the
    multi-process pool); this one tears down the TCP runtime. Registered
    at exit; safe to call repeatedly — the next coordinated call simply
    starts a fresh runtime.
    """
    _HOST_POOL.close()


atexit.register(close_pool)


def _run_distributed(hosts, payloads, tasks, run_local, needs=None) -> list:
    """Execute wire tasks over ``hosts``, completing any remainder locally.

    ``tasks`` is ``[(task_id, meta, blob), ...]`` (``blob`` may be a
    callable, materialized per send); returns the per-task
    ``(result_meta, result_blob)`` pairs in task order — the deterministic
    merge order — regardless of which host (or the local fallback) ran each
    shard. Never loses a shard: anything the workers did not finish is
    evaluated in-process through ``run_local(meta)``. With ``needs`` set,
    only hosts that negotiated that capability take tasks. Coordination
    runs on the persistent :class:`HostPool` (its own loop thread), so
    this is safe to call from plain code and from inside a running event
    loop alike.
    """
    results = _HOST_POOL.run(hosts, payloads, tasks, needs)
    for task_id, meta, _blob in tasks:
        if task_id not in results:
            results[task_id] = run_local(meta)
    return [results[task_id] for task_id, _meta, _blob in tasks]


# --------------------------------------------------------------------------- #
# entry points

def _plan_payload(compiled) -> tuple[bytes, str]:
    plan_bytes = plan_to_bytes(compiled)
    return plan_bytes, compiled.plan_digest()


def monte_carlo_hits(compiled, marginals, samples: int, seed: int = 0,
                     hosts=None, workers: int | None = None) -> int:
    """Monte-Carlo hit count, fanned out over distributed workers.

    The ``hosts=`` layer above :func:`repro.circuits.parallel.monte_carlo_hits`:
    the same ``(seed, shard_index, count)`` shard decomposition is streamed
    to remote workers that rebuilt the plan from its wire form, and the
    per-shard hit counts are summed in shard order — bit-identical to the
    in-process and pool paths for a fixed seed. Only workers that
    negotiated :data:`MC_STREAM_CAP` take shards, so every shard comes from
    the same stream; the other hosts or the local fallback run the rest.
    The arguments are checked before anything is shipped. With no
    effective hosts the call simply defers to the pool entry point
    (honouring ``workers=``).
    """
    compiled = _compiled.compile_circuit(compiled)
    hosts = effective_hosts(hosts)
    if not hosts:
        return _parallel.monte_carlo_hits(
            compiled, marginals, samples, seed=seed, workers=workers
        )
    seed = _parallel.check_sampling(samples, seed)
    probs32 = _parallel.mc_marginals(marginals, len(compiled.variables()))
    probs_blob = _values_to_bytes("f", probs32)
    plan_bytes, checksum = _plan_payload(compiled)

    tasks = [
        (
            slot,
            {"id": slot, "op": "mc", "plan": checksum, "stream": MC_STREAM_CAP,
             "seed": seed, "index": index, "count": count},
            probs_blob,
        )
        for slot, (index, count) in enumerate(_parallel._sample_shards(samples))
    ]

    def run_local(meta):
        hits = _parallel._mc_shard_hits(
            compiled.batch_plan(), probs32, meta["seed"], meta["index"], meta["count"]
        )
        return {"hits": hits}, b""

    results = _run_distributed(
        hosts, [(MSG_PLAN, {"checksum": checksum}, plan_bytes)], tasks, run_local,
        needs=MC_STREAM_CAP,
    )
    return sum(int(meta["hits"]) for meta, _blob in results)


def karp_luby_hits(membership, probs, weights, samples: int, seed: int = 0,
                   hosts=None, workers: int | None = None) -> int:
    """Karp–Luby trial count over distributed workers (see
    :func:`repro.circuits.parallel.karp_luby_hits` for the semantics).
    The arguments are checked before anything is shipped."""
    hosts = effective_hosts(hosts)
    if not hosts:
        return _parallel.karp_luby_hits(
            membership, probs, weights, samples, seed=seed, workers=workers
        )
    seed = _parallel.check_sampling(samples, seed)
    membership, probs, cumulative = _parallel.kl_tables(membership, probs, weights)
    total_weight = float(cumulative[-1])
    tables_bytes = _tables_to_bytes(membership, probs, cumulative, total_weight)
    checksum = plan_checksum(tables_bytes)

    tasks = [
        (
            slot,
            {"id": slot, "op": "kl", "tables": checksum,
             "seed": seed, "index": index, "count": count},
            b"",
        )
        for slot, (index, count) in enumerate(_parallel._sample_shards(samples))
    ]

    def run_local(meta):
        return {"hits": _parallel._kl_shard_hits(
            membership, probs, cumulative, total_weight,
            meta["seed"], meta["index"], meta["count"],
        )}, b""

    results = _run_distributed(
        hosts, [(MSG_TABLES, {"checksum": checksum}, tables_bytes)], tasks, run_local
    )
    return sum(int(meta["hits"]) for meta, _blob in results)


def _distributed_matrix_pass(compiled, matrix, as_float: bool, hosts):
    hosts = effective_hosts(hosts)
    compiled = _compiled.compile_circuit(compiled)
    dtype = np.float64 if as_float else np.bool_
    matrix = np.ascontiguousarray(matrix, dtype=dtype)
    check(
        matrix.ndim == 2 and matrix.shape[1] == len(compiled.var_names),
        f"world matrix must be (n, {len(compiled.var_names)}), got {matrix.shape}",
    )
    n_rows = matrix.shape[0]
    out = np.empty(n_rows, dtype=dtype)
    if n_rows == 0:
        return out
    if not hosts:
        compiled.batch_plan().run_into(matrix, out, as_float)
        return out
    plan_bytes, checksum = _plan_payload(compiled)
    # Shard into STEAL_SHARDS_PER_HOST pieces per host (slack for the
    # stealing queue to rebalance), then re-split so no single shard's
    # payload can exceed MAX_SHARD_BYTES: frames stay far under the wire
    # limit and a worker never buffers more than one bounded slice. Blobs
    # are callables materialized per send, so the matrix is never
    # duplicated wholesale. Output values are per-row, so the shard
    # granularity cannot change the merged result.
    row_bytes = max(1, int(matrix.shape[1]) * matrix.dtype.itemsize)
    max_rows = max(1, MAX_SHARD_BYTES // row_bytes)
    shards: list[tuple[int, int]] = []
    for start, end in _parallel._row_shards(
        n_rows, max(1, len(hosts)), parts_per_worker=STEAL_SHARDS_PER_HOST
    ):
        for split in range(start, end, max_rows):
            shards.append((split, min(split + max_rows, end)))
    tasks = [
        (
            slot,
            {"id": slot, "op": "eval", "plan": checksum, "as_float": as_float,
             "start": start, "rows": end - start},
            (lambda start=start, end=end: matrix[start:end].tobytes()),
        )
        for slot, (start, end) in enumerate(shards)
    ]

    def run_local(meta):
        start = meta["start"]
        rows = meta["rows"]
        shard_out = np.empty(rows, dtype=dtype)
        compiled.batch_plan().run_into(matrix[start : start + rows], shard_out, as_float)
        return meta, shard_out.tobytes()

    results = _run_distributed(
        hosts, [(MSG_PLAN, {"checksum": checksum}, plan_bytes)], tasks, run_local
    )
    for (slot, meta, _blob), (rmeta, rblob) in zip(tasks, results):
        start = meta["start"]
        rows = meta["rows"]
        check(
            len(rblob) == rows * out.dtype.itemsize,
            "distributed eval result has the wrong length",
        )
        out[start : start + rows] = np.frombuffer(rblob, dtype=dtype)
    return out


def evaluate_batch_distributed(compiled, matrix, hosts=None):
    """Boolean batch evaluation with row shards streamed to remote workers.

    The stage-5 analogue of
    :func:`repro.circuits.parallel.evaluate_batch_sharded`: same kernels on
    the same rows (after a wire round trip of the plan), so the result is
    bit-identical to the local paths. With no effective hosts the pass runs
    in-process.
    """
    return _distributed_matrix_pass(compiled, matrix, as_float=False, hosts=hosts)


def probability_batch_distributed(compiled, matrix, hosts=None):
    """The Theorem-1 float pass with row shards streamed to remote workers."""
    return _distributed_matrix_pass(compiled, matrix, as_float=True, hosts=hosts)
