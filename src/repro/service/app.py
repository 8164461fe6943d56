"""The query service application: resident plans, coalescing, caching.

Transport-independent: :class:`QueryService` maps parsed JSON requests to
JSON responses (or a chunked stream factory) and owns all the resident
state the "always-on" argument is about — registered plans, the compile
cache, the distributed :class:`~repro.circuits.distributed` host pool,
the result cache, the coalescer, and per-endpoint latency
histograms. :mod:`repro.service.http` binds it to a socket; tests can
also drive :meth:`QueryService.dispatch` directly.

Endpoints::

    GET  /health        liveness + uptime
    GET  /stats         pool/compile/cache/coalescer/latency counters
    POST /plans         register a wire plan {"plan_b64": ...}
    POST /compile       ingest an encoded instance + CQ/UCQ, compile, register
    POST /probability   {"digest", "rows": [[...]], "peers"?} -> marginals
    POST /sample        streaming Monte-Carlo {"digest", "row", "samples", ...}
    POST /shutdown      clean teardown (CI asserts no leaked state after)

Plans are identified everywhere by their wire digest
(:func:`repro.circuits.distributed.plan_checksum`); a request for a
digest that is not registered (or was evicted) answers 404, and the
client registers it again. Evaluation degrades down the usual tier ladder
(distributed hosts → process pool → in-process kernels); a failure never
produces a wrong marginal, only a slower one.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import json
import math
import os
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.circuits import distributed as _distributed
from repro.circuits import parallel as _parallel
from repro.circuits.evaluation import capabilities
from repro.service.cache import LatencyHistogram, ResultCache, valuation_hash
from repro.service.coalesce import Coalescer
from repro.util import ReproError, check

#: Default cap on resident registered plans (LRU-evicted beyond it).
DEFAULT_MAX_PLANS = 256

#: Default cap on rows per /probability request.
DEFAULT_MAX_ROWS = 65536

#: Default and maximum chunk sizes for /sample streaming. The default is
#: the pool's shard size, so a stream with ``chunk`` unset (or set to a
#: multiple of it) accumulates hit counts bit-identical to
#: :func:`repro.circuits.parallel.monte_carlo_hits` at the same seed.
DEFAULT_SAMPLE_CAP = 100_000_000


class ServiceError(ReproError):
    """A request-level error carrying the HTTP status to report."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class StreamResponse:
    """A chunked-stream response: ``factory(cancel_event)`` yields dicts."""

    __slots__ = ("factory",)

    def __init__(self, factory):
        self.factory = factory


def _env_int(name: str, default):
    value = os.environ.get(name, "").strip()
    if not value:
        return default
    try:
        return int(value)
    except ValueError:
        raise ReproError(f"{name} must be an integer, got {value!r}") from None


def _unit_marginals(row) -> list[float]:
    """One request row's marginals as floats; 400 unless each is in [0, 1].

    JSON numbers only (no bools, no numeric strings), each tested once
    against the interval: that refuses NaN and ±inf too, which min()/max()
    would let a NaN slip past, and compares a huge integer exactly instead
    of overflowing a float. -0.0 is accepted.
    """
    for value in row:
        if (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or not 0.0 <= value <= 1.0
        ):
            raise ServiceError(
                400, f"marginals must be numbers in [0, 1], got {value!r}"
            )
    return [float(v) for v in row]


def _parse_terms(raw_terms):
    from repro.queries.cq import Variable

    terms = []
    for term in raw_terms:
        if isinstance(term, str) and term.startswith("?"):
            name = term[1:]
            if not name:
                raise ServiceError(400, "query variable name must be non-empty")
            terms.append(Variable(name))
        elif isinstance(term, (str, int, float, bool)):
            terms.append(term)
        else:
            raise ServiceError(400, f"unsupported query term {term!r}")
    return terms


def _parse_cq(spec):
    from repro.queries.cq import Atom, ConjunctiveQuery

    raw_atoms = spec.get("atoms")
    if not isinstance(raw_atoms, list) or not raw_atoms:
        raise ServiceError(400, "query needs a non-empty 'atoms' list")
    atoms = []
    for raw in raw_atoms:
        if isinstance(raw, dict):
            relation, raw_terms = raw.get("relation"), raw.get("terms", [])
        elif isinstance(raw, list) and len(raw) == 2:
            relation, raw_terms = raw
        else:
            raise ServiceError(
                400, "each atom must be {'relation', 'terms'} or [relation, terms]"
            )
        if not isinstance(relation, str) or not relation:
            raise ServiceError(400, "atom relation must be a non-empty string")
        atoms.append(Atom(relation, tuple(_parse_terms(raw_terms))))
    return ConjunctiveQuery(tuple(atoms))


def parse_query(spec):
    """A CQ/UCQ from its JSON form: ``{"atoms": [...]}`` or disjuncts.

    Variables are strings starting with ``?`` (``"?x"``); every other
    string/number is a constant. A UCQ is ``{"disjuncts": [cq, ...]}``.
    """
    from repro.queries.cq import UnionOfConjunctiveQueries

    if not isinstance(spec, dict):
        raise ServiceError(400, "query must be a JSON object")
    if "disjuncts" in spec:
        raw = spec["disjuncts"]
        if not isinstance(raw, list) or not raw:
            raise ServiceError(400, "'disjuncts' must be a non-empty list")
        return UnionOfConjunctiveQueries(tuple(_parse_cq(d) for d in raw))
    return _parse_cq(spec)


class _PlanEntry:
    """One resident plan: evaluates rows, compiled or wire-only.

    Plans registered from wire bytes have no circuit arena (and no
    variable names) — they evaluate through :class:`WirePlan`, always
    in-process. Plans built by ``/compile`` keep the full
    :class:`CompiledCircuit`, so their passes ride the whole tier ladder
    (distributed hosts / process pool / in-process kernels) exactly like
    library callers' do.
    """

    __slots__ = ("digest", "compiled", "wire", "n_vars", "size", "hits")

    def __init__(self, digest: str, compiled=None, wire=None):
        check(compiled is not None or wire is not None,
              "a plan entry needs a compiled circuit or a wire plan")
        self.digest = digest
        self.compiled = compiled
        self.wire = wire
        source = compiled if compiled is not None else wire
        self.n_vars = (len(compiled.var_names) if compiled is not None
                       else wire.n_vars)
        self.size = source.size
        self.hits = 0

    def probability_rows(self, rows) -> list[float]:
        """One float pass over ``rows`` (slot order), one marginal per row."""
        if self.compiled is not None:
            matrix = np.asarray(rows, dtype=np.float64)
            if matrix.ndim != 2:
                matrix = matrix.reshape(len(rows), self.n_vars)
            return self.compiled.probability_batch(matrix)
        return self.wire.run_rows(rows, as_float=True)

    def mc_shard_hits(self, probs32, seed: int, index: int, count: int) -> int:
        """One ``/sample`` shard's hit count, on this plan's level plan."""
        source = self.compiled if self.compiled is not None else self.wire
        return _parallel._mc_shard_hits(
            source.batch_plan(), probs32, seed, index, count
        )


class QueryService:
    """The resident application behind ``repro serve-http``."""

    def __init__(self, *, coalesce: bool = True,
                 cache_size: int | None = None,
                 max_plans: int | None = None,
                 max_rows: int | None = None):
        if cache_size is None:
            cache_size = _env_int("REPRO_SERVICE_CACHE_SIZE", None)
        self.cache = (ResultCache(cache_size) if cache_size is not None
                      else ResultCache())
        self.coalescer = Coalescer(self._run_pass, enabled=coalesce)
        self.max_plans = (max_plans if max_plans is not None
                          else _env_int("REPRO_SERVICE_MAX_PLANS",
                                        DEFAULT_MAX_PLANS))
        self.max_rows = (max_rows if max_rows is not None
                         else _env_int("REPRO_SERVICE_MAX_ROWS",
                                       DEFAULT_MAX_ROWS))
        self._plans: OrderedDict[str, _PlanEntry] = OrderedDict()
        # One compute thread on purpose: the batch kernels already use the
        # cores (numpy / the pool / distributed hosts) inside a single
        # pass, so passes of different digests queue here instead of
        # contending.
        self._compute = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-pass"
        )
        self._mc = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-mc"
        )
        self.histograms: dict[str, LatencyHistogram] = {}
        self.stream_stats = {
            "started": 0, "completed": 0, "cancelled": 0, "active": 0,
        }
        self.started_at = time.monotonic()
        self.shutdown_event = asyncio.Event()
        self._closed = False
        self._routes = {
            ("GET", "/health"): self._handle_health,
            ("GET", "/stats"): self._handle_stats,
            ("POST", "/plans"): self._handle_plans,
            ("POST", "/compile"): self._handle_compile,
            ("POST", "/probability"): self._handle_probability,
            ("POST", "/shutdown"): self._handle_shutdown,
        }

    # ------------------------------------------------------------------ #
    # dispatch

    async def dispatch(self, method: str, path: str, body: bytes):
        """Route one request; returns ``(status, payload)`` or a stream.

        Latency is recorded per path into :attr:`histograms` (for streams:
        the setup time; stream progress shows up in :attr:`stream_stats`).
        """
        started = time.perf_counter()
        error = False
        try:
            if method == "POST" and path == "/sample":
                return self._handle_sample(self._parse_body(body))
            handler = self._routes.get((method, path))
            if handler is None:
                known = {route_path for _m, route_path in self._routes}
                if path in known or path == "/sample":
                    raise ServiceError(405, f"method {method} not allowed on {path}")
                raise ServiceError(404, f"unknown path {path}")
            return await handler(self._parse_body(body))
        except ServiceError as exc:
            error = True
            return exc.status, {"error": str(exc)}
        except ReproError as exc:
            error = True
            return 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - the service must not die
            error = True
            return 500, {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            histogram = self.histograms.setdefault(path, LatencyHistogram())
            histogram.observe(time.perf_counter() - started, error=error)

    @staticmethod
    def _parse_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except (ValueError, UnicodeDecodeError):
            raise ServiceError(400, "request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise ServiceError(400, "request body must be a JSON object")
        return payload

    def shutdown_requested(self) -> bool:
        return self.shutdown_event.is_set()

    def close(self) -> None:
        """Release every resident resource (idempotent).

        Stops the compute threads, the multiprocess pool and its shared
        memory, and the distributed host pool — the "no leaked sockets or
        shared-memory segments" contract the CI service job asserts.
        """
        if self._closed:
            return
        self._closed = True
        self._compute.shutdown(wait=True)
        self._mc.shutdown(wait=True)
        _parallel.shutdown()
        _distributed.close_pool()

    # ------------------------------------------------------------------ #
    # plan registry

    def _register(self, entry: _PlanEntry) -> None:
        plans = self._plans
        plans[entry.digest] = entry
        plans.move_to_end(entry.digest)
        while len(plans) > self.max_plans:
            plans.popitem(last=False)

    def _plan_entry(self, digest) -> _PlanEntry:
        if not isinstance(digest, str) or not digest:
            raise ServiceError(400, "request needs a 'digest' string")
        entry = self._plans.get(digest)
        if entry is None:
            raise ServiceError(
                404,
                f"unknown plan digest {digest}; register it via /plans "
                "or /compile",
            )
        self._plans.move_to_end(digest)
        entry.hits += 1
        return entry

    # ------------------------------------------------------------------ #
    # evaluation plumbing

    async def _run_pass(self, digest: str, rows) -> list[float]:
        """One matrix pass on the compute thread (the coalescer's hook)."""
        entry = self._plans.get(digest)
        if entry is None:  # evicted between lookup and flush: a 404
            entry = self._plan_entry(digest)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._compute, entry.probability_rows, rows
        )

    def _validated_rows(self, payload, entry: _PlanEntry) -> list[list[float]]:
        rows = payload.get("rows")
        if not isinstance(rows, list) or not rows:
            raise ServiceError(400, "request needs a non-empty 'rows' list")
        if len(rows) > self.max_rows:
            raise ServiceError(
                400, f"request has {len(rows)} rows; the cap is {self.max_rows}"
            )
        validated = []
        for row in rows:
            if not isinstance(row, list) or len(row) != entry.n_vars:
                raise ServiceError(
                    400,
                    f"each row must list {entry.n_vars} marginals in slot "
                    "order",
                )
            validated.append(_unit_marginals(row))
        return validated

    # ------------------------------------------------------------------ #
    # handlers

    async def _handle_health(self, _payload) -> tuple[int, dict]:
        return 200, {
            "status": "ok",
            "uptime_s": time.monotonic() - self.started_at,
            "plans": len(self._plans),
        }

    async def _handle_stats(self, _payload) -> tuple[int, dict]:
        caps = capabilities()
        return 200, {
            "uptime_s": time.monotonic() - self.started_at,
            "plans": {
                "registered": len(self._plans),
                "max": self.max_plans,
                "hits": sum(e.hits for e in self._plans.values()),
            },
            "result_cache": self.cache.stats(),
            "coalescer": self.coalescer.stats(),
            "streams": dict(self.stream_stats),
            "pool": caps["distributed_pool"],
            "distributed_hosts": caps["distributed_hosts"],
            "transport": {
                "provider": caps["distributed_transport"],
                "auth": caps["distributed_auth"],
                "pipeline_depth": caps["distributed_pipeline"],
                "registered_hosts": caps["distributed_registered"],
            },
            "compile": caps["compile"],
            "batch": caps["batch"],
            "endpoints": {
                path: histogram.stats()
                for path, histogram in sorted(self.histograms.items())
            },
        }

    async def _handle_plans(self, payload) -> tuple[int, dict]:
        encoded = payload.get("plan_b64")
        if not isinstance(encoded, str) or not encoded:
            raise ServiceError(400, "request needs 'plan_b64' (base64 wire plan)")
        try:
            blob = base64.b64decode(encoded, validate=True)
        except (binascii.Error, ValueError):
            raise ServiceError(400, "'plan_b64' is not valid base64") from None
        digest = _distributed.plan_checksum(blob)
        already = digest in self._plans
        if already:
            entry = self._plans[digest]
            self._plans.move_to_end(digest)
        else:
            try:
                wire = _distributed.plan_from_bytes(blob)
            except ReproError as exc:
                raise ServiceError(400, f"rejected wire plan: {exc}") from None
            entry = _PlanEntry(digest, wire=wire)
            self._register(entry)
        return 200, {
            "digest": digest,
            "size": entry.size,
            "n_vars": entry.n_vars,
            "already_registered": already,
        }

    async def _handle_compile(self, payload) -> tuple[int, dict]:
        from repro.core.engine import compile_query_plan
        from repro.instances.columnar import ColumnarInstance

        instance_payload = payload.get("instance")
        if not isinstance(instance_payload, dict):
            raise ServiceError(400, "request needs an 'instance' payload object")
        query_spec = payload.get("query")
        if query_spec is None:
            raise ServiceError(400, "request needs a 'query' object")
        method = payload.get("method", "lineage")
        if method != "lineage":
            # Marginal serving needs a deterministic-decomposable circuit;
            # the monotone provenance build defines the same Boolean
            # function but its linear pass would return wrong marginals.
            raise ServiceError(
                400,
                f"compile method {method!r} is not probability-valid; "
                "this service only serves 'lineage' plans",
            )
        loop = asyncio.get_running_loop()

        def build():
            instance, fids = ColumnarInstance.ingest_payload(instance_payload)
            query = parse_query(query_spec)
            _lineage, plan = compile_query_plan(instance, query, method=method)
            return instance, fids, plan

        # Compilation can be heavy; keep the event loop serving.
        instance, fids, plan = await loop.run_in_executor(self._compute, build)
        digest = plan.plan_digest()
        self._register(_PlanEntry(digest, compiled=plan))
        variables = list(plan.variables())
        default_probability = payload.get("default_probability", 0.5)
        probability_by_name: dict[str, float] = {}
        raw_probabilities = payload.get("probabilities", {})
        if not isinstance(raw_probabilities, dict):
            raise ServiceError(400, "'probabilities' must map relations to lists")
        for relation, per_row in raw_probabilities.items():
            row_fids = fids.get(relation)
            if row_fids is None:
                raise ServiceError(
                    400, f"probabilities name unknown relation {relation!r}"
                )
            if not isinstance(per_row, list) or len(per_row) != len(row_fids):
                raise ServiceError(
                    400,
                    f"probabilities for {relation!r} must list one value per "
                    "payload row",
                )
            names = instance.variable_names_for(row_fids)
            for name, value in zip(names, per_row):
                probability_by_name[name] = float(value)
        default_row = [
            probability_by_name.get(name, float(default_probability))
            for name in variables
        ]
        return 200, {
            "digest": digest,
            "size": plan.size,
            "n_vars": len(variables),
            "variables": variables,
            "default_row": default_row,
            "facts": {relation: len(row_fids)
                      for relation, row_fids in fids.items()},
        }

    async def _handle_probability(self, payload) -> tuple[int, dict]:
        entry = self._plan_entry(payload.get("digest"))
        rows = self._validated_rows(payload, entry)
        peers = payload.get("peers")
        if peers is not None and (not isinstance(peers, int) or peers < 1):
            raise ServiceError(400, "'peers' must be a positive integer")
        hashes = [valuation_hash(row) for row in rows]
        results: dict[str, float] = {}
        missing_hashes, missing_rows, queued = [], [], set()
        for h, row in zip(hashes, rows):
            cached = self.cache.get((entry.digest, h))
            if cached is not None:
                results[h] = cached
            elif h not in queued:
                queued.add(h)
                missing_hashes.append(h)
                missing_rows.append(row)
        cache_hits = len(results)
        if missing_rows:
            values = await self.coalescer.submit(
                entry.digest, missing_hashes, missing_rows, peers=peers
            )
            for h, value in values.items():
                self.cache.put((entry.digest, h), value)
            results.update(values)
        return 200, {
            "digest": entry.digest,
            "marginals": [results[h] for h in hashes],
            "cache_hits": cache_hits,
            "cache_misses": len(rows) - cache_hits,
        }

    def _handle_sample(self, payload) -> StreamResponse:
        entry = self._plan_entry(payload.get("digest"))
        row = payload.get("row")
        if not isinstance(row, list) or len(row) != entry.n_vars:
            raise ServiceError(
                400, f"'row' must list {entry.n_vars} marginals in slot order"
            )
        probs32 = np.asarray(_unit_marginals(row), dtype=np.float32)
        samples = payload.get("samples", _parallel.MC_SHARD)
        if (
            not isinstance(samples, int)
            or isinstance(samples, bool)
            or not 1 <= samples <= DEFAULT_SAMPLE_CAP
        ):
            raise ServiceError(
                400, f"'samples' must be an integer in [1, {DEFAULT_SAMPLE_CAP}]"
            )
        chunk = payload.get("chunk", _parallel.MC_SHARD)
        if not isinstance(chunk, int) or chunk < 1:
            raise ServiceError(400, "'chunk' must be a positive integer")
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ServiceError(400, "'seed' must be a non-negative integer")
        stats = self.stream_stats
        mc_pool = self._mc

        async def stream(cancel: asyncio.Event):
            loop = asyncio.get_running_loop()
            stats["started"] += 1
            stats["active"] += 1
            hits = drawn = index = 0
            try:
                while drawn < samples:
                    if cancel.is_set():
                        break
                    count = min(chunk, samples - drawn)
                    shard = await loop.run_in_executor(
                        mc_pool, entry.mc_shard_hits, probs32, seed, index, count
                    )
                    hits += shard
                    drawn += count
                    index += 1
                    estimate = hits / drawn
                    stderr = math.sqrt(
                        max(estimate * (1.0 - estimate), 0.0) / drawn
                    )
                    yield {
                        "samples": drawn,
                        "hits": hits,
                        "estimate": estimate,
                        "stderr": stderr,
                        "done": drawn >= samples,
                    }
            finally:
                stats["active"] -= 1
                if drawn >= samples:
                    stats["completed"] += 1
                else:
                    stats["cancelled"] += 1

        return StreamResponse(stream)

    async def _handle_shutdown(self, _payload) -> tuple[int, dict]:
        self.shutdown_event.set()
        return 200, {"status": "shutting-down"}
