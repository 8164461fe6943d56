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
    GET  /stats         pool/compile/cache/coalescer/pass/latency counters
    POST /plans         register a wire plan {"plan_b64": ...}
    POST /compile       ingest an encoded instance + CQ/UCQ, compile, register
    POST /probability   {"digest", "rows_b64", "n_rows", "peers"?} -> marginals
                        (or {"digest", "rows": [[...]], "peers"?})
    POST /sample        streaming Monte-Carlo {"digest", "row", "samples", ...}
    POST /shutdown      clean teardown (CI asserts no leaked state after)

A ``/probability`` request carries its rows in one of two encodings:
``rows_b64``, the base64 of the rows' little-endian float64 bytes,
row-major, with their count in ``n_rows`` (what :class:`ServiceClient`
sends), or ``rows``, JSON lists of numbers. Both are read at one boundary
(:meth:`QueryService._request_rows`) into one ``(n_rows, n_vars)`` float64
matrix, checked against [0, 1] and hashed row by row there; the result
cache, the coalescer and the pass see only that matrix.

Plans are identified everywhere by their wire digest
(:func:`repro.circuits.distributed.plan_checksum`); a request for a
digest that is not registered (or was evicted) answers 404, and the
client registers it again. Whichever endpoint registered it, a resident
plan is one :class:`~repro.circuits.compiled.Plan`, and its passes
degrade down the one tier ladder (distributed hosts → process pool →
in-process kernels); a failure never produces a wrong marginal, only a
slower one.
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
from repro.util import ReproError

#: Default cap on resident registered plans (LRU-evicted beyond it).
DEFAULT_MAX_PLANS = 256

#: Default cap on rows per /probability request.
DEFAULT_MAX_ROWS = 65536

#: Default and maximum chunk sizes for /sample streaming. The default is
#: the pool's shard size, so a stream with ``chunk`` unset (or set to a
#: multiple of it) accumulates hit counts bit-identical to
#: :func:`repro.circuits.parallel.monte_carlo_hits` at the same seed.
DEFAULT_SAMPLE_CAP = 100_000_000

#: What one group of a level plan costs to dispatch (its ``take`` and its
#: ufunc call), in gate-rows of pass arithmetic: a pass over ``rows`` rows
#: of a plan that writes ``written`` value rows in ``groups`` groups does
#: about ``rows * written + GROUP_WORK * groups`` gate-rows of work. Timed
#: on chain plans of 471 to 52,347 gates, a group cost 1.5-2.5 us and a
#: gate-row 2-5 ns (2-vCPU container).
GROUP_WORK = 512

#: The most work a pass may do on the event loop, in gate-rows: about
#: 2-4 ms of pass at the rates above. E19's biggest pass, 64 rows of the
#: chain-120 plan (3,480 written rows of 5,187 gates, 241 groups), comes
#: to 346,112. A bigger pass runs in the compute thread. See
#: :meth:`_PlanEntry.fits_loop`.
LOOP_PASS_WORK = 1 << 20


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


def _json_int(value) -> bool:
    """Whether a JSON value is an integer; ``true`` and ``false`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


#: The value types a JSON marginal may have: ``type`` is exact, so a bool
#: (an ``int`` subclass) and a numeric string are not among them.
_JSON_NUMBERS = frozenset((int, float))


def _bad_marginal(value) -> ServiceError:
    return ServiceError(400, f"marginals must be numbers in [0, 1], got {value!r}")


def _unit_matrix(matrix, rows=None):
    """``matrix`` if every value lies in [0, 1]; else a 400 naming one.

    One vectorized test, whichever encoding the values came in: NaN and
    ±inf fail it, -0.0 passes. ``rows``, the JSON lists the matrix was
    read from, names the offending value as the client sent it.
    """
    inside = (matrix >= 0.0) & (matrix <= 1.0)
    if not inside.all():
        i, j = np.argwhere(~inside)[0]
        raise _bad_marginal(rows[i][j] if rows is not None else float(matrix[i, j]))
    return matrix


def _json_marginals(rows):
    """JSON rows of equal width as one checked ``(len(rows), width)`` matrix.

    JSON numbers only, no bools and no numeric strings, each in [0, 1]:
    the check of every marginal a request carries as JSON (``/probability``
    rows, ``/sample``'s row, ``/compile``'s values). An integer too large
    for a float lies outside [0, 1] and is refused like one.
    """
    kinds = set()
    for row in rows:
        kinds.update(map(type, row))
    if not kinds <= _JSON_NUMBERS:
        raise _bad_marginal(next(
            v for row in rows for v in row if type(v) not in _JSON_NUMBERS
        ))
    try:
        matrix = np.array(rows, dtype="<f8")
    except OverflowError:
        raise _bad_marginal(next(
            v for row in rows for v in row if not 0 <= v <= 1
        )) from None
    return _unit_matrix(matrix, rows)


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
    """One resident plan and what a pass over it costs.

    ``/plans`` registers a decoded wire plan and ``/compile`` its
    lowering's plan; both are one :class:`~repro.circuits.compiled.Plan`
    type, so every resident plan's passes take the one tier ladder
    (:meth:`~repro.circuits.compiled.Plan.run`: distributed hosts,
    process pool, in-process kernels) exactly like library callers' do.
    """

    __slots__ = ("plan", "digest", "written", "groups", "hits")

    def __init__(self, plan):
        """Builds the plan's level plan, so run it off the event loop."""
        self.plan = plan
        self.digest = plan.digest()
        batch_plan = plan.batch_plan()
        steps = [step for level in batch_plan.levels for step in level]
        # The leaf rows and each step's rows; a gate the fold dropped keeps
        # a row that no pass writes.
        self.written = batch_plan.const_rows[1] + sum(
            end - start for _kind, _fan_in, (start, end), _gather in steps
        )
        self.groups = len(steps)
        self.hits = 0

    def fits_loop(self, n_rows: int) -> bool:
        """Whether a pass over ``n_rows`` rows may run on the event loop.

        It must stay in this process (no pool worker or remote host to
        wait on) and do at most :data:`LOOP_PASS_WORK` gate-rows of work,
        counted over the rows the pass writes.
        """
        return (
            not _parallel.may_leave_process(n_rows)
            and n_rows * self.written + GROUP_WORK * self.groups
            <= LOOP_PASS_WORK
        )

    def probability_rows(self, matrix) -> list[float]:
        """One float pass over a ``(n_rows, n_vars)`` float64 matrix.

        Columns in slot order; one marginal per row.
        """
        return self.plan.run(matrix, as_float=True).tolist()


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
        # The compute thread runs the work that may block the loop for
        # long: plan registration (decode, compile, level plan) and every
        # pass that does not fit the loop (_PlanEntry.fits_loop). One
        # thread on purpose: a big pass already uses the cores, so passes
        # of different digests queue here instead of contending.
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
        self.pass_stats = {"on_loop": 0, "in_thread": 0}
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
        status = 200
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
            status = exc.status
            return status, {"error": str(exc)}
        except ReproError as exc:
            status = 400
            return status, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - the service must not die
            status = 500
            return status, {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            histogram = self.histograms.setdefault(path, LatencyHistogram())
            histogram.observe(time.perf_counter() - started,
                              error=status >= 400, server_error=status >= 500)

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

    async def _run_pass(self, digest: str, matrix) -> list[float]:
        """One matrix pass (the coalescer's hook), on the loop or the thread.

        A short in-process pass (:meth:`_PlanEntry.fits_loop`) runs right
        here on the event loop: in the compute thread a pass also waits
        for the thread to wake and for the GIL whenever the loop thread
        holds it (a one-row ``serve-2conn`` pass spent a quarter of its
        wall time so). Any other pass runs in the compute thread, so the
        loop keeps serving while it runs or waits on pool workers or
        remote hosts.
        """
        entry = self._plans.get(digest)
        if entry is None:  # evicted between lookup and flush: a 404
            entry = self._plan_entry(digest)
        if entry.fits_loop(len(matrix)):
            self.pass_stats["on_loop"] += 1
            return entry.probability_rows(matrix)
        self.pass_stats["in_thread"] += 1
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._compute, entry.probability_rows, matrix
        )

    def _request_rows(self, payload, entry: _PlanEntry):
        """A ``/probability`` request's rows: one checked float64 matrix
        and the :func:`valuation_hash` of each of its rows.

        The one boundary both encodings cross, before the result cache or
        the coalescer sees a row: ``rows_b64`` (base64 of little-endian
        float64 bytes, row-major, ``n_rows`` rows) or ``rows`` (JSON lists
        of numbers), never both. For bytes, ``n_rows`` and the encoded
        length are checked before anything is decoded. Every value must
        lie in [0, 1] (:func:`_unit_matrix`).
        """
        if "rows_b64" in payload:
            if "rows" in payload:
                raise ServiceError(
                    400, "request carries both 'rows' and 'rows_b64'; send one"
                )
            matrix = self._binary_rows(payload, entry.plan.n_vars)
        else:
            rows = payload.get("rows")
            if not isinstance(rows, list) or not rows:
                raise ServiceError(
                    400, "request needs a non-empty 'rows' list or 'rows_b64'"
                )
            self._check_row_count(len(rows))
            n_vars = entry.plan.n_vars
            for row in rows:
                if not isinstance(row, list) or len(row) != n_vars:
                    raise ServiceError(
                        400,
                        f"each row must list {n_vars} marginals in slot order",
                    )
            matrix = _json_marginals(rows)
        return matrix, [valuation_hash(row) for row in matrix]

    def _check_row_count(self, n_rows: int) -> None:
        if n_rows > self.max_rows:
            raise ServiceError(
                400, f"request has {n_rows} rows; the cap is {self.max_rows}"
            )

    def _binary_rows(self, payload, n_vars: int):
        n_rows = payload.get("n_rows")
        if not _json_int(n_rows) or n_rows < 1:
            raise ServiceError(400, "'n_rows' must be a positive integer")
        self._check_row_count(n_rows)
        encoded = payload["rows_b64"]
        n_bytes = n_rows * n_vars * 8
        if not isinstance(encoded, str) or len(encoded) != 4 * -(-n_bytes // 3):
            raise ServiceError(
                400,
                f"'rows_b64' must encode {n_rows} rows of {n_vars} float64 "
                f"marginals in slot order ({n_bytes} bytes)",
            )
        try:
            raw = base64.b64decode(encoded, validate=True)
        except (binascii.Error, ValueError):
            raise ServiceError(400, "'rows_b64' is not valid base64") from None
        if len(raw) != n_bytes:  # padding may hide a byte or two
            raise ServiceError(
                400, f"'rows_b64' decodes to {len(raw)} bytes, not {n_bytes}"
            )
        return _unit_matrix(np.frombuffer(raw, "<f8").reshape(n_rows, n_vars))

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
            "passes": dict(self.pass_stats),
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
            def build():
                return _PlanEntry(_distributed.plan_from_bytes(blob))

            loop = asyncio.get_running_loop()
            try:
                entry = await loop.run_in_executor(self._compute, build)
            except ReproError as exc:
                raise ServiceError(400, f"rejected wire plan: {exc}") from None
            # Another /plans may have registered the digest meanwhile.
            entry = self._plans.get(digest, entry)
            self._register(entry)
        return 200, {
            "digest": digest,
            "size": entry.plan.size,
            "n_vars": entry.plan.n_vars,
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
        # Every value is checked before compiling, and the plan registers
        # only once the whole default row stands, so a refused request
        # registers nothing.
        default_probability = float(_json_marginals(
            [[payload.get("default_probability", 0.5)]]
        )[0, 0])
        raw_probabilities = payload.get("probabilities", {})
        if not isinstance(raw_probabilities, dict):
            raise ServiceError(400, "'probabilities' must map relations to lists")
        checked: dict[str, list[float]] = {}
        for relation, per_row in raw_probabilities.items():
            if not isinstance(per_row, list):
                raise ServiceError(
                    400,
                    f"probabilities for {relation!r} must list one value per "
                    "payload row",
                )
            checked[relation] = _json_marginals([per_row])[0].tolist()
        loop = asyncio.get_running_loop()

        def build():
            instance, fids = ColumnarInstance.ingest_payload(instance_payload)
            query = parse_query(query_spec)
            _lineage, compiled = compile_query_plan(instance, query, method=method)
            return instance, fids, compiled, _PlanEntry(compiled.plan)

        # Compilation can be heavy; keep the event loop serving.
        instance, fids, compiled, entry = await loop.run_in_executor(
            self._compute, build
        )
        variables = list(compiled.variables())
        probability_by_name: dict[str, float] = {}
        for relation, per_row in checked.items():
            row_fids = fids.get(relation)
            if row_fids is None:
                raise ServiceError(
                    400, f"probabilities name unknown relation {relation!r}"
                )
            if len(per_row) != len(row_fids):
                raise ServiceError(
                    400,
                    f"probabilities for {relation!r} must list one value per "
                    "payload row",
                )
            names = instance.variable_names_for(row_fids)
            probability_by_name.update(zip(names, per_row))
        default_row = [
            probability_by_name.get(name, default_probability)
            for name in variables
        ]
        self._register(entry)
        return 200, {
            "digest": entry.digest,
            "size": compiled.size,
            "n_vars": len(variables),
            "variables": variables,
            "default_row": default_row,
            "facts": {relation: len(row_fids)
                      for relation, row_fids in fids.items()},
        }

    async def _handle_probability(self, payload) -> tuple[int, dict]:
        entry = self._plan_entry(payload.get("digest"))
        matrix, hashes = self._request_rows(payload, entry)
        peers = payload.get("peers")
        if peers is not None and (not _json_int(peers) or peers < 1):
            raise ServiceError(400, "'peers' must be a positive integer")
        results: dict[str, float] = {}
        missing: dict[str, int] = {}  # hash -> its first row, in order
        for index, h in enumerate(hashes):
            cached = self.cache.get((entry.digest, h))
            if cached is not None:
                results[h] = cached
            elif h not in missing:
                missing[h] = index
        cache_hits = len(results)
        if missing:
            rows = (matrix if len(missing) == len(hashes)
                    else matrix[list(missing.values())])
            values = await self.coalescer.submit(
                entry.digest, list(missing), rows, peers=peers
            )
            for h, value in values.items():
                self.cache.put((entry.digest, h), value)
            results.update(values)
        return 200, {
            "digest": entry.digest,
            "marginals": [results[h] for h in hashes],
            "cache_hits": cache_hits,
            "cache_misses": len(hashes) - cache_hits,
        }

    def _handle_sample(self, payload) -> StreamResponse:
        entry = self._plan_entry(payload.get("digest"))
        row = payload.get("row")
        n_vars = entry.plan.n_vars
        if not isinstance(row, list) or len(row) != n_vars:
            raise ServiceError(
                400, f"'row' must list {n_vars} marginals in slot order"
            )
        probs32 = _json_marginals([row])[0].astype(np.float32)
        samples = payload.get("samples", _parallel.MC_SHARD)
        if not _json_int(samples) or not 1 <= samples <= DEFAULT_SAMPLE_CAP:
            raise ServiceError(
                400, f"'samples' must be an integer in [1, {DEFAULT_SAMPLE_CAP}]"
            )
        chunk = payload.get("chunk", _parallel.MC_SHARD)
        if not _json_int(chunk) or chunk < 1:
            raise ServiceError(400, "'chunk' must be a positive integer")
        seed = payload.get("seed", 0)
        if not _json_int(seed) or seed < 0:
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
                        mc_pool, entry.plan.mc_shard_hits, probs32, seed, index,
                        count,
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
