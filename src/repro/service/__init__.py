"""Always-on query service: the front door of the circuit pipeline.

Everything below this package already exists in the library — compiled
plans, batch kernels, the worker pool, the distributed host pool. What
was missing is a process that keeps them *hot*:
every embedding caller pays python import + compile, which is exactly the
cost the compile-once/evaluate-many design was built to amortize. The
service is that process:

- ``repro serve-http`` runs :class:`QueryService` behind a stdlib asyncio
  HTTP front end (:mod:`repro.service.http`); plans, caches and the
  distributed host pool stay resident across requests;
- concurrent ``/probability`` requests for the same plan digest are
  **coalesced** into one matrix pass (:mod:`repro.service.coalesce`) —
  batching across users is free throughput, bit-identical per row;
- served marginals are **cached** by ``(plan_digest, valuation_hash)``
  in an LRU (:mod:`repro.service.cache`);
- long Monte-Carlo runs **stream** converging estimates over a chunked
  response and are cancelled promptly when the client disconnects;
- ``/stats`` exposes pool/compile/cache counters and per-endpoint
  latency histograms.

:class:`ServiceClient` / :func:`spawn_service`
(:mod:`repro.service.client`) are the matching stdlib client and the
subprocess lifecycle helper shared by the tests and the E19 bench.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".app": ("QueryService", "ServiceError", "StreamResponse", "parse_query"),
    ".cache": ("LatencyHistogram", "ResultCache", "valuation_hash"),
    ".client": ("LocalService", "ServiceClient", "ServiceClientError", "spawn_service"),
    ".coalesce": ("Coalescer",),
    ".http": ("run_service", "serve_http"),
})
