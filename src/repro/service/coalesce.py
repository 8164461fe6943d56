"""Request coalescing: many concurrent callers, one matrix pass.

The batch kernels are throughput-optimal — one level-scheduled pass over a
``(rows, vars)`` float matrix costs barely more for 64 rows than for one —
so a server that gives every request its own pass throws away exactly the
speedup the vectorized kernels bought. The coalescer merges concurrent
``/probability`` requests for the same plan digest into shared passes. It
batches by occupancy, not by timer:

- each digest has at most one open *bucket* and at most one *drain* task;
- a request joins the digest's open bucket, opening one if there is none,
  and starts the drain if none is running, so a lone request starts its
  pass on the next event-loop iteration;
- the drain closes the bucket, awaits its pass and fans the result out,
  then repeats while a new bucket has opened: every request that arrives
  while a pass runs joins the next pass. The service runs a short
  in-process pass on the event loop itself (``QueryService._run_pass``),
  so requests that arrive during such a pass are read after it returns
  and share the next pass;
- rows are deduplicated by valuation hash as they join the bucket, so a
  cache stampede — N cold requests for the same row — evaluates the row
  once, and every waiter gets its own rows' marginals back from the
  shared ``hash → marginal`` result.

Merging changes nothing numerically: the level kernels evaluate each
matrix row independently, so a row's marginal in a coalesced pass is
bit-identical to the same row in a dedicated pass (asserted by
``tests/test_service.py``).

A request may carry an expected-arrivals barrier (``peers=N``): the drain
then holds the bucket open until N requests have joined — the
deterministic handle the tests and benchmarks use to prove "N concurrent
requests, one pass" over real sockets, bounded by :data:`BARRIER_TIMEOUT`
so a missing peer cannot wedge the bucket.
"""

from __future__ import annotations

import asyncio
import contextlib

import numpy as np

from repro.util import check

#: Hard cap on how long a ``peers=N`` barrier may hold a bucket open.
BARRIER_TIMEOUT = 2.0


class _Bucket:
    """One pending pass: deduped rows plus the future all waiters share."""

    __slots__ = ("rows", "order", "index", "future", "arrivals", "expected",
                 "barrier")

    def __init__(self, loop):
        self.rows: list = []    # deduped matrix rows, in arrival order
        self.order: list = []   # valuation hash of rows[i], aligned
        self.index: dict = {}   # valuation hash -> position in rows
        self.future = loop.create_future()
        self.arrivals = 0
        self.expected: int | None = None
        self.barrier = asyncio.Event()

    def add(self, hashes, rows) -> None:
        for h, row in zip(hashes, rows):
            if h not in self.index:
                self.index[h] = len(self.rows)
                self.rows.append(row)
                self.order.append(h)


class Coalescer:
    """Merge concurrent per-digest row batches into shared matrix passes.

    ``run_pass(digest, matrix)`` is the evaluation hook — awaited once per
    bucket with the bucket's rows stacked into one ``(n_rows, n_vars)``
    matrix, returning one marginal per row; a digest's passes never
    overlap. With ``enabled=False`` every request runs as its own pass (the
    uncoalesced baseline the E19 bench compares against); rows are still
    deduplicated within a request.
    """

    def __init__(self, run_pass, enabled: bool = True):
        self._run_pass = run_pass
        self.enabled = enabled
        # Both hold an entry only while the digest is busy, so evicted or
        # idle digests leave nothing behind.
        self._buckets: dict[str, _Bucket] = {}        # the open bucket
        self._drains: dict[str, asyncio.Task] = {}    # the running drain
        self.counters = {
            "requests": 0,
            "rows_in": 0,
            "passes": 0,
            "rows_evaluated": 0,
            "coalesced_requests": 0,  # requests beyond the first per pass
            "max_requests_per_pass": 0,
            "max_rows_per_pass": 0,
        }

    async def submit(self, digest: str, hashes, rows,
                     peers: int | None = None) -> dict:
        """Marginals for ``rows`` as a ``valuation_hash → float`` mapping.

        ``rows`` is a ``(n_rows, n_vars)`` float64 matrix (or rows numpy
        stacks into one); ``hashes`` must align with its rows (the caller
        computed them for its cache lookup already). ``peers`` arms the
        arrival barrier.
        """
        rows = np.asarray(rows)
        check(len(hashes) == len(rows), "hashes and rows must align")
        counters = self.counters
        counters["requests"] += 1
        counters["rows_in"] += len(rows)
        if peers is not None:
            peers = int(peers)
            check(peers >= 1, "peers must be at least 1")
        if not self.enabled:
            return await self._solo_pass(digest, hashes, rows)
        bucket = self._buckets.get(digest)
        if bucket is None:
            bucket = _Bucket(asyncio.get_running_loop())
            self._buckets[digest] = bucket
        bucket.add(hashes, rows)
        bucket.arrivals += 1
        if peers is not None:
            bucket.expected = max(bucket.expected or 0, peers)
        if bucket.expected is not None and bucket.arrivals >= bucket.expected:
            bucket.barrier.set()
        if digest not in self._drains:
            self._drains[digest] = asyncio.create_task(self._drain(digest))
        # shield: a cancelled waiter (client disconnect) must not cancel
        # the shared pass out from under the other waiters.
        shared = await asyncio.shield(bucket.future)
        return {h: shared[h] for h in hashes}

    async def _solo_pass(self, digest: str, hashes, rows) -> dict:
        """One dedicated pass for one request (coalescing disabled)."""
        first: dict = {}  # valuation hash -> its first row, in order
        for index, h in enumerate(hashes):
            first.setdefault(h, index)
        if len(first) < len(rows):
            rows = rows[list(first.values())]
        values = await self._run_pass(digest, rows)
        self._account(1, rows)
        return dict(zip(first, values))

    async def _drain(self, digest: str) -> None:
        """Run the digest's buckets one pass at a time until none is open."""
        try:
            while (bucket := self._buckets.get(digest)) is not None:
                await self._flush(digest, bucket)
        finally:
            del self._drains[digest]

    async def _flush(self, digest: str, bucket: _Bucket) -> None:
        """Wait out the bucket's barrier, close it, and run it as one pass."""
        try:
            if bucket.expected is not None:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(bucket.barrier.wait(), BARRIER_TIMEOUT)
            del self._buckets[digest]  # later arrivals open the next bucket
            values = await self._run_pass(digest, np.stack(bucket.rows))
        except BaseException as exc:
            if self._buckets.get(digest) is bucket:
                del self._buckets[digest]
            bucket.future.set_exception(exc)
            bucket.future.exception()  # mark retrieved for lone waiters
            if not isinstance(exc, Exception):  # cancellation, exit
                raise
            return
        self._account(bucket.arrivals, bucket.rows)
        bucket.future.set_result(dict(zip(bucket.order, values)))

    def _account(self, arrivals: int, rows) -> None:
        counters = self.counters
        counters["passes"] += 1
        counters["rows_evaluated"] += len(rows)
        if arrivals > 1:
            counters["coalesced_requests"] += arrivals - 1
        if arrivals > counters["max_requests_per_pass"]:
            counters["max_requests_per_pass"] = arrivals
        if len(rows) > counters["max_rows_per_pass"]:
            counters["max_rows_per_pass"] = len(rows)

    def stats(self) -> dict:
        """Counters + configuration, for the ``/stats`` endpoint."""
        return {"enabled": self.enabled, **self.counters}
