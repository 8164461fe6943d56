"""Request coalescing: many concurrent callers, one matrix pass.

The batch kernels are throughput-optimal — one level-scheduled pass over a
``(rows, vars)`` float matrix costs barely more for 64 rows than for one —
so a server that gives every request its own pass throws away exactly the
speedup the vectorized kernels bought. The coalescer merges concurrent
``/probability`` requests for the same plan digest into shared passes:

- requests arriving inside a short window (or while an earlier pass for
  the same digest still occupies the compute thread) land in the same
  *bucket*;
- rows are deduplicated by valuation hash as they join the bucket, so a
  cache stampede — N cold requests for the same row — evaluates the row
  once;
- the bucket runs as one matrix pass and every waiter is fanned back its
  own rows' marginals from the shared ``hash → marginal`` result.

Merging changes nothing numerically: the level kernels evaluate each
matrix row independently, so a row's marginal in a coalesced pass is
bit-identical to the same row in a dedicated pass (asserted by
``tests/test_service.py``).

A request may carry an expected-arrivals barrier (``peers=N``): the bucket
then flushes as soon as N requests have joined instead of waiting out the
window — the deterministic handle the tests and benchmarks use to prove
"N concurrent requests, one pass" over real sockets, bounded by
:data:`BARRIER_TIMEOUT` so a missing peer cannot wedge the bucket.
"""

from __future__ import annotations

import asyncio

from repro.util import check

#: How long a freshly opened bucket waits for co-travellers, in seconds
#: (``REPRO_SERVICE_COALESCE_MS`` / ``--coalesce-ms`` override it).
DEFAULT_WINDOW = 0.002

#: Hard cap on how long a ``peers=N`` barrier may hold a bucket open.
BARRIER_TIMEOUT = 2.0


class _Bucket:
    """One pending pass: deduped rows plus the future all waiters share."""

    __slots__ = ("rows", "order", "index", "future", "arrivals", "expected",
                 "barrier")

    def __init__(self, loop):
        self.rows: list = []    # deduped rows, in arrival order
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

    ``run_pass(digest, rows)`` is the evaluation hook — awaited once per
    flushed bucket, returning one marginal per row. With ``enabled=False``
    every request runs as its own pass (the uncoalesced baseline the E19
    bench compares against); rows are still deduplicated within a request.
    """

    def __init__(self, run_pass, window: float = DEFAULT_WINDOW,
                 enabled: bool = True):
        check(window >= 0, "coalescing window must be non-negative")
        self._run_pass = run_pass
        self.window = window
        self.enabled = enabled
        self._buckets: dict[str, _Bucket] = {}
        # Per digest, the lock that serializes its passes and how many
        # flushes hold or wait for it; the entry goes when that count
        # drops to zero, so evicted or idle digests leave nothing behind.
        self._locks: dict[str, list] = {}
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

        ``hashes`` must align with ``rows`` (the caller computed them for
        its cache lookup already). ``peers`` arms the arrival barrier.
        """
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
            asyncio.ensure_future(self._flush(digest, bucket))
        bucket.add(hashes, rows)
        bucket.arrivals += 1
        if peers is not None:
            bucket.expected = max(bucket.expected or 0, peers)
        if bucket.expected is not None and bucket.arrivals >= bucket.expected:
            bucket.barrier.set()
        # shield: a cancelled waiter (client disconnect) must not cancel
        # the shared pass out from under the other waiters.
        shared = await asyncio.shield(bucket.future)
        return {h: shared[h] for h in hashes}

    async def _solo_pass(self, digest: str, hashes, rows) -> dict:
        """One dedicated pass for one request (coalescing disabled)."""
        order, deduped, seen = [], [], set()
        for h, row in zip(hashes, rows):
            if h not in seen:
                seen.add(h)
                order.append(h)
                deduped.append(row)
        values = await self._run_pass(digest, deduped)
        self._account(1, deduped)
        return dict(zip(order, values))

    async def _flush(self, digest: str, bucket: _Bucket) -> None:
        """Wait out the window/barrier, then run the bucket as one pass."""
        try:
            timeout = (BARRIER_TIMEOUT if bucket.expected is not None
                       else self.window)
            if timeout > 0:
                try:
                    await asyncio.wait_for(bucket.barrier.wait(), timeout)
                except asyncio.TimeoutError:
                    # A barrier request may have joined after the window
                    # wait started; honour it before giving up.
                    if bucket.expected is not None and not bucket.barrier.is_set():
                        try:
                            await asyncio.wait_for(
                                bucket.barrier.wait(), BARRIER_TIMEOUT
                            )
                        except asyncio.TimeoutError:
                            pass
            entry = self._locks.setdefault(digest, [asyncio.Lock(), 0])
            entry[1] += 1
            try:
                async with entry[0]:
                    # Close the bucket to new arrivals only now: requests
                    # that queued up while a previous pass held the compute
                    # thread have been merging into it all along.
                    if self._buckets.get(digest) is bucket:
                        del self._buckets[digest]
                    values = await self._run_pass(digest, bucket.rows)
            finally:
                entry[1] -= 1
                if not entry[1]:
                    del self._locks[digest]
        except BaseException as exc:
            if self._buckets.get(digest) is bucket:
                del self._buckets[digest]
            if not bucket.future.done():
                bucket.future.set_exception(exc)
                bucket.future.exception()  # mark retrieved for lone waiters
            if isinstance(exc, asyncio.CancelledError):
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
        return {"enabled": self.enabled, "window_s": self.window,
                **self.counters}
