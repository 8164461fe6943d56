"""Result cache and latency accounting for the query service.

A served marginal is a pure function of ``(plan_digest, valuation_hash)``:
the digest pins the exact wire bytes of the compiled plan and the
valuation hash pins the float64 row it was evaluated under, so a cached
result can never go stale. The cache is therefore bounded only by an LRU
entry cap for memory. Hit/miss/eviction counters feed ``/stats``.

:class:`LatencyHistogram` is the per-endpoint latency record behind the
``/stats`` endpoint: fixed power-of-two millisecond buckets, so observing
a sample is O(1) and percentiles are bucket-upper-bound approximations —
exactly the resolution a regression gate needs, at zero allocation per
request.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from collections import OrderedDict

import numpy as np

from repro.util import check

#: Default LRU entry cap (``REPRO_SERVICE_CACHE_SIZE`` overrides).
DEFAULT_CACHE_SIZE = 4096

#: Histogram bucket upper bounds, in milliseconds; one overflow bucket
#: follows the last bound.
BUCKET_BOUNDS_MS = (
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
    256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
)


def valuation_hash(row) -> str:
    """Content hash of one marginal row: its float64 bytes, order-sensitive.

    The hash reads the row's bytes exactly as the batch kernels consume
    them (little-endian float64 in slot order), so two rows hash equal iff
    they produce bit-identical matrix rows — the identity the result cache
    and the coalescer's row dedup both key on. A row of a float64 matrix
    is hashed in place; a list is converted first, to the same bytes and
    so the same digest.
    """
    return hashlib.sha256(np.ascontiguousarray(row, dtype="<f8")).hexdigest()[:32]


class ResultCache:
    """LRU map from ``(plan_digest, valuation_hash)`` to a marginal."""

    def __init__(self, max_entries: int = DEFAULT_CACHE_SIZE):
        check(int(max_entries) >= 0, "cache size must be non-negative")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The cached value for ``key``, or ``None`` (counted as a miss)."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        """Store ``value`` under ``key``, evicting least-recently-used."""
        if self.max_entries == 0:
            return
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = value
        while len(entries) > self.max_entries:
            entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def stats(self) -> dict:
        """Counters + configuration, for the ``/stats`` endpoint."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }


class LatencyHistogram:
    """Fixed-bucket latency histogram with bucket-bound percentiles."""

    __slots__ = ("counts", "count", "errors", "server_errors", "total_ms",
                 "max_ms")

    def __init__(self):
        self.counts = [0] * (len(BUCKET_BOUNDS_MS) + 1)
        self.count = 0
        self.errors = 0
        self.server_errors = 0
        self.total_ms = 0.0
        self.max_ms = 0.0

    def observe(self, seconds: float, error: bool = False,
                server_error: bool = False) -> None:
        """Record one request's wall time and whether it errored.

        ``error`` is any error answer (4xx or 5xx); ``server_error`` marks
        a 5xx, a fault of the service rather than a refused request, and is
        counted in ``errors`` too.
        """
        ms = seconds * 1e3
        self.count += 1
        self.total_ms += ms
        if ms > self.max_ms:
            self.max_ms = ms
        if error or server_error:
            self.errors += 1
        if server_error:
            self.server_errors += 1
        self.counts[bisect_left(BUCKET_BOUNDS_MS, ms)] += 1

    def percentile(self, q: float) -> float:
        """Upper bucket bound covering quantile ``q`` (0..1]; 0 when empty.

        The overflow bucket reports the exact observed maximum instead of
        a bound.
        """
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        running = 0
        for i, n in enumerate(self.counts):
            running += n
            if running >= target:
                if i < len(BUCKET_BOUNDS_MS):
                    return BUCKET_BOUNDS_MS[i]
                return self.max_ms
        return self.max_ms

    def stats(self) -> dict:
        """Summary for the ``/stats`` endpoint."""
        return {
            "count": self.count,
            "errors": self.errors,
            "server_errors": self.server_errors,
            "mean_ms": (self.total_ms / self.count) if self.count else 0.0,
            "p50_ms": self.percentile(0.50),
            "p99_ms": self.percentile(0.99),
            "max_ms": self.max_ms,
        }
