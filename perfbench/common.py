"""Metric names, oracle tally and call tracing shared by the workloads."""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "req_p50_ms": "ms",
    "qps": "1/s",
    "peak_rss_mb": "MB",
}

#: Layer timings; each also reports ``<stem>_share``, its share of the wall
#: time it belongs to: the job, the request, or (for the build layers of a
#: served plan) the service set-up.
LAYER_TIMES = {
    "workloads.generate_s": "s",
    "queries.evaluate_s": "s",
    "core.provenance_s": "s",
    "instances.event_space_s": "s",
    "circuits.slot_marginals_s": "s",
    "circuits.compile_s": "s",
    "circuits.plan_build_s": "s",
    "circuits.mc_s": "s",
    "treewidth.decompose_s": "s",
    "core.lineage_s": "s",
    "circuits.dd_s": "s",
    "circuits.pass_1row_ms": "ms",
    "service.server_ms": "ms",
    "service.client_overhead_ms": "ms",
    "service.http_ms": "ms",
    "service.json_ms": "ms",
}

LAYER_OTHER = {
    "queries.witnesses": "count",
    "instances.facts_materialized": "count",
    "circuits.gates": "count",
    "circuits.levels": "count",
    "circuits.groups": "count",
    "treewidth.width": "count",
    "core.nice_nodes": "count",
    "core.max_profile": "count",
    "service.passes_per_request": "ratio",
    "service.cache_hit_rate": "ratio",
    "trace.unaccounted_s": "s",
    "trace.unaccounted_share": "ratio",
    "trace.overhead": "ratio",
}


def share_name(time_metric: str) -> str:
    """``circuits.mc_s`` -> ``circuits.mc_share``."""
    return time_metric.rsplit("_", 1)[0] + "_share"


PER_LAYER = {
    **LAYER_TIMES,
    **{share_name(name): "ratio" for name in LAYER_TIMES},
    **LAYER_OTHER,
}

median = statistics.median

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Wall time of :func:`reference_work` on the reference host, a round value
#: near its median on 2 Intel Xeon vCPUs (0.32 s over 216 runs in twelve
#: minutes). Batch timings are reported in seconds of a host that runs the
#: reference work in this time.
REFERENCE_S = 0.30

#: Batch times scale by (REFERENCE_S / reference) to this power. Across 26
#: bulk runs over half an hour, log(median job) against log(median
#: reference) fit a slope of 0.74 (correlation 0.95): the reference swings
#: more than the job as the host's speed drifts, so a full ratio would
#: over-correct.
REFERENCE_EXPONENT = 0.75

#: Reference runs before each batch job.
REFERENCES_PER_JOB = 3


def reference_work() -> float:
    """Wall time of a fixed piece of work that calls nothing in ``repro``.

    The host's speed drifts by up to 1.5x over minutes, and every layer of
    a job slows by the same factor. This work mixes what the batch layers
    do, so it slows with them: string keys formatted into a dict and
    sorted (naming, the event space), then numpy passes, a sort and a
    gather over 3M floats (slot marginals, the Monte-Carlo kernel).
    """
    begin = time.perf_counter()
    names = {f"f:R({i},{i + 1})": i * 0.5 for i in range(150_000)}
    ordered = sorted(names, key=len)
    column = np.arange(3_000_000, dtype=np.float64)
    for _ in range(5):
        column = np.sqrt(column * 1.0001 + 1.0)
    column = column[np.argsort(column[::-1].copy())]
    del names, ordered, column
    return time.perf_counter() - begin


class Tally:
    """Oracle verdicts of one run; ``corrupt`` perturbs the first answer."""

    def __init__(self, corrupt: bool = False):
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self._corrupt = corrupt

    def answer(self, value: float) -> float:
        """The value to check: the program's answer or, once under
        ``--corrupt``, that answer shifted by 0.5, which every oracle here
        (bitwise or Hoeffding-bounded) must reject."""
        if not self._corrupt:
            return value
        self._corrupt = False
        return value - 0.5 if value >= 0.5 else value + 0.5

    def check(self, ok: bool, what: str) -> None:
        """Count one checked answer; ``what`` describes it if it is wrong."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(what)


class Spans:
    """Wall time of calls into the program, summed per layer metric."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    def __call__(self, name: str, fn, *args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + time.perf_counter() - started)


def untraced(_name: str, fn, *args, **kwargs):
    """The untraced stand-in for :class:`Spans`: a plain call."""
    return fn(*args, **kwargs)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values``, ``q`` in (0, 1]."""
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 1)  # ceil(n * q)
    return ordered[min(len(ordered), max(1, int(rank))) - 1]


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(times: dict, walls: dict, other: dict) -> dict:
    """Every per-layer metric: the measured ones, their shares, 0 elsewhere.

    ``times`` maps layer time metrics to values, ``walls`` maps the same
    names to the wall time (same unit) each share is taken of. A layer the
    workload does not exercise reports 0.
    """
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name, value in times.items():
        metrics[name] = value
        metrics[share_name(name)] = value / walls[name] if walls[name] > 0 else 0.0
    metrics.update(other)
    return metrics
