"""Served workloads: ``repro serve-http`` driven by closed-loop connections.

The service runs with its shipped defaults (coalescing on) and serves the
automaton lineage plan of a Q_RST chain, E19's plan family. Each
connection sends one single-row ``/probability`` request at a time and
sends the next as soon as the answer arrives. Every served marginal is
checked bitwise against ``probability_batch`` on the same rows.

A traced run sends the same traffic as an untraced one, bracketed by
``/stats`` snapshots (server-side time per request, passes, result-cache
hits); after it, the bench times the layers a request crosses from the
outside: a one-row level-plan pass on the same plan, the round trip of a
request-sized POST the service does not route (HTTP transport) and the
JSON encoding and decoding of a request and its answer. Last, it times
one cold d-D pass on the plan, so the traced run covers every layer of
the Theorem 1 path. The snapshots fall outside the measured window and
the probes come after it, so tracing adds nothing to the request path and
the traced run reports ``trace.overhead`` as 0.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from http.client import HTTPConnection, HTTPException
from pathlib import Path

from common import (
    SETUP_SAMPLES,
    Spans,
    layer_metrics,
    median,
    percentile,
    untraced,
)

from jobs import Q_RST

import numpy as np
from repro.circuits import compile_circuit
from repro.circuits.evaluation import probability
from repro.core import build_lineage, instance_decomposition
from repro.service import ServiceClient, spawn_service
from repro.util import ReproError
from repro.workloads import rst_chain_tid

CHAIN = {"full": 120, "toy": 12}  # 120 gives E19's 5187-gate plan
FACT_PROBABILITY = 0.15
CONNECTIONS = {"serve-1conn": 1, "serve-2conn": 2}
#: serve-2conn re-asks rows from a small hot set on this share of requests.
#: The mix is synthetic: there is no recorded traffic, and E19 sends cold
#: rows only. A hit skips the pass and forms a faster latency mode, so the
#: share stays well under 1/2 to keep p50 and p99 among the misses; 1/4
#: still gives thousands of hits in a 50 s run. Each hot row comes back
#: about every 32 requests, far inside the 4096-entry result cache's LRU
#: horizon, so after its first miss every re-ask hits. With 8 rows the two
#: connections seldom send the same hot row within one coalescer window,
#: where it would merge instead of hit.
HOT_SHARE = {"serve-1conn": 0.0, "serve-2conn": 0.25}
HOT_ROWS = 8
PROBES = 200  # samples per outside probe of a request's layers
UNROUTED = "/perfbench-transport-probe"  # a path the service answers 404
#: The printed ``req_p99_ms`` is the median p99 over consecutive chunks of
#: this many requests, in send order, so each p99 has ten samples beyond
#: it. A short burst of host noise then moves the tail of one chunk, not of
#: the run.
P99_CHUNK = 1000


class Service:
    """One spawned service with the plan registered and answered once."""

    def __init__(self, seed: int, chain: int, span):
        begin = time.perf_counter()
        self.handle = spawn_service()
        try:
            tid = span("workloads.generate_s", rst_chain_tid, chain,
                       probability=FACT_PROBABILITY, seed=seed,
                       backend="object")
            decomposition = span("treewidth.decompose_s",
                                 instance_decomposition, tid.instance,
                                 "min_fill")
            lineage = span("core.lineage_s", build_lineage, tid.instance,
                           Q_RST, decomposition)
            self.tid = tid
            self.compiled = span("circuits.compile_s", compile_circuit,
                                 lineage.circuit)
            plan = span("circuits.plan_build_s", self.compiled.batch_plan)
            self.client = self.handle.client()
            self.digest = self.client.register_compiled(self.compiled)
            self.width = len(self.compiled.variables())
            self.first_row = np.random.default_rng([seed, 1]).random(self.width)
            self.first_answer = self.client.probability(
                self.digest, [self.first_row.tolist()])["marginals"][0]
            self.setup_s = time.perf_counter() - begin
        except BaseException:
            self.handle.stop()
            raise
        self.counts = {
            "instances.facts_materialized": len(tid),
            "circuits.gates": self.compiled.size,
            "circuits.levels": len(plan.levels),
            "circuits.groups": sum(len(level) for level in plan.levels),
            "treewidth.width": decomposition.width(),
            "core.nice_nodes": lineage.node_count,
            "core.max_profile": lineage.max_profile_size,
        }

    def peak_rss_mb(self) -> float:
        """The service process's peak resident memory (``VmHWM``)."""
        status = Path(f"/proc/{self.handle.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ReproError("no VmHWM line in /proc status")

    def close(self) -> None:
        try:
            self.client.shutdown()
            self.handle.wait_dead(10.0)
        finally:
            self.handle.stop()


def closed_loop(service: Service, seed: int, connections: int,
                hot_share: float, seconds: float):
    """Closed-loop ``/probability`` traffic for ``seconds``.

    Each connection draws its cold rows from its own seeded stream; with
    probability ``hot_share`` a request re-asks one of :data:`HOT_ROWS`
    shared rows instead. Returns the window's wall time and, per request,
    ``(send time, row, served marginal or None, latency in seconds)``.
    """
    hot = np.random.default_rng([seed, 2]).random((HOT_ROWS, service.width))
    records: list[list] = [[] for _ in range(connections)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(connections + 1)
    deadline = [0.0]

    def connection(index: int) -> None:
        client = ServiceClient(service.handle.address)
        rng = np.random.default_rng([seed, 0, index])
        out = records[index]
        try:
            barrier.wait(timeout=30.0)
            while time.perf_counter() < deadline[0]:
                if hot_share and rng.random() < hot_share:
                    row = hot[rng.integers(HOT_ROWS)]
                else:
                    row = rng.random(service.width)
                rows = [row.tolist()]
                begin = time.perf_counter()
                try:
                    value = client.probability(service.digest, rows)["marginals"][0]
                except (ReproError, OSError, HTTPException, ValueError):
                    value = None  # failed or refused: counted by the check
                out.append((begin, row, value, time.perf_counter() - begin))
        except BaseException as exc:  # surfaced by the caller after join
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=connection, args=(i,))
               for i in range(connections)]
    for thread in threads:
        thread.start()
    begin = time.perf_counter()
    deadline[0] = begin + seconds
    barrier.wait(timeout=30.0)
    for thread in threads:
        thread.join(timeout=seconds + 60.0)
    wall = time.perf_counter() - begin
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise ReproError("a closed-loop connection did not finish")
    return wall, [record for out in records for record in out]


def check_served(service: Service, records, tally) -> None:
    """Every served marginal equals ``probability_batch`` on its row, bitwise."""
    expected = service.compiled.probability_batch(
        np.vstack([row for _sent, row, _value, _latency in records]))
    for (_sent, _row, value, _latency), want in zip(records, expected):
        if value is None:
            tally.check(False, "request failed or was refused")
            continue
        value = tally.answer(value)
        tally.check(value == want,
                    f"served {value!r} != probability_batch {want!r}")


def check_first_answer(service: Service, tally) -> None:
    want = service.compiled.probability_batch(service.first_row[None, :])[0]
    value = tally.answer(service.first_answer)
    tally.check(value == want,
                f"first answer {value!r} != probability_batch {want!r}")


def cold_dd_pass(service: Service, span, tally) -> None:
    """One cold d-D pass on the served plan, codegen included.

    Checked bitwise against a one-row level-plan ``probability_batch`` on
    the same plan, as ``exact-ktree`` checks its passes.
    """
    space = service.tid.event_space()
    value = tally.answer(span("circuits.dd_s", probability, service.compiled,
                              space, engine="dd"))
    row = np.asarray([service.compiled.slot_marginals(space)], dtype=np.float64)
    want = service.compiled.probability_batch(row)[0]
    tally.check(value == want,
                f"cold dd {value!r} != probability_batch {want!r}")


def chunked_p99(records) -> float:
    """Median p99 latency over consecutive :data:`P99_CHUNK`-request chunks."""
    latencies = [latency for *_, latency in sorted(records, key=lambda r: r[0])]
    chunks = max(1, len(latencies) // P99_CHUNK)
    size = len(latencies) // chunks
    return median(percentile(latencies[i * size:(i + 1) * size], 0.99)
                  for i in range(chunks))


def probe_ms(fn, samples: int = PROBES, statistic=median) -> float:
    """Wall time of ``fn()`` in milliseconds over ``samples`` calls."""
    walls = []
    for _ in range(samples):
        begin = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - begin)
    return statistic(walls) * 1e3


def concurrent_probe_ms(probe, connections: int) -> float:
    """Mean of ``probe()`` (a mean in ms) run on ``connections`` threads at
    once, so the probe sees the contention the workload's connections add."""
    means = [0.0] * connections

    def thread_body(index: int) -> None:
        means[index] = probe()

    threads = [threading.Thread(target=thread_body, args=(i,))
               for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    if any(thread.is_alive() for thread in threads):
        raise ReproError("a concurrent probe did not finish")
    return statistics.fmean(means)


def transport_round_trip_ms(service: Service, body: bytes,
                            samples: int) -> float:
    """Mean round trip of a request-sized POST the service does not route.

    ``body`` is the encoded body of a one-row ``/probability`` request,
    sent as bytes on a keep-alive connection. The service answers 404
    before it parses the body or does any work, so this is the HTTP
    transport a request crosses, with no JSON work on the client side.
    """
    link = HTTPConnection(service.client.host, service.client.port,
                          timeout=60.0)

    def round_trip() -> None:
        link.request("POST", UNROUTED, body=body,
                     headers={"Content-Type": "application/json"})
        response = link.getresponse()
        response.read()
        if response.status != 404:
            raise ReproError(f"{UNROUTED} answered {response.status}")

    try:
        return probe_ms(round_trip, samples, statistics.fmean)
    finally:
        link.close()


def endpoint(stats: dict, path: str) -> dict:
    return stats["endpoints"].get(path, {"count": 0, "mean_ms": 0.0})


def traced_window(service: Service, seed: int, connections: int,
                  hot_share: float, seconds: float, tally) -> dict:
    """The window between two ``/stats`` snapshots, then the outside probes."""
    before = service.client.stats()
    _wall, records = closed_loop(service, seed, connections, hot_share,
                                 seconds)
    after = service.client.stats()
    check_served(service, records, tally)

    served = endpoint(after, "/probability")
    served_before = endpoint(before, "/probability")
    requests = served["count"] - served_before["count"]
    server_ms = (served["mean_ms"] * served["count"]
                 - served_before["mean_ms"] * served_before["count"]) / requests
    client_ms = 1e3 * sum(latency for *_, latency in records) / len(records)
    hits = after["result_cache"]["hits"] - before["result_cache"]["hits"]
    misses = after["result_cache"]["misses"] - before["result_cache"]["misses"]
    passes = after["coalescer"]["passes"] - before["coalescer"]["passes"]

    rng = np.random.default_rng([seed, 5])
    pass_1row_ms = probe_ms(lambda: service.compiled.probability_batch(
        rng.random((1, service.width))))
    row = rng.random(service.width).tolist()
    body = json.dumps({"digest": service.digest,
                       "rows": [list(map(float, row))]}).encode()
    http_ms = concurrent_probe_ms(
        lambda: transport_round_trip_ms(service, body, PROBES // connections),
        connections)
    reply = {"digest": service.digest, "marginals": [0.5],
             "cache_hits": 0, "cache_misses": 1}
    json_ms = probe_ms(lambda: (
        json.dumps({"digest": service.digest,
                    "rows": [list(map(float, row))]}).encode(),
        json.loads(json.dumps(reply).encode()),
    ), statistic=statistics.fmean)
    unaccounted_ms = client_ms - server_ms - http_ms - json_ms
    request_times = {
        "circuits.pass_1row_ms": pass_1row_ms,
        "service.server_ms": server_ms,
        "service.client_overhead_ms": client_ms - server_ms,
        "service.http_ms": http_ms,
        "service.json_ms": json_ms,
    }
    return {
        "times": request_times,
        "walls": dict.fromkeys(request_times, client_ms),
        "other": {
            "service.passes_per_request": passes / requests,
            "service.cache_hit_rate": hits / (hits + misses),
            "trace.unaccounted_s": unaccounted_ms / 1e3,
            "trace.unaccounted_share": unaccounted_ms / client_ms,
            "trace.overhead": 0.0,  # the request path is not traced
        },
    }


def run(args, tally) -> dict:
    chain = CHAIN[args.scale]
    connections = CONNECTIONS[args.workload]
    hot_share = HOT_SHARE[args.workload]
    setups = []
    if args.trace:
        spans = Spans()
        service = Service(args.seed, chain, spans)
    else:
        for _ in range(SETUP_SAMPLES - 1):
            earlier = Service(args.seed, chain, untraced)
            earlier.close()
            setups.append(earlier.setup_s)
        service = Service(args.seed, chain, untraced)
    try:
        check_first_answer(service, tally)
        if args.trace:
            traced = traced_window(service, args.seed, connections, hot_share,
                                   args.seconds, tally)
            cold_dd_pass(service, spans, tally)
            return layer_metrics(
                {**spans.seconds, **traced["times"]},
                {**dict.fromkeys(spans.seconds, service.setup_s),
                 **traced["walls"]},
                {**service.counts, **traced["other"]},
            )
        wall, records = closed_loop(service, args.seed, connections,
                                    hot_share, args.seconds)
        peak_rss_mb = service.peak_rss_mb()
    finally:
        service.close()
    check_served(service, records, tally)
    latencies = [latency for *_, latency in records]
    return {
        "setup_s": median(setups + [service.setup_s]),
        "job_p50_s": median(latencies),
        "req_p50_ms": median(latencies) * 1e3,
        "qps": len(records) / wall,
        "peak_rss_mb": peak_rss_mb,
        "samples": len(records),
        # Printed, not a result metric: a slow spell of the host doubles
        # the tail of a whole run, so no bound holds it (README).
        "notes": [f"req_p99_ms {chunked_p99(records) * 1e3:.4f} ms (median "
                  f"p99 over {P99_CHUNK}-request chunks; not gated)"],
    }
