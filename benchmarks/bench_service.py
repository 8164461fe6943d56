"""E19 — query-service throughput: coalesced vs uncoalesced request passes.

The always-on service (:mod:`repro.service`) argues that batching across
*users* is the same win as batching across *rows*: one level-scheduled
matrix pass costs barely more for 64 rows than for one, so merging
concurrent ``/probability`` requests into shared passes should raise QPS
roughly with the client count while keeping every marginal bit-identical.
This bench measures that claim end to end, over real sockets and real
``repro serve-http`` subprocesses:

- two services are spawned in sequence, identical except for the
  ``--no-coalesce`` flag (the every-request-its-own-pass baseline);
- each is hammered by 1, 8 and 64 concurrent clients, every request a
  single *cold* valuation row (unique per request, so the result cache
  never answers and each cell measures evaluation, not caching);
- per cell the bench records QPS, client-observed p50/p99 latency, and
  the service's own pass counters — ``passes / requests`` is the direct
  measure of how many requests shared one matrix pass;
- every served marginal is checked against the library's
  ``probability_batch`` on the same rows, **bitwise**.

The comparison used to be a 1e-12 tolerance: the uncoalesced baseline
evaluates one row per pass, and numpy's reduce kernels picked a
different inner loop for single-column value buffers than for wider
ones — exactly one ulp of drift on the 120-chain plan. The batch plan
now routes single rows through a width-2 broadcast pass so every batch
shape shares one reduction order, and the bench pins the strong claim:
served marginals equal ``probability_batch`` bit for bit, whatever mix
of pass shapes the coalescer produced.

The headline — ``coalescing_speedup_at_64`` — is overhead *elimination*
(fewer kernel launches for the same rows), not parallel speedup, so it
holds on a 1-CPU container just like the pool-amortization headline of
E15; the regression gate keeps it from silently regressing. The p99
latencies are reported for the record (wall-clock numbers on shared CI
are honest but noisy; the throughput ratio is the stable signal).

Run the table:  python benchmarks/bench_service.py
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import numpy as np

from repro.circuits import compile_circuit
from repro.core import build_lineage
from repro.queries import atom, cq, variables
from repro.service import ServiceClient, spawn_service
from repro.util import stable_rng
from repro.workloads import rst_chain_tid

CHAIN_LENGTH = 120        # same circuit family as E15: ~5.2k gates
FACT_PROBABILITY = 0.15
CLIENT_COUNTS = (1, 8, 64)
REQUESTS_PER_CELL = 256   # total requests per (mode, clients) cell

_REPO_ROOT = Path(__file__).resolve().parents[1]


def build_compiled():
    x, y = variables("x", "y")
    query = cq(atom("R", x), atom("S", x, y), atom("T", y))
    tid = rst_chain_tid(CHAIN_LENGTH, probability=FACT_PROBABILITY, seed=0)
    return compile_circuit(build_lineage(tid.instance, query).circuit)


def direct_marginals(compiled, rows):
    return compiled.probability_batch(np.asarray(rows, dtype=np.float64))


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, int(q * len(sorted_values)) - 1))
    return sorted_values[index]


def run_cell(url: str, digest: str, n_clients: int, rows: list[list[float]],
             passes_before: int) -> dict:
    """Hammer the service with ``n_clients`` threads over ``rows``.

    Each thread owns one keep-alive client and walks its slice of the
    cold rows, one row per request. Returns QPS, latency percentiles,
    the serve-side pass counters for the cell, and the served marginals
    (aligned with ``rows``) for the bit-identity check.
    """
    per_thread = len(rows) // n_clients
    served: list = [None] * len(rows)
    latencies: list[list[float]] = [[] for _ in range(n_clients)]
    errors: list = []
    start_barrier = threading.Barrier(n_clients + 1)

    def worker(thread_index: int) -> None:
        client = ServiceClient(url)
        try:
            start_barrier.wait(timeout=30.0)
            begin = thread_index * per_thread
            for offset in range(per_thread):
                row_index = begin + offset
                started = time.perf_counter()
                response = client.probability(digest, [rows[row_index]])
                latencies[thread_index].append(
                    time.perf_counter() - started
                )
                served[row_index] = response["marginals"][0]
        except Exception as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(n_clients)]
    for thread in threads:
        thread.start()
    start_barrier.wait(timeout=30.0)
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300.0)
    wall = time.perf_counter() - wall_start
    if errors:
        raise errors[0]
    stats_client = ServiceClient(url)
    try:
        coalescer = stats_client.stats()["coalescer"]
    finally:
        stats_client.close()
    total_requests = per_thread * n_clients
    all_latencies = sorted(
        value for bucket in latencies for value in bucket
    )
    return {
        "clients": n_clients,
        "requests": total_requests,
        "wall_seconds": wall,
        "qps": total_requests / wall if wall > 0 else 0.0,
        "p50_ms": _percentile(all_latencies, 0.50) * 1e3,
        "p99_ms": _percentile(all_latencies, 0.99) * 1e3,
        "passes": coalescer["passes"] - passes_before,
        "passes_total": coalescer["passes"],
        "served": served[:total_requests],
        "rows_used": total_requests,
    }


def run_mode(coalesce: bool, compiled, rng) -> dict:
    """One service lifetime: every client count against one spawn."""
    handle = spawn_service(coalesce=coalesce)
    cells = {}
    served_equal = True  # served == direct, bitwise (see module docstring)
    try:
        registrar = handle.client()
        digest = registrar.register_compiled(compiled)
        # One warmup pass so no cell pays first-request numpy warmup.
        width = len(compiled.variables())
        registrar.probability(digest, [[0.5] * width])
        for n_clients in CLIENT_COUNTS:
            passes_before = registrar.stats()["coalescer"]["passes"]
            rows = [[rng.random() for _ in range(width)]
                    for _ in range(REQUESTS_PER_CELL)]
            cell = run_cell(handle.url, digest, n_clients, rows,
                            passes_before)
            expected = [
                float(v)
                for v in direct_marginals(compiled, rows[:cell["rows_used"]])
            ]
            served = cell.pop("served")
            if len(served) != len(expected) or any(
                value is None or value != want
                for value, want in zip(served, expected)
            ):
                served_equal = False
            cells[str(n_clients)] = cell
    finally:
        try:
            handle.client(timeout=5.0).shutdown()
            handle.wait_dead(10.0)
        except Exception:
            pass
        handle.stop()
    return {"cells": cells, "served_matches_direct": served_equal}


def main() -> None:
    print("E19 — query service: coalesced vs uncoalesced request passes")
    compiled = build_compiled()
    print(f"plan: {compiled.size} gates, {len(compiled.variables())} "
          f"variables, digest {compiled.plan_digest()}")
    print("evaluation backend: numpy batch kernels")
    rng = stable_rng(19)
    modes = {
        "uncoalesced": run_mode(False, compiled, rng),
        "coalesced": run_mode(True, compiled, rng),
    }

    header = (f"{'mode':<13} {'clients':>7} {'requests':>8} {'passes':>7} "
              f"{'qps':>9} {'p50 ms':>8} {'p99 ms':>8}")
    print()
    print(header)
    for mode_name, mode in modes.items():
        for n_clients in CLIENT_COUNTS:
            cell = mode["cells"][str(n_clients)]
            print(f"{mode_name:<13} {cell['clients']:>7} "
                  f"{cell['requests']:>8} {cell['passes']:>7} "
                  f"{cell['qps']:>9.1f} {cell['p50_ms']:>8.2f} "
                  f"{cell['p99_ms']:>8.2f}")

    at64_coalesced = modes["coalesced"]["cells"]["64"]
    at64_uncoalesced = modes["uncoalesced"]["cells"]["64"]
    speedup_64 = (at64_coalesced["qps"] / at64_uncoalesced["qps"]
                  if at64_uncoalesced["qps"] > 0 else 0.0)
    passes_per_request_64 = (at64_coalesced["passes"]
                             / max(1, at64_coalesced["requests"]))
    served_equal = (modes["coalesced"]["served_matches_direct"]
                    and modes["uncoalesced"]["served_matches_direct"])
    print()
    print(f"coalescing speedup at 64 clients: {speedup_64:.2f}x "
          f"({at64_coalesced['qps']:.1f} vs {at64_uncoalesced['qps']:.1f} qps)")
    print(f"passes per request at 64 clients: {passes_per_request_64:.3f} "
          f"({at64_coalesced['passes']} passes for "
          f"{at64_coalesced['requests']} requests)")
    print("served marginals match probability_batch (bitwise): "
          + ("yes" if served_equal else "NO — INVESTIGATE"))

    result = {
        "experiment": "E19",
        "chain_length": CHAIN_LENGTH,
        "requests_per_cell": REQUESTS_PER_CELL,
        "modes": {
            name: {
                "served_matches_direct": mode["served_matches_direct"],
                "cells": mode["cells"],
            }
            for name, mode in modes.items()
        },
        "coalescing_speedup_at_64": speedup_64,
        "passes_per_request_at_64": passes_per_request_64,
        "p99_ms_coalesced_at_64": at64_coalesced["p99_ms"],
        "p99_ms_uncoalesced_at_64": at64_uncoalesced["p99_ms"],
        "served_matches_direct": served_equal,
    }
    out_path = _REPO_ROOT / "BENCH_service.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main()
