"""E14 — sharded multi-process batch evaluation vs the single-process kernel.

The fourth lowering stage, measured on a Monte-Carlo workload: estimate
P(∃xy R(x)S(x,y)T(y)) on an R–S–T chain TID by sampling worlds and pushing
them through the compiled lineage circuit. Compared paths:

- **baseline** — PR 2's single-process numpy batch kernel: one sequential
  ``default_rng`` draws float64 world chunks in the parent, each chunk runs
  through ``CompiledCircuit.evaluate_batch``, hits are summed in Python;
- **fused, in-process** — :func:`repro.circuits.parallel.monte_carlo_hits`
  with ``workers=0``: the deterministic ``(seed, shard)`` scheme, float32
  draws, hit counts reduced without leaving numpy;
- **fused, sharded** — the same shards dispatched to 1 / 2 / 4 worker
  processes that rebuild the plan from shared memory and generate their own
  worlds, so the world matrix never exists in the parent.

A second table shards a large ``probability_batch`` marginal matrix
(row-split through shared memory) against the in-process float pass.

Every fused row must produce the *same hit count* for the fixed seed
regardless of worker count — the bench asserts it. Wall-clock speedup at 4
workers is the acceptance headline; near-linear scaling needs >= 4 physical
cores, so the JSON records ``cpu_count`` and the speedup observed on the
machine that ran it (on a single-core host only the fused-kernel advantage
remains and the scaling rows stay flat — the numbers are honest either
way). CI regenerates ``BENCH_parallel_eval.json`` on multicore runners and
uploads it as an artifact.

Run the table:  python benchmarks/bench_parallel_eval.py
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.circuits import compile_circuit
from repro.circuits import parallel
from repro.core import build_lineage
from repro.queries import atom, cq, variables
from repro.workloads import rst_chain_tid

CHAIN_LENGTH = 120  # ~5.2k reachable gates, ~360 variables
FACT_PROBABILITY = 0.15  # keeps P(query) well inside (0, 1) at this length
MC_SAMPLES = 400_000
PROBABILITY_ROWS = 20_000
WORKER_COUNTS = (1, 2, 4)
SEED = 0

#: Acceptance target: wall-clock speedup of the 4-worker fused path over
#: the single-process numpy batch kernel (needs >= 4 physical cores).
TARGET_SPEEDUP = 2.5


def build_compiled():
    x, y = variables("x", "y")
    query = cq(atom("R", x), atom("S", x, y), atom("T", y))
    tid = rst_chain_tid(CHAIN_LENGTH, probability=FACT_PROBABILITY, seed=0)
    lineage = build_lineage(tid.instance, query)
    return compile_circuit(lineage.circuit), tid.event_space()


def baseline_monte_carlo(np, compiled, probs, samples: int, seed: int) -> int:
    """PR 2's single-process numpy batch kernel, verbatim: the reference."""
    rng = np.random.default_rng(seed)
    chunk = 1 << 14
    hits = 0
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        worlds = rng.random((count, probs.size)) < probs
        hits += sum(compiled.evaluate_batch(worlds))
    return hits


def _timed(fn, repeats: int = 3):
    """Best wall time over ``repeats`` runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> None:
    print("E14 — sharded multi-process vs single-process batch evaluation")
    cpu_count = os.cpu_count() or 1
    compiled, space = build_compiled()
    probs = np.asarray([space.probability(n) for n in compiled.variables()])
    print(f"lineage circuit: {compiled.size} gates,"
          f" {len(compiled.variables())} variables; {cpu_count} CPU(s) visible")
    print(f"Monte-Carlo workload: {MC_SAMPLES} samples, seed {SEED}")
    compiled.evaluate_batch(np.zeros((4, probs.size), dtype=bool))  # warm plan

    baseline_seconds, baseline_hits = _timed(
        lambda: baseline_monte_carlo(np, compiled, probs, MC_SAMPLES, SEED)
    )
    rows = [("single-process numpy kernel", baseline_seconds, 1.0, baseline_hits)]

    fused_seconds, fused_hits = _timed(
        lambda: parallel.monte_carlo_hits(
            compiled, probs, MC_SAMPLES, seed=SEED, workers=0
        )
    )
    rows.append(
        ("fused sample+evaluate, in-process", fused_seconds,
         baseline_seconds / fused_seconds, fused_hits)
    )

    worker_seconds: dict[int, float] = {}
    hit_counts = {0: fused_hits}
    for workers in WORKER_COUNTS:
        seconds, hits = _timed(
            lambda workers=workers: parallel.monte_carlo_hits(
                compiled, probs, MC_SAMPLES, seed=SEED, workers=workers
            )
        )
        worker_seconds[workers] = seconds
        hit_counts[workers] = hits
        rows.append(
            (f"fused sharded, {workers} worker(s)", seconds,
             baseline_seconds / seconds, hits)
        )
    assert len(set(hit_counts.values())) == 1, (
        f"fixed-seed estimates must be identical across worker counts: {hit_counts}"
    )

    print(f"\n{'path':<38} {'wall':>10} {'speedup':>9} {'estimate':>10}")
    for label, seconds, speedup, hits in rows:
        print(f"{label:<38} {seconds:>8.3f} s {speedup:>8.2f}x"
              f" {hits / MC_SAMPLES:>10.6f}")

    # Row-sharded probability_batch on a large marginal matrix.
    matrix = np.tile(probs, (PROBABILITY_ROWS, 1))
    serial_prob_seconds, serial_probs = _timed(
        lambda: compiled.probability_batch(matrix)
    )
    sharded_prob_seconds, sharded_probs = _timed(
        lambda: parallel.probability_batch_sharded(compiled, matrix, workers=4)
    )
    assert np.allclose(serial_probs, sharded_probs), "sharded rows must agree"
    prob_speedup = serial_prob_seconds / sharded_prob_seconds
    print(f"\nprobability_batch, {PROBABILITY_ROWS} rows:")
    print(f"{'in-process float pass':<38} {serial_prob_seconds:>8.3f} s {1.0:>8.2f}x")
    print(f"{'row-sharded, 4 workers':<38} {sharded_prob_seconds:>8.3f} s"
          f" {prob_speedup:>8.2f}x")

    speedup_at_4 = baseline_seconds / worker_seconds[4]
    result = {
        "gates": compiled.size,
        "variables": len(compiled.variables()),
        "cpu_count": cpu_count,
        "mc_samples": MC_SAMPLES,
        "seed": SEED,
        "estimate": fused_hits / MC_SAMPLES,
        "estimates_identical_across_worker_counts": True,
        "baseline_seconds": baseline_seconds,
        "fused_inprocess_seconds": fused_seconds,
        "fused_kernel_speedup": baseline_seconds / fused_seconds,
        "worker_seconds": {str(w): s for w, s in worker_seconds.items()},
        "worker_speedups": {
            str(w): baseline_seconds / s for w, s in worker_seconds.items()
        },
        "speedup_at_4_workers": speedup_at_4,
        "probability_batch_rows": PROBABILITY_ROWS,
        "probability_batch_serial_seconds": serial_prob_seconds,
        "probability_batch_sharded_seconds": sharded_prob_seconds,
        "probability_batch_speedup": prob_speedup,
        "target_speedup_at_4_workers": TARGET_SPEEDUP,
        "note": (
            "speedups are wall-clock on this machine; the >= 2.5x target "
            "assumes >= 4 physical cores — on fewer cores the sharded rows "
            "collapse onto the fused in-process kernel's advantage"
        ),
    }
    out_path = Path(__file__).resolve().parents[1] / "BENCH_parallel_eval.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {out_path}")
    verdict = "PASS" if speedup_at_4 >= TARGET_SPEEDUP else "FAIL"
    print(f"target: >= {TARGET_SPEEDUP}x over the single-process kernel at "
          f"4 workers — {verdict} ({speedup_at_4:.2f}x on {cpu_count} CPU(s))")
    if cpu_count < 4 and speedup_at_4 < TARGET_SPEEDUP:
        print("note: this host exposes fewer than 4 CPUs; the sharded path "
              "cannot scale here and the measured speedup is the fused "
              "kernel's alone. Re-run on >= 4 cores (CI does) for the "
              "scaling result.")
    parallel.shutdown_pool()


if __name__ == "__main__":
    main()
