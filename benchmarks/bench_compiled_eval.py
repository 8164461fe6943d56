"""E13 — compiled circuit IR vs object-graph evaluation throughput.

The compile-once/evaluate-many claim, measured: build one ~10k-gate lineage
circuit (the Theorem-1 pipeline on an R–S–T chain TID), then compare

- repeated d-D probability evaluation: the seed object-graph walker
  (re-walks the hash-consed DAG with per-gate dicts on every call) against
  :meth:`CompiledCircuit.probability`, the scalar pass over the flat IR;
- per-world Boolean evaluation: ``Circuit.evaluate`` with a fresh valuation
  dict per world against the scalar pass (:meth:`CompiledCircuit.evaluate`)
  and against the level-scheduled numpy batch kernels (thousands of worlds
  per pass);
- batched marginal evaluation: the scalar :meth:`CompiledCircuit.probability`
  per row against :meth:`CompiledCircuit.probability_batch`.

The scalar rows time the pass that interprets the flat arrays gate by gate.
They timed a generated straight-line Python function per circuit until
that was retired, because every caller of the scalar pass is one-shot and
writing the function cost far more than the pass. So ``batch_speedup`` and
``probability_batch_speedup`` (the gated ratios) rose, and
``probability_speedup``, which repeats one row on one warm circuit (the one
use the generated function served), fell below its printed 5x target. The
JSON keys keep their ``kernel_`` names.

Writes ``BENCH_compiled_eval.json`` next to the repository root with the
raw numbers so CI can track the speedup.

Run the table:  python benchmarks/bench_compiled_eval.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.circuits import compile_circuit
from repro.circuits.dd import _probability_dd_object_graph
from repro.core import build_lineage
from repro.queries import atom, cq, variables
from repro.workloads import rst_chain_tid

CHAIN_LENGTH = 200  # ~13k reachable gates, comfortably past the 10k target
PROBABILITY_REPEATS = 20
OBJECT_WORLD_COUNT = 50  # the object-graph walker is too slow for more
BATCH_WORLD_COUNT = 2000  # the acceptance target is >= 1000 worlds
PROBABILITY_BATCH_ROWS = 200

#: PR 1's measured batch_speedup (generated scalar kernel vs object graph);
#: the numpy kernels must beat it by >= 3x at >= 1000 worlds.
PR1_BATCH_SPEEDUP = 32.8


def build_circuit():
    x, y = variables("x", "y")
    query = cq(atom("R", x), atom("S", x, y), atom("T", y))
    tid = rst_chain_tid(CHAIN_LENGTH, seed=0)
    lineage = build_lineage(tid.instance, query)
    return lineage, tid.event_space()


def sample_worlds(n_worlds: int, n_vars: int, seed: int = 0):
    """``n_worlds`` fair-coin worlds, as a numpy bool matrix."""
    return np.random.default_rng(seed).random((n_worlds, n_vars)) < 0.5


def _best_of(run, per_call_divisor: int, repeats: int):
    """Best per-call wall time over ``repeats`` runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best / per_call_divisor, result


def scalar_only_batch(compiled, rows):
    """One scalar pass per world: the one-world evaluation path."""
    return [compiled.evaluate(row) for row in rows]


def main() -> None:
    print("E13 — compiled circuit IR vs object-graph evaluation")
    lineage, space = build_circuit()
    circuit = lineage.circuit
    gates = len(circuit.reachable_from_output())
    print(f"lineage circuit: {gates} reachable gates,"
          f" {len(circuit.variables())} variables")
    print(f"batch backend: numpy {np.__version__} level-scheduled kernels")

    start = time.perf_counter()
    compiled = compile_circuit(circuit)
    marginals = compiled.slot_marginals(space)
    compiled.probability(marginals)  # the CSR lists the scalar pass reads
    compiled.evaluate_batch([[False] * len(compiled.variables())])  # batch plan
    compile_seconds = time.perf_counter() - start

    # Repeated probability evaluation (the Theorem-1 hot path).
    start = time.perf_counter()
    for _ in range(PROBABILITY_REPEATS):
        p_object = _probability_dd_object_graph(circuit, space)
    object_seconds = (time.perf_counter() - start) / PROBABILITY_REPEATS
    start = time.perf_counter()
    for _ in range(PROBABILITY_REPEATS):
        p_compiled = compiled.probability(marginals)
    compiled_seconds = (time.perf_counter() - start) / PROBABILITY_REPEATS
    assert abs(p_object - p_compiled) < 1e-9, "paths must agree"
    probability_speedup = object_seconds / compiled_seconds

    # Per-world evaluation: object graph (small sample, it is slow) ...
    names = compiled.variables()
    object_rows = sample_worlds(OBJECT_WORLD_COUNT, len(names), seed=0)
    dict_rows = [dict(zip(names, row)) for row in object_rows]
    start = time.perf_counter()
    object_bits = [circuit.evaluate(row) for row in dict_rows]
    object_world_seconds = (time.perf_counter() - start) / OBJECT_WORLD_COUNT

    # ... vs the scalar pass and the numpy batch kernels, both
    # on the same >= 1000-world batch (best of a few runs, timers are noisy
    # at these durations).
    batch_rows = sample_worlds(BATCH_WORLD_COUNT, len(names), seed=1)
    kernel_world_seconds, kernel_bits = _best_of(
        lambda: scalar_only_batch(compiled, batch_rows), BATCH_WORLD_COUNT, repeats=3
    )
    batch_world_seconds, batch_bits = _best_of(
        lambda: compiled.evaluate_batch(batch_rows), BATCH_WORLD_COUNT, repeats=7
    )
    assert batch_bits == kernel_bits, "batch kernels must agree with scalar"
    assert object_bits == scalar_only_batch(compiled, object_rows), (
        "compiled paths must agree with the object graph"
    )
    kernel_speedup = object_world_seconds / kernel_world_seconds
    batch_speedup = object_world_seconds / batch_world_seconds

    # Batched Theorem-1 probability rows.
    prob_rows = [list(marginals) for _ in range(PROBABILITY_BATCH_ROWS)]
    scalar_prob_row_seconds, scalar_probs = _best_of(
        lambda: [compiled.probability(row) for row in prob_rows],
        PROBABILITY_BATCH_ROWS,
        repeats=3,
    )
    batch_prob_row_seconds, batch_probs = _best_of(
        lambda: compiled.probability_batch(prob_rows), PROBABILITY_BATCH_ROWS, repeats=5
    )
    assert all(abs(a - b) < 1e-9 for a, b in zip(scalar_probs, batch_probs))
    probability_batch_speedup = scalar_prob_row_seconds / batch_prob_row_seconds

    print(f"\none-time compile + plan build: {compile_seconds * 1e3:.1f} ms")
    print(f"{'path':<38} {'per call':>12} {'speedup':>9}")
    rows = [
        ("probability, object graph", object_seconds, 1.0),
        ("probability, compiled IR", compiled_seconds, probability_speedup),
        ("world eval, object graph", object_world_seconds, 1.0),
        ("world eval, scalar pass", kernel_world_seconds, kernel_speedup),
        ("world eval, numpy batch", batch_world_seconds, batch_speedup),
        ("probability rows, scalar", scalar_prob_row_seconds, 1.0),
        ("probability rows, batched", batch_prob_row_seconds, probability_batch_speedup),
    ]
    for label, seconds, speedup in rows:
        print(f"{label:<38} {seconds * 1e3:>9.3f} ms {speedup:>8.1f}x")

    result = {
        "gates": gates,
        "variables": len(names),
        "probability_repeats": PROBABILITY_REPEATS,
        "world_count": OBJECT_WORLD_COUNT,
        "batch_world_count": BATCH_WORLD_COUNT,
        "compile_seconds": compile_seconds,
        "object_probability_seconds": object_seconds,
        "compiled_probability_seconds": compiled_seconds,
        "probability_speedup": probability_speedup,
        "object_world_seconds": object_world_seconds,
        "kernel_world_seconds": kernel_world_seconds,
        "kernel_batch_speedup": kernel_speedup,
        "compiled_world_seconds": batch_world_seconds,
        "batch_speedup": batch_speedup,
        "probability_batch_rows": PROBABILITY_BATCH_ROWS,
        "scalar_probability_row_seconds": scalar_prob_row_seconds,
        "batched_probability_row_seconds": batch_prob_row_seconds,
        "probability_batch_speedup": probability_batch_speedup,
    }
    out_path = Path(__file__).resolve().parents[1] / "BENCH_compiled_eval.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {out_path}")
    verdict = "PASS" if probability_speedup >= 5.0 else "FAIL"
    print(f"target: >= 5x on repeated probability evaluation — {verdict}"
          f" ({probability_speedup:.1f}x)")
    target = 3.0 * PR1_BATCH_SPEEDUP
    verdict = "PASS" if batch_speedup >= target else "FAIL"
    print(f"target: >= {target:.0f}x batch eval at >= 1000 worlds "
          f"(3x the PR 1 kernel speedup of {PR1_BATCH_SPEEDUP}x) — "
          f"{verdict} ({batch_speedup:.1f}x)")


if __name__ == "__main__":
    main()
