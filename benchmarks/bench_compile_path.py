"""E17 — the compile path: vectorized lowering, delta recompile, plan cache.

E13 made lowering the bottleneck visible: a ~13k-gate lineage circuit costs
tens of milliseconds of per-gate python before the first world is ever
evaluated — dwarfing the warm per-batch cost it feeds. This experiment measures the three attacks on that cost, on the
same Theorem-1 lineage circuit:

- **vectorized lowering** — the array passes (reachability, topo order,
  variable interning, CSR packing, level schedule) against the per-gate
  python lowering they replace, both producing bit-identical arrays;
- **delta recompilation** — a :class:`repro.workloads.logs.StreamingLogMonitor`
  grows a standing alarm query to E13 size, then appends ~1% more facts;
  :func:`repro.circuits.recompile` patches the dirty cone instead of
  re-lowering the world, and is timed against the full (still vectorized)
  compile of the same edited arena;
- **plan cache hit** — the lowering is stored once under
  ``REPRO_PLAN_CACHE_DIR``, then an identical arena built by a second
  "process" (a fresh :class:`Circuit` object) loads it back with zero
  lowering passes.

Every fast path is asserted gate-for-gate identical to a from-scratch
compile before its time is reported. Writes ``BENCH_compile_path.json``;
``check_regression.py`` gates the speedups and the equality booleans.

Run the table:  python benchmarks/bench_compile_path.py
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import config
from repro.circuits import Circuit, compile_circuit, recompile
from repro.circuits import compiled as compiled_module
from repro.circuits.compiled import CompiledCircuit
from repro.core import build_lineage
from repro.queries import atom, cq, variables
from repro.workloads import rst_chain_tid
from repro.workloads.logs import StreamingLogMonitor

CHAIN_LENGTH = 200  # the E13 circuit: ~13k reachable gates
MONITOR_TARGET_GATES = 13_000
MONITOR_BATCH = 48
DELTA_EDIT_FRACTION = 0.01
DELTA_SAMPLES = 5
CACHE_ARENAS = 3


def build_lineage_circuit() -> Circuit:
    x, y = variables("x", "y")
    query = cq(atom("R", x), atom("S", x, y), atom("T", y))
    tid = rst_chain_tid(CHAIN_LENGTH, seed=0)
    return build_lineage(tid.instance, query).circuit


def _best_of(run, repeats: int):
    """Best wall time over ``repeats`` runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def _same_lowering(left: CompiledCircuit, right: CompiledCircuit) -> bool:
    return (
        left.kinds == right.kinds
        and left.offsets == right.offsets
        and left.indices == right.indices
        and left.var_slot == right.var_slot
        and left.var_names == right.var_names
        and left.output == right.output
        and left.gate_ids == right.gate_ids
        and left.levels_list() == right.levels_list()
    )


def python_lowering(circuit: Circuit) -> CompiledCircuit:
    """The seed-era cold compile: per-gate python passes only.

    Raising ``VECTOR_MIN_GATES`` above the arena size keeps the lowering
    and the level pass (``levels_list``) on their python loops, so both
    sides of the comparison produce the same artifact — a lowering plus
    its level schedule, ready for batch planning and the wire format.
    """
    saved = compiled_module.VECTOR_MIN_GATES
    compiled_module.VECTOR_MIN_GATES = len(circuit) + 1
    try:
        compiled = CompiledCircuit(circuit)
        compiled.levels_list()
        return compiled
    finally:
        compiled_module.VECTOR_MIN_GATES = saved


def grow_monitor() -> StreamingLogMonitor:
    monitor = StreamingLogMonitor(machines=8, seed=3)
    monitor.append(MONITOR_BATCH)
    monitor.requery()
    while len(monitor.circuit) < MONITOR_TARGET_GATES:
        monitor.append(MONITOR_BATCH)
        monitor.requery()
    return monitor


def measure_delta(monitor: StreamingLogMonitor):
    """Time ``recompile`` after ~1% appends against the two compiles it
    replaces: a full vectorized relower of the same edited arena, and the
    seed-era per-gate python passes (which is what every recompile cost
    before the delta path existed). Every sample is checked identical."""
    best_delta = float("inf")
    best_full = float("inf")
    edited_gates = 0
    identical = True
    for _ in range(DELTA_SAMPLES):
        target = int(len(monitor.circuit) * (1 + DELTA_EDIT_FRACTION))
        before = len(monitor.circuit)
        while len(monitor.circuit) < target:
            monitor.append(MONITOR_BATCH)
        edited_gates = len(monitor.circuit) - before
        old = monitor.compiled
        start = time.perf_counter()
        delta = recompile(old, monitor.circuit)
        best_delta = min(best_delta, time.perf_counter() - start)
        monitor._compiled = delta
        start = time.perf_counter()
        full = CompiledCircuit(monitor.circuit)
        best_full = min(best_full, time.perf_counter() - start)
        identical = identical and _same_lowering(delta, full)
    best_cold, cold = _best_of(
        lambda: python_lowering(monitor.circuit), repeats=2
    )
    identical = identical and _same_lowering(monitor.compiled, cold)
    return best_delta, best_full, best_cold, edited_gates, identical


def measure_cache(build):
    """Store one lowering on disk, then time loading it into fresh arenas."""
    with tempfile.TemporaryDirectory() as directory:
        with config.overrides(plan_cache_dir=directory, plan_cache_min_gates=0):
            stored = compile_circuit(build())  # cold: lowers and stores
            reference = CompiledCircuit(stored.source)
            best = float("inf")
            identical = True
            for _ in range(CACHE_ARENAS):
                arena = build()  # a fresh identical "process"
                lowerings = compiled_module.compile_stats()["lowerings"]
                start = time.perf_counter()
                loaded = compile_circuit(arena)
                best = min(best, time.perf_counter() - start)
                assert compiled_module.compile_stats()["lowerings"] == lowerings, (
                    "cache hit must not run a lowering pass"
                )
                identical = identical and _same_lowering(loaded, reference)
    return best, identical


def main() -> None:
    print("E17 — compile path: vectorized lowering, delta recompile, plan cache")
    circuit = build_lineage_circuit()
    gates = len(circuit.reachable_from_output())
    print(f"lineage circuit: {gates} reachable gates,"
          f" {len(circuit.variables())} variables")
    print(f"lowering backend: numpy {np.__version__} array lowering passes")

    cold_seconds, cold = _best_of(lambda: python_lowering(circuit), repeats=3)
    vector_seconds, vectorized = _best_of(
        lambda: CompiledCircuit(circuit), repeats=5
    )
    lowerings_identical = _same_lowering(vectorized, cold)
    vectorized_speedup = cold_seconds / vector_seconds

    monitor = grow_monitor()
    monitor_gates = len(monitor.circuit)
    delta_seconds, full_seconds, monitor_cold_seconds, edited_gates, \
        delta_identical = measure_delta(monitor)
    delta_speedup = full_seconds / delta_seconds
    delta_vs_cold = monitor_cold_seconds / delta_seconds

    cache_hit_seconds, cache_identical = measure_cache(build_lineage_circuit)
    cache_hit_speedup = cold_seconds / cache_hit_seconds

    print(f"\n{'path':<42} {'time':>11} {'speedup':>9}")
    rows = [
        ("cold compile, per-gate python", cold_seconds, 1.0),
        ("cold compile, vectorized passes", vector_seconds, vectorized_speedup),
        (f"delta recompile after {edited_gates}-gate edit",
         delta_seconds, delta_vs_cold),
        ("plan-cache hit (fresh identical arena)",
         cache_hit_seconds, cache_hit_speedup),
    ]
    for label, seconds, speedup in rows:
        print(f"{label:<42} {seconds * 1e3:>8.3f} ms {speedup:>8.1f}x")
    print(f"(delta baselines, same {monitor_gates}-gate monitor arena: "
          f"{monitor_cold_seconds * 1e3:.3f} ms per-gate python, "
          f"{full_seconds * 1e3:.3f} ms vectorized full compile = "
          f"{delta_speedup:.1f}x)")

    result = {
        "gates": gates,
        "variables": len(circuit.variables()),
        "cold_lower_seconds": cold_seconds,
        "vector_lower_seconds": vector_seconds,
        "vectorized_speedup": vectorized_speedup,
        "vectorized_equals_python": lowerings_identical,
        "monitor_gates": monitor_gates,
        "delta_edit_gates": edited_gates,
        "delta_recompile_seconds": delta_seconds,
        "full_relower_seconds": full_seconds,
        "monitor_cold_lower_seconds": monitor_cold_seconds,
        "delta_recompile_speedup": delta_speedup,
        "delta_speedup_vs_cold_python": delta_vs_cold,
        "delta_equals_fresh": delta_identical,
        "cache_hit_lower_seconds": cache_hit_seconds,
        "cache_hit_speedup": cache_hit_speedup,
        "cache_loaded_equals_fresh": cache_identical,
    }
    out_path = Path(__file__).resolve().parents[1] / "BENCH_compile_path.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {out_path}")

    targets = [
        ("vectorized cold compile >= 5x python", vectorized_speedup, 5.0),
        ("delta recompile >= 20x the cold compile it replaces (~1% edit)",
         delta_vs_cold, 20.0),
        ("delta recompile >= 5x even a vectorized full relower",
         delta_speedup, 5.0),
        ("plan-cache hit >= 8x cold python compile",
         cache_hit_speedup, 8.0),
    ]
    for label, value, floor in targets:
        verdict = "PASS" if value >= floor else "FAIL"
        print(f"target: {label} — {verdict} ({value:.1f}x)")
    for label, flag in [
        ("vectorized lowering bit-identical to python", lowerings_identical),
        ("delta recompile bit-identical to fresh", delta_identical),
        ("cache-loaded plan bit-identical to fresh", cache_identical),
    ]:
        print(f"check: {label} — {'PASS' if flag else 'FAIL'}")


if __name__ == "__main__":
    main()
