"""E17 — the compile path: the array lowering against the per-gate reference.

E13 made lowering the bottleneck visible: a ~13k-gate lineage circuit costs
tens of milliseconds of per-gate python before the first world is ever
evaluated — dwarfing the warm per-batch cost it feeds. The array lowering
(reachability by peeling, topological order, variable interning, CSR
packing, the level schedule) is the one lowering :class:`CompiledCircuit`
runs; the per-gate python loop survives only as
:func:`repro.circuits.compiled.reference_lowering`, which nothing in the
package calls. This experiment times both, and checks the lowering
bit-identical to the reference, on three circuits:

- **E13's lineage** — the Theorem-1 lineage of a 200-link chain;
- **the streaming monitor** — a :class:`repro.workloads.logs.StreamingLogMonitor`
  grown to E13 size, then re-queried after ~1% more facts: each requery
  lowers the grown arena afresh;
- **a deep lineage** — the chain lineage of ``rst_chain_tid(3000)`` under a
  left-to-right elimination order, 11,998 levels deep. Lowering's cost
  follows the gates, not the depth.

On E13's lineage and the deep one it also times the level plan built on
the lowering (same-kind AND/OR chains folded into n-ary gates) and a
warm one-row float pass on it, checked bitwise against the scalar pass,
and reports the plan's levels and groups beside the lowering's.

Writes ``BENCH_compile_path.json``; ``check_regression.py`` gates the
E13 speedup, the three lowering equality booleans and the two plan pass
booleans, and reports the plan's other rows.

Run the table:  python benchmarks/bench_compile_path.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.circuits import Circuit
from repro.circuits import compiled as compiled_module
from repro.circuits.compiled import CompiledCircuit, reference_lowering
from repro.core import build_lineage
from repro.queries import atom, cq, variables
from repro.treewidth.decomposition import from_elimination_order
from repro.workloads import rst_chain_tid
from repro.workloads.logs import StreamingLogMonitor

CHAIN_LENGTH = 200  # the E13 circuit: ~13k reachable gates
DEEP_CHAIN_LENGTH = 3000  # 11,998 levels under a left-to-right order
MONITOR_TARGET_GATES = 13_000
MONITOR_BATCH = 48
REQUERY_EDIT_FRACTION = 0.01
REQUERY_SAMPLES = 5

X, Y = variables("x", "y")
Q_RST = cq(atom("R", X), atom("S", X, Y), atom("T", Y))


def build_lineage_circuit() -> Circuit:
    tid = rst_chain_tid(CHAIN_LENGTH, seed=0)
    return build_lineage(tid.instance, Q_RST).circuit


def build_deep_circuit() -> Circuit:
    """The chain lineage eliminated left to right: four levels per link."""
    tid = rst_chain_tid(DEEP_CHAIN_LENGTH, seed=0, backend="object")
    graph = tid.instance.gaifman_graph()
    decomposition = from_elimination_order(graph, sorted(graph.nodes))
    return build_lineage(tid.instance, Q_RST, decomposition).circuit


def _best_of(run, repeats: int):
    """Best wall time over ``repeats`` runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure_plan(compiled: CompiledCircuit, repeats: int) -> dict:
    """Build time of the level plan, its shape, and a warm one-row float
    pass on it (median of ``repeats``), checked bitwise against
    :meth:`CompiledCircuit.probability`."""
    arrays = (*compiled.plan.arrays(), compiled.output)
    build_seconds, plan = _best_of(
        lambda: compiled_module._BatchPlan(*arrays), repeats=repeats
    )
    row = np.random.default_rng(17).random((1, len(compiled.variables())))
    plan.run(row, True)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        answer = plan.run(row, True)
        times.append(time.perf_counter() - start)
    scalar = compiled.probability(row[0].tolist())
    return {
        "build_seconds": build_seconds,
        "pass_1row_seconds": float(np.median(times)),
        "levels": len(plan.levels),
        "groups": sum(len(level) for level in plan.levels),
        "equals_scalar": bool(
            np.array_equal(answer.view(np.uint64),
                           np.array([scalar]).view(np.uint64))
        ),
    }


def _same_lowering(compiled: CompiledCircuit, reference: dict) -> bool:
    """Whether ``compiled`` holds the arrays of :func:`reference_lowering`."""
    return reference == {
        "kinds": compiled.kinds,
        "offsets": compiled.offsets,
        "indices": compiled.indices,
        "var_slot": compiled.var_slot,
        "var_names": compiled.var_names,
        "output": compiled.output,
        "gate_ids": compiled.gate_ids,
        "levels": compiled.plan.levels.tolist(),
    }


def grow_monitor() -> StreamingLogMonitor:
    monitor = StreamingLogMonitor(machines=8, seed=3)
    monitor.append(MONITOR_BATCH)
    monitor.requery()
    while len(monitor.circuit) < MONITOR_TARGET_GATES:
        monitor.append(MONITOR_BATCH)
        monitor.requery()
    return monitor


def measure_requery(monitor: StreamingLogMonitor):
    """Time ``requery`` after ~1% appends, each checked against the
    per-gate reference lowering of the same grown arena."""
    best = float("inf")
    edited_gates = 0
    identical = True
    for _ in range(REQUERY_SAMPLES):
        target = int(len(monitor.circuit) * (1 + REQUERY_EDIT_FRACTION))
        before = len(monitor.circuit)
        while len(monitor.circuit) < target:
            monitor.append(MONITOR_BATCH)
        edited_gates = len(monitor.circuit) - before
        start = time.perf_counter()
        compiled = monitor.requery()
        best = min(best, time.perf_counter() - start)
        identical = identical and _same_lowering(
            compiled, reference_lowering(monitor.circuit)
        )
    return best, edited_gates, identical


def main() -> None:
    print("E17 — compile path: array lowering vs the per-gate reference")
    circuit = build_lineage_circuit()
    gates = len(circuit.reachable_from_output())
    print(f"lineage circuit: {gates} reachable gates,"
          f" {len(circuit.variables())} variables")
    print(f"lowering backend: numpy {np.__version__} array lowering passes")

    cold_seconds, cold = _best_of(lambda: reference_lowering(circuit), repeats=3)
    vector_seconds, vectorized = _best_of(
        lambda: CompiledCircuit(circuit), repeats=5
    )
    lowerings_identical = _same_lowering(vectorized, cold)
    vectorized_speedup = cold_seconds / vector_seconds

    monitor = grow_monitor()
    monitor_gates = len(monitor.circuit)
    requery_seconds, edited_gates, requery_identical = measure_requery(monitor)

    deep = build_deep_circuit()
    deep_python_seconds, deep_cold = _best_of(
        lambda: reference_lowering(deep), repeats=2
    )
    deep_vector_seconds, deep_vectorized = _best_of(
        lambda: CompiledCircuit(deep), repeats=3
    )
    deep_identical = _same_lowering(deep_vectorized, deep_cold)
    deep_levels = int(deep_vectorized.plan.levels.max())
    plan = measure_plan(vectorized, repeats=9)
    deep_plan = measure_plan(deep_vectorized, repeats=5)

    print(f"\n{'path':<46} {'time':>11} {'speedup':>9}")
    rows = [
        ("E13 lineage, per-gate reference", cold_seconds, 1.0),
        ("E13 lineage, array passes", vector_seconds, vectorized_speedup),
        (f"monitor requery after {edited_gates}-gate edit",
         requery_seconds, None),
        (f"deep lineage ({deep_levels} levels), per-gate reference",
         deep_python_seconds, 1.0),
        ("deep lineage, array passes", deep_vector_seconds,
         deep_python_seconds / deep_vector_seconds),
    ]
    for label, seconds, speedup in rows:
        shown = f"{speedup:>8.1f}x" if speedup is not None else f"{'':>9}"
        print(f"{label:<46} {seconds * 1e3:>8.3f} ms {shown}")
    print(f"(monitor: {monitor_gates}-gate arena; deep lineage: "
          f"{deep_vectorized.size} gates)")

    print(f"\n{'level plan':<16} {'levels':>7} {'plan levels':>12} "
          f"{'groups':>7} {'build':>11} {'warm 1-row pass':>16}")
    for label, lowered, measured in (("E13 lineage", vectorized, plan),
                                     ("deep lineage", deep_vectorized,
                                      deep_plan)):
        print(f"{label:<16} {int(lowered.plan.levels.max()):>7} "
              f"{measured['levels']:>12} {measured['groups']:>7} "
              f"{measured['build_seconds'] * 1e3:>8.2f} ms "
              f"{measured['pass_1row_seconds'] * 1e3:>13.3f} ms")

    result = {
        "gates": gates,
        "variables": len(circuit.variables()),
        "cold_lower_seconds": cold_seconds,
        "vector_lower_seconds": vector_seconds,
        "vectorized_speedup": vectorized_speedup,
        "vectorized_equals_python": lowerings_identical,
        "monitor_gates": monitor_gates,
        "requery_edit_gates": edited_gates,
        "monitor_requery_seconds": requery_seconds,
        "requery_equals_python": requery_identical,
        "deep_gates": deep_vectorized.size,
        "deep_levels": deep_levels,
        "deep_python_lower_seconds": deep_python_seconds,
        "deep_vector_lower_seconds": deep_vector_seconds,
        "deep_vectorized_equals_python": deep_identical,
        "plan_levels": plan["levels"],
        "plan_groups": plan["groups"],
        "plan_build_seconds": plan["build_seconds"],
        "plan_pass_1row_seconds": plan["pass_1row_seconds"],
        "plan_pass_equals_scalar": plan["equals_scalar"],
        "deep_plan_levels": deep_plan["levels"],
        "deep_plan_groups": deep_plan["groups"],
        "deep_plan_build_seconds": deep_plan["build_seconds"],
        "deep_plan_pass_1row_seconds": deep_plan["pass_1row_seconds"],
        "deep_plan_pass_equals_scalar": deep_plan["equals_scalar"],
    }
    out_path = Path(__file__).resolve().parents[1] / "BENCH_compile_path.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {out_path}")

    verdict = "PASS" if vectorized_speedup >= 5.0 else "FAIL"
    print(f"target: array lowering >= 5x the reference on E13's lineage — {verdict}"
          f" ({vectorized_speedup:.1f}x)")
    for label, flag in [
        ("array lowering bit-identical to the reference", lowerings_identical),
        ("monitor requery bit-identical to the reference", requery_identical),
        ("deep lineage bit-identical to the reference", deep_identical),
        ("one-row plan pass bit-identical to the scalar pass",
         plan["equals_scalar"] and deep_plan["equals_scalar"]),
    ]:
        print(f"check: {label} — {'PASS' if flag else 'FAIL'}")


if __name__ == "__main__":
    main()
