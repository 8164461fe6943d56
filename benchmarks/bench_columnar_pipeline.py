"""E18 — the columnar U-relation pipeline vs the object pipeline, at scale.

Runs the full generate → query → provenance → compile pipeline for the
Q_RST chain workload on both instance backends and three sizes (about
10^4, 10^5 and 10^6 facts). The object path is skipped at 10^6 — the point
of the columnar backend is that the largest size never materializes a
single :class:`~repro.instances.base.Fact`, which this benchmark asserts
via the ``facts_materialized`` counter.

Correctness is checked, not assumed, at the sizes where both backends run:

* the provenance circuits' flat arena arrays must be bit-identical,
* the compiled lowerings must be bit-identical, and
* a seeded Monte-Carlo marginal (worlds sampled from the TID event space,
  pushed through the compiled batch kernels) must be bit-identical —
  a deterministic function of the circuit arrays and the per-fact
  probabilities, so any drift in either shows up as a float mismatch.

Writes ``BENCH_columnar_pipeline.json`` at the repo root; the committed
copy is the baseline that ``check_regression.py`` gates in CI.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.circuits import compile_circuit
from repro.core.engine import build_provenance_circuit
from repro.instances.columnar import ColumnarInstance
from repro.queries import atom, cq, variables
from repro.workloads.generators import rst_chain_tid

x, y = variables("x", "y")
Q_RST = cq(atom("R", x), atom("S", x, y), atom("T", y))

# rst_chain_tid(n) holds 3n - 1 facts; these n values hit ~1e4/1e5/1e6.
SIZES = ((3_334, "1e4"), (33_334, "1e5"), (333_334, "1e6"))
LARGEST = "1e6"
MC_WORLDS = 256
MC_SEED = 7

FLAT_ARRAYS = (
    "_kind_codes",
    "_var_slots",
    "_inputs_flat",
    "_input_offsets",
    "_gate_levels",
)


def _count_witnesses(instance) -> int:
    """The query stage: how many homomorphisms does Q_RST have?"""
    if isinstance(instance, ColumnarInstance):
        from repro.queries.vectorized import evaluate_cq

        return evaluate_cq(Q_RST, instance).n_rows
    return sum(1 for _ in Q_RST.homomorphisms(instance))


def _best_pipeline(n: int, backend: str, repeats: int) -> dict:
    """Best-of-``repeats`` run of :func:`_run_pipeline` (same seed, same
    outputs every run — only the clock differs)."""
    runs = [_run_pipeline(n, backend) for _ in range(repeats)]
    return min(runs, key=lambda r: r["stages"]["total"])


def _run_pipeline(n: int, backend: str) -> dict:
    """Time each stage of the pipeline on one backend; return stages + state."""
    stages: dict[str, float] = {}
    t0 = time.perf_counter()
    tid = rst_chain_tid(n, seed=0, backend=backend)
    stages["generate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    witnesses = _count_witnesses(tid.instance)
    stages["query"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    lineage = build_provenance_circuit(tid.instance, Q_RST)
    stages["provenance"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    compiled = compile_circuit(lineage.circuit)
    stages["compile"] = time.perf_counter() - t0

    stages["total"] = sum(stages.values())
    return {
        "stages": stages,
        "tid": tid,
        "circuit": lineage.circuit,
        "compiled": compiled,
        "witnesses": witnesses,
    }


def _circuits_identical(a, b) -> bool:
    """Bit-level equality of two arenas' flat mirrors."""
    if a.output != b.output or a._slot_names != b._slot_names:
        return False
    return all(getattr(a, name) == getattr(b, name) for name in FLAT_ARRAYS)


def _lowerings_identical(a, b) -> bool:
    """Bit-level equality of two compiled circuits' plan arrays."""
    return (
        a.kinds == b.kinds
        and a.offsets == b.offsets
        and a.indices == b.indices
        and a.var_slot == b.var_slot
        and a.var_names == b.var_names
        and a.output == b.output
    )


def _mc_marginal(compiled, tid) -> float:
    """Seeded Monte-Carlo estimate of P(Q) through the batch kernels.

    Fully determined by the compiled slot order, the per-fact marginals and
    the fixed seed — so two backends that really built the same circuit
    over the same event space produce the *bit-identical* float.
    """
    probs = np.asarray(
        compiled.slot_marginals(tid.event_space()), dtype=np.float64
    )
    rng = np.random.default_rng(MC_SEED)
    worlds = rng.random((MC_WORLDS, probs.shape[0])) < probs
    hits = compiled.evaluate_batch(worlds)
    return float(sum(hits)) / MC_WORLDS


def run() -> dict:
    result: dict = {
        "bench": "columnar_pipeline",
        "query": "R(x), S(x, y), T(y)",
        "mc_worlds": MC_WORLDS,
        "sizes": {},
    }
    pipeline_identical = True
    marginals_identical = True
    largest_ok = False
    largest_materialized = -1
    speedup_at_1e5 = 0.0

    for n, label in SIZES:
        facts = 3 * n - 1
        entry: dict = {"n": n, "facts": facts}
        repeats = 1 if label == LARGEST else 2
        columnar = _best_pipeline(n, "columnar", repeats)
        entry["columnar_seconds"] = columnar["stages"]
        entry["witnesses"] = columnar["witnesses"]
        entry["gates"] = len(columnar["circuit"])
        entry["facts_materialized"] = columnar["tid"].instance.facts_materialized

        if label == LARGEST:
            entry["object_skipped"] = True
            largest_ok = True
            largest_materialized = entry["facts_materialized"]
            print(
                f"[{label}] facts={facts} columnar total "
                f"{columnar['stages']['total']:.3f}s "
                f"(materialized {largest_materialized} facts)"
            )
        else:
            obj = _best_pipeline(n, "object", repeats)
            entry["object_seconds"] = obj["stages"]
            same_circuit = _circuits_identical(obj["circuit"], columnar["circuit"])
            same_lowering = _lowerings_identical(
                obj["compiled"], columnar["compiled"]
            )
            entry["circuits_bit_identical"] = same_circuit
            entry["lowerings_bit_identical"] = same_lowering
            pipeline_identical = pipeline_identical and same_circuit and same_lowering
            m_obj = _mc_marginal(obj["compiled"], obj["tid"])
            m_col = _mc_marginal(columnar["compiled"], columnar["tid"])
            entry["marginal_object"] = m_obj
            entry["marginal_columnar"] = m_col
            same_marginal = m_obj == m_col
            entry["marginals_bit_identical"] = same_marginal
            marginals_identical = marginals_identical and same_marginal
            speedup = obj["stages"]["total"] / max(
                columnar["stages"]["total"], 1e-9
            )
            entry["speedup"] = speedup
            if label == "1e5":
                speedup_at_1e5 = speedup
            print(
                f"[{label}] facts={facts} object {obj['stages']['total']:.3f}s "
                f"columnar {columnar['stages']['total']:.3f}s "
                f"speedup {speedup:.1f}x identical="
                f"{same_circuit and same_lowering}"
            )
        result["sizes"][label] = entry

    result["pipeline_bit_identical"] = pipeline_identical
    result["marginals_bit_identical"] = marginals_identical
    result["speedup_at_1e5"] = speedup_at_1e5
    result["columnar_1e6_completed"] = largest_ok
    result["columnar_1e6_facts_materialized"] = largest_materialized
    return result


def main() -> None:
    result = run()
    out = Path(__file__).resolve().parents[1] / "BENCH_columnar_pipeline.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}")
    print(
        "targets: speedup_at_1e5 >= 6.0, pipeline/marginals bit-identical, "
        "1e6 columnar run materializes 0 facts"
    )


if __name__ == "__main__":
    main()
