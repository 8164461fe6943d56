"""E20 — certain answers under primary keys: trichotomy routing, measured.

Exercises the CQA engine (:mod:`repro.cqa`) on generated key-violating
instances (:func:`repro.workloads.key_violation_instance`) and pins both
sides of the trichotomy story:

* **Correctness** — over a grid of violation rates and seeds, each of the
  three canonical Koutris–Wijsen queries (FO-rewritable, PTIME,
  coNP-complete) is answered by the routed engine *and* by the
  brute-force all-repairs oracle; every answer must bit-match.  The
  classifier must place each canonical query in its published class, and
  stay there under every permutation of the query's atoms.

* **FO never compiles** — the first-order rewriting answers directly
  against the instance, so ``compile_stats()`` must not move while the FO
  query is routed (the acceptance criterion of the CQA issue).

* **Performance** — at growing violation rates, the FO rewriting is timed
  against the circuit fallback (which encodes "the query holds in a
  uniformly random repair" and thresholds the probability) and against
  the repairs oracle.  The oracle enumerates ``prod(|block|)`` repairs —
  exponential in the violating blocks — so its column explodes while the
  rewriting stays flat; the ``fo_speedup_vs_circuit`` headline records
  how much the routed path saves on a larger instance where the oracle
  cannot run at all.

Writes ``BENCH_cqa.json`` at the repo root; the committed copy is the
baseline that ``check_regression.py`` gates in CI.  The correctness
booleans are machine-independent and always gate; the speedup is
wall-clock and report-only (it holds at ~10x+ — both paths are pure
python at these sizes — but stays ungated like every other timing
headline on the 1-CPU runners).
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.circuits import compile_stats
from repro.cqa import certain_answers, certain_oracle, classify, repair_count
from repro.queries import ConjunctiveQuery
from repro.workloads import cqa_trichotomy_queries, key_violation_instance

PUBLISHED_CLASSES = {"fo": "fo", "ptime": "ptime", "conp": "conp"}

#: Correctness grid: 16 blocks per instance keeps the oracle's
#: ``prod(|block|) <= 2^16`` repairs enumerable at every rate.
GRID_KEYS = 8
GRID_RATES = (0.0, 0.25, 0.5)
GRID_SEEDS = (0, 1, 2, 3, 4)

#: Timing grid: rates for the three-way method comparison (same size as
#: the correctness grid, so the oracle column can actually run).
TIME_RATES = (0.0, 0.2, 0.4, 0.6, 0.8)
TIME_KEYS = 8
TIME_SEED = 11
REPEATS = 3

#: The larger instance where only the routed path and the circuit
#: fallback are feasible (the oracle would need ~2^60 repairs).
LARGE_KEYS = 300
LARGE_RATE = 0.3
LARGE_SEED = 7


def _best(fn, repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _classifier_stable(queries: dict[str, ConjunctiveQuery], keys) -> bool:
    """Does every atom permutation of every query land in the same class?"""
    for name, query in queries.items():
        for perm in itertools.permutations(query.atoms):
            reordered = ConjunctiveQuery(tuple(perm))
            if classify(reordered, keys).trichotomy != PUBLISHED_CLASSES[name]:
                return False
    return True


def run() -> dict:
    queries = cqa_trichotomy_queries()
    result: dict = {"grid": []}

    # --- classifier: published classes, stable under atom reordering ----
    _, keys = key_violation_instance(2, 0.0, seed=0)
    placed = {
        name: classify(query, keys).trichotomy for name, query in queries.items()
    }
    result["classes"] = placed
    result["classifier_matches_published_classes"] = (
        placed == PUBLISHED_CLASSES and _classifier_stable(queries, keys)
    )
    print("classifier: " + ", ".join(f"{k}->{v}" for k, v in placed.items())
          + (" (stable under atom reordering)"
             if result["classifier_matches_published_classes"] else " MISMATCH"))

    # --- correctness: routed engine vs all-repairs oracle ---------------
    matches = {name: True for name in queries}
    checks = 0
    for rate in GRID_RATES:
        for seed in GRID_SEEDS:
            instance, keys = key_violation_instance(GRID_KEYS, rate, seed=seed)
            cell = {"rate": rate, "seed": seed,
                    "repairs": repair_count(instance, keys)}
            for name, query in queries.items():
                routed = certain_answers(query, instance, keys)
                oracle = certain_oracle(query, instance, keys)
                cell[name] = routed
                checks += 1
                if routed != oracle:
                    matches[name] = False
            result["grid"].append(cell)
    for name in queries:
        result[f"{name}_matches_oracle"] = matches[name]
    print(f"correctness: {checks} routed-vs-oracle checks over "
          f"rates {GRID_RATES} x seeds {GRID_SEEDS}: "
          + ("all bit-match" if all(matches.values())
             else f"MISMATCH {matches}"))

    # --- FO answers without touching the circuit pipeline ---------------
    instance, keys = key_violation_instance(GRID_KEYS, 0.5, seed=9)
    before = compile_stats()
    fo_answer = certain_answers(queries["fo"], instance, keys)
    after = compile_stats()
    result["fo_no_circuit_compiles"] = before == after
    print(f"fo route: answer={fo_answer}, compile_stats "
          + ("unchanged (no circuits built)"
             if result["fo_no_circuit_compiles"] else f"MOVED {before} -> {after}"))

    # --- timings at growing violation rates ------------------------------
    result["rates"] = []
    print(f"\n{'rate':<6} {'repairs':>9} {'rewrite_s':>10} "
          f"{'circuit_s':>10} {'oracle_s':>10}")
    fo = queries["fo"]
    for rate in TIME_RATES:
        instance, keys = key_violation_instance(TIME_KEYS, rate, seed=TIME_SEED)
        count = repair_count(instance, keys)
        entry = {
            "rate": rate,
            "repairs": count,
            "rewrite_seconds": _best(
                lambda: certain_answers(fo, instance, keys, method="rewrite")
            ),
            "circuit_seconds": _best(
                lambda: certain_answers(fo, instance, keys, method="circuit")
            ),
            "oracle_seconds": _best(
                lambda: certain_oracle(fo, instance, keys)
            ),
        }
        result["rates"].append(entry)
        print(f"{rate:<6} {count:>9} {entry['rewrite_seconds']:>10.5f} "
              f"{entry['circuit_seconds']:>10.5f} {entry['oracle_seconds']:>10.5f}")

    # --- the large instance: routing vs the circuit fallback -------------
    instance, keys = key_violation_instance(LARGE_KEYS, LARGE_RATE, seed=LARGE_SEED)
    rewrite_s = _best(lambda: certain_answers(fo, instance, keys, method="rewrite"))
    circuit_s = _best(lambda: certain_answers(fo, instance, keys, method="circuit"))
    result["large"] = {
        "n_keys": LARGE_KEYS,
        "rate": LARGE_RATE,
        "facts": len(instance),
        "rewrite_seconds": rewrite_s,
        "circuit_seconds": circuit_s,
    }
    result["fo_speedup_vs_circuit"] = circuit_s / max(rewrite_s, 1e-9)
    print(f"\nlarge ({LARGE_KEYS} keys, {len(instance)} facts, oracle infeasible): "
          f"rewrite {rewrite_s:.4f}s, circuit fallback {circuit_s:.4f}s, "
          f"speedup {result['fo_speedup_vs_circuit']:.1f}x")
    return result


def main() -> None:
    result = run()
    out = Path(__file__).resolve().parents[1] / "BENCH_cqa.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}")
    print("targets: classifier in published classes, every routed answer "
          "bit-matches the oracle, FO compiles no circuits")


if __name__ == "__main__":
    main()
