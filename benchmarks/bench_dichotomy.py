"""E6 — the #P-hardness contrast: query-based vs data-based tractability.

The paper's running example ``∃xy R(x)S(x,y)T(y)`` is #P-hard on arbitrary
TIDs (Dalvi–Suciu: it is non-hierarchical, so no safe plan exists), yet
Theorem 1 makes it linear on bounded-treewidth instances. We measure the
whole landscape:

- the safe-plan evaluator refuses Q_RST (unsafe) but handles the
  hierarchical ``∃xy R(x)S(x,y)``;
- on *tree-like* instances the lineage engine is exact and fast;
- on *complete bipartite* instances (treewidth grows) the engine's profiles
  blow up — the data-based frontier — while Shannon expansion and Karp–Luby
  sampling remain the fallbacks, matching the paper's "approximate via
  sampling" remark.

Run the table:  python benchmarks/bench_dichotomy.py
Benchmarks:     pytest benchmarks/bench_dichotomy.py --benchmark-only
"""

import math
import time

import pytest

from repro.baselines import karp_luby_probability, tid_probability_enumerate
from repro.core import build_lineage, tid_probability
from repro.circuits import probability
from repro.queries import (
    UnsafeQueryError,
    atom,
    cq,
    is_safe,
    safe_plan_probability,
    variables,
)
from repro.workloads import rst_bipartite_tid, rst_chain_tid

X, Y = variables("x", "y")
Q_RST = cq(atom("R", X), atom("S", X, Y), atom("T", Y))
Q_HIER = cq(atom("R", X), atom("S", X, Y))


def test_safe_plan_on_hierarchical(benchmark):
    tid = rst_chain_tid(30, seed=0)
    assert is_safe(Q_HIER)
    p = benchmark(safe_plan_probability, Q_HIER, tid)
    assert math.isclose(p, tid_probability(Q_HIER, tid), abs_tol=1e-9)


def test_safe_plan_refuses_rst(benchmark):
    tid = rst_chain_tid(10, seed=0)

    def attempt():
        try:
            safe_plan_probability(Q_RST, tid)
            return "plan"
        except UnsafeQueryError:
            return "unsafe"

    assert benchmark(attempt) == "unsafe"


def test_engine_on_tree_like(benchmark):
    tid = rst_chain_tid(40, seed=0)
    p = benchmark(tid_probability, Q_RST, tid)
    assert 0.0 <= p <= 1.0


def test_karp_luby_on_dense(benchmark):
    tid = rst_bipartite_tid(6, 6, seed=0)
    p = benchmark(karp_luby_probability, Q_RST, tid, 2000, 0)
    assert 0.0 <= p <= 1.0


@pytest.mark.parametrize("side", [2, 3])
def test_engine_matches_oracle_on_small_bipartite(benchmark, side):
    tid = rst_bipartite_tid(side, side, seed=0)
    p = benchmark(tid_probability, Q_RST, tid)
    assert math.isclose(p, tid_probability_enumerate(Q_RST, tid), abs_tol=1e-9)


def main() -> None:
    print("E6 — dichotomy landscape for Q_RST = ∃xy R(x)S(x,y)T(y)")
    print(f"\nquery-level: is_safe(Q_RST) = {is_safe(Q_RST)}"
          f" | is_safe(R-S star) = {is_safe(Q_HIER)}")

    print("\ntree-like data (width ≤ 2): engine is exact and fast")
    print(f"{'n facts':>8} {'engine (s)':>11} {'P':>8}")
    for n in [25, 50, 100, 200]:
        tid = rst_chain_tid(n, seed=0)
        start = time.perf_counter()
        p = tid_probability(Q_RST, tid)
        print(f"{len(tid):>8} {time.perf_counter() - start:>11.3f} {p:>8.4f}")

    print("\ncomplete bipartite data (width grows): profiles/width blow up")
    print(f"{'side':>5} {'width':>6} {'engine':>16} {'Shannon':>10} {'Karp–Luby':>10}")
    for side in [2, 3, 4]:
        tid = rst_bipartite_tid(side, side, seed=0)
        width = tid.treewidth_upper_bound()
        start = time.perf_counter()
        p_engine = tid_probability(Q_RST, tid)
        engine_time = time.perf_counter() - start
        lineage = build_lineage(tid.instance, Q_RST)
        start = time.perf_counter()
        probability(lineage.circuit, tid.event_space(), engine="shannon")
        shannon_time = time.perf_counter() - start
        start = time.perf_counter()
        p_kl = karp_luby_probability(Q_RST, tid, samples=2000, seed=0)
        kl_time = time.perf_counter() - start
        print(
            f"{side:>5} {width:>6} {engine_time:>10.3f}s P={p_engine:.3f}"
            f" {shannon_time:>9.3f}s {kl_time:>9.3f}s (±{abs(p_kl - p_engine):.3f})"
        )
    print("\nshape check: engine wins on tree-like data at any size;"
          " on dense data exact methods degrade and sampling takes over.")


if __name__ == "__main__":
    main()
