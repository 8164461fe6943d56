"""E11 — ablation: which tree-decomposition heuristic to use?

The whole pipeline's cost is exponential in the decomposition width actually
achieved, so the heuristic is a first-order design choice. We compare our
min-degree and min-fill against networkx's implementations on the workloads
the other experiments use: achieved width (vs exact optimum on small graphs)
and downstream message-passing WMC time on the same circuit.

Run the table:  python benchmarks/bench_ablation_heuristics.py
Benchmarks:     pytest benchmarks/bench_ablation_heuristics.py --benchmark-only
"""

import time

import networkx as nx
import pytest

from repro.circuits import moral_graph, probability
from repro.queries import atom, cq, variables
from repro.treewidth import HEURISTICS, decompose, exact_treewidth
from repro.workloads import cycle_tid, partial_ktree_tid, rst_chain_tid

from repro.instances import fact as _fact

X, Y = variables("x", "y")
Q_RST = cq(atom("R", X), atom("S", X, Y), atom("T", Y))
Q_CYCLE = cq(atom("R", X), atom("E", X, Y), atom("T", Y))


def _r_fact(i):
    return _fact("R", i)


def _t_fact(i):
    return _fact("T", i)


def workload_graphs() -> dict[str, nx.Graph]:
    return {
        "chain": rst_chain_tid(20, seed=0).instance.gaifman_graph(),
        "cycle": cycle_tid(20, seed=0).instance.gaifman_graph(),
        "2-tree": partial_ktree_tid(20, 2, seed=0).tid.instance.gaifman_graph(),
        "3-tree": partial_ktree_tid(20, 3, seed=0).tid.instance.gaifman_graph(),
        "grid3xn": nx.grid_2d_graph(3, 7),
    }


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_heuristic_on_ktree(benchmark, heuristic):
    graph = partial_ktree_tid(30, 2, seed=0).tid.instance.gaifman_graph()
    td = benchmark(decompose, graph, heuristic)
    td.validate(graph)
    assert td.width() <= 6  # near the certified width 2


@pytest.mark.parametrize("heuristic", ["min_degree", "min_fill"])
def test_downstream_wmc_time(benchmark, heuristic):
    # Downstream WMC runs on the monotone lineage (the circuit the Theorem 2
    # path actually evaluates); the deterministic profile circuit needs no
    # WMC at all — it is evaluated directly.
    from repro.core import build_provenance_circuit

    tid = rst_chain_tid(12, seed=0)
    lineage = build_provenance_circuit(tid.instance, Q_RST)
    circuit = lineage.circuit.binarized()
    decomposition = decompose(moral_graph(circuit), heuristic)
    p = benchmark(
        probability, circuit, tid.event_space(), engine="message_passing",
        decomposition=decomposition,
    )
    assert 0.0 <= p <= 1.0


def main() -> None:
    print("E11 — decomposition-heuristic ablation")
    print("\nachieved width per heuristic (exact optimum where computable):")
    header = f"{'graph':<10} {'exact':>6}"
    for heuristic in HEURISTICS:
        header += f" {heuristic:>20}"
    print(header)
    for name, graph in workload_graphs().items():
        exact = exact_treewidth(graph) if graph.number_of_nodes() <= 18 else None
        row = f"{name:<10} {str(exact if exact is not None else '—'):>6}"
        for heuristic in HEURISTICS:
            start = time.perf_counter()
            width = decompose(graph, heuristic).width()
            elapsed = time.perf_counter() - start
            row += f" {width:>9} ({elapsed:.3f}s)"
        print(row)

    print("\ndownstream message-passing WMC on the monotone Q_RST lineage"
          " (cycle n=14):")
    from repro.core import build_provenance_circuit
    from repro.util import ReproError

    tid = cycle_tid(14, seed=0)
    for i in range(14):
        tid.add(_r_fact(i), 0.5)
        tid.add(_t_fact(i), 0.5)
    lineage = build_provenance_circuit(tid.instance, Q_CYCLE)
    circuit = lineage.circuit.binarized()
    graph = moral_graph(circuit)
    print(f"{'heuristic':<22} {'circuit width':>14} {'WMC time (s)':>13}")
    for heuristic in HEURISTICS:
        decomposition = decompose(graph, heuristic)
        start = time.perf_counter()
        try:
            probability(
                circuit, tid.event_space(), engine="message_passing",
                decomposition=decomposition, max_width=18,
            )
            elapsed = f"{time.perf_counter() - start:>13.3f}"
        except ReproError:
            elapsed = f"{'width wall':>13}"
        print(f"{heuristic:<22} {decomposition.width():>14} {elapsed}")

    print("\ndeterministic profile circuits need no WMC (direct evaluation);")
    print("shape check: min-fill widths <= min-degree widths;"
          " downstream WMC time tracks 2^width.")


if __name__ == "__main__":
    main()
