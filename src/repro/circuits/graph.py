"""Graph views of circuits, used to measure and exploit circuit treewidth.

Theorem 2 of the paper conditions tractability on the treewidth of circuits
(jointly with the instance). The *moral graph* of a circuit connects every
gate to its inputs and the inputs of a gate pairwise, so that each gate's
consistency factor lives inside a clique — and hence inside a single bag of
any tree decomposition of the moral graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.circuits.circuit import Circuit

if TYPE_CHECKING:
    import networkx as nx


def moral_graph(circuit: Circuit, restrict_to_output: bool = True) -> nx.Graph:
    """Return the moral graph of ``circuit``.

    Vertices are gate ids; each gate is connected to all of its inputs, and
    the inputs of a gate are connected pairwise (moralization).
    """
    import networkx as nx

    graph = nx.Graph()
    if restrict_to_output and circuit.output is not None:
        gate_ids = circuit.reachable_from_output()
    else:
        gate_ids = list(circuit.gate_ids())
    graph.add_nodes_from(gate_ids)
    for gid in gate_ids:
        inputs = circuit.gate(gid).inputs
        for child in inputs:
            graph.add_edge(gid, child)
        for i, a in enumerate(inputs):
            for b in inputs[i + 1 :]:
                graph.add_edge(a, b)
    return graph


def circuit_width(circuit: Circuit, heuristic: str = "min_fill") -> int:
    """Return the heuristic treewidth of the circuit's moral graph.

    The circuit is binarized first, since fan-in otherwise lower-bounds the
    width; this is the quantity the paper's Theorem 2 bounds.
    """
    from repro.treewidth import decompose

    binary = circuit.binarized()
    return decompose(moral_graph(binary), heuristic).width()
