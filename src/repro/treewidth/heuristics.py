"""Elimination-order heuristics for computing small-width tree decompositions.

The paper assumes decompositions are given or computed by standard means; in
practice min-degree and min-fill are the workhorse heuristics (and what
``networkx`` also provides). Experiment E11 compares them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.treewidth.decomposition import TreeDecomposition, Vertex, from_elimination_order
from repro.util import ReproError

if TYPE_CHECKING:
    import networkx as nx

MIN_DEGREE = "min_degree"
MIN_FILL = "min_fill"
NETWORKX_MIN_DEGREE = "networkx_min_degree"
NETWORKX_MIN_FILL = "networkx_min_fill"

HEURISTICS = (MIN_DEGREE, MIN_FILL, NETWORKX_MIN_DEGREE, NETWORKX_MIN_FILL)


def _sort_key(vertex: Vertex) -> tuple[str, str]:
    return (type(vertex).__name__, str(vertex))


def min_degree_order(graph: nx.Graph) -> list[Vertex]:
    """Return an elimination order choosing a minimum-degree vertex each step.

    Ties are broken deterministically by string representation.
    """
    import networkx as nx

    work = nx.Graph(graph)
    order: list[Vertex] = []
    while work.number_of_nodes() > 0:
        vertex = min(work.nodes, key=lambda v: (work.degree(v),) + _sort_key(v))
        neighbours = list(work.neighbors(vertex))
        for i, a in enumerate(neighbours):
            for b in neighbours[i + 1 :]:
                work.add_edge(a, b)
        work.remove_node(vertex)
        order.append(vertex)
    return order


def min_fill_order(graph: nx.Graph) -> list[Vertex]:
    """Return an elimination order choosing a minimum-fill-in vertex each step.

    The fill-in of a vertex is the number of edges that must be added to make
    its neighbourhood a clique; min-fill usually yields slightly smaller
    widths than min-degree at higher cost.
    """
    import networkx as nx

    work = nx.Graph(graph)
    order: list[Vertex] = []

    def fill_in(vertex: Vertex) -> int:
        neighbours = list(work.neighbors(vertex))
        missing = 0
        for i, a in enumerate(neighbours):
            for b in neighbours[i + 1 :]:
                if not work.has_edge(a, b):
                    missing += 1
        return missing

    while work.number_of_nodes() > 0:
        vertex = min(work.nodes, key=lambda v: (fill_in(v),) + _sort_key(v))
        neighbours = list(work.neighbors(vertex))
        for i, a in enumerate(neighbours):
            for b in neighbours[i + 1 :]:
                work.add_edge(a, b)
        work.remove_node(vertex)
        order.append(vertex)
    return order


def decompose(graph: nx.Graph, heuristic: str = MIN_FILL) -> TreeDecomposition:
    """Compute a tree decomposition of ``graph`` with the chosen heuristic.

    ``heuristic`` is one of :data:`HEURISTICS`. The two ``networkx_*``
    variants delegate to :mod:`networkx.algorithms.approximation` and serve
    as an external cross-check in tests and the E11 ablation.
    """
    import networkx as nx

    if graph.number_of_nodes() == 0:
        return TreeDecomposition({0: []}, [])
    if heuristic == MIN_DEGREE:
        return from_elimination_order(graph, min_degree_order(graph))
    if heuristic == MIN_FILL:
        return from_elimination_order(graph, min_fill_order(graph))
    if heuristic in (NETWORKX_MIN_DEGREE, NETWORKX_MIN_FILL):
        from networkx.algorithms.approximation import treewidth_min_degree, treewidth_min_fill_in

        fn = treewidth_min_degree if heuristic == NETWORKX_MIN_DEGREE else treewidth_min_fill_in
        _width, tree = fn(nx.Graph(graph))
        bags = {i: frozenset(bag) for i, bag in enumerate(tree.nodes)}
        index = {bag: i for i, bag in enumerate(tree.nodes)}
        edges = [(index[a], index[b]) for a, b in tree.edges]
        return TreeDecomposition(bags, edges)
    raise ReproError(f"unknown heuristic {heuristic!r}; expected one of {HEURISTICS}")


def greedy_width(graph: nx.Graph, heuristic: str = MIN_FILL) -> int:
    """Return the width achieved by the heuristic on ``graph``."""
    return decompose(graph, heuristic).width()
