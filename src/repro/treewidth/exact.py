"""Exact treewidth for small graphs, via the elimination-order subset DP.

Used in tests and ablations to certify heuristic quality. Treewidth is
NP-hard, and this dynamic program is exponential (over vertex subsets), so it
is capped at 18 vertices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.treewidth.decomposition import TreeDecomposition, from_elimination_order
from repro.util import check

if TYPE_CHECKING:
    import networkx as nx


def _eliminated_degree(graph: nx.Graph, eliminated: frozenset, vertex) -> int:
    """Degree of ``vertex`` once ``eliminated`` are eliminated (with fill-in).

    Equals the number of non-eliminated vertices (other than ``vertex``)
    reachable from ``vertex`` through eliminated vertices only.
    """
    seen = {vertex}
    stack = [vertex]
    degree = 0
    while stack:
        current = stack.pop()
        for neighbour in graph.neighbors(current):
            if neighbour in seen:
                continue
            seen.add(neighbour)
            if neighbour in eliminated:
                stack.append(neighbour)
            else:
                degree += 1
    return degree


def exact_treewidth(graph: nx.Graph) -> int:
    """Return the exact treewidth of a small ``graph``.

    Dynamic program over subsets of eliminated vertices: the width of the
    best elimination order of S equals ``min over v in S`` of
    ``max(width(S - v), degree of v after eliminating S - v)``.
    """
    n = graph.number_of_nodes()
    check(n <= 18, "exact treewidth limited to 18 vertices")
    if n == 0:
        return 0
    nodes = sorted(graph.nodes, key=str)
    best: dict[frozenset, int] = {frozenset(): -1}
    # Process subsets in increasing size; width of empty elimination is -1 so
    # that a single isolated vertex yields width 0 via max(-1, 0).
    subsets_by_size: list[list[frozenset]] = [[frozenset()]]
    for _size in range(1, n + 1):
        layer: list[frozenset] = []
        for smaller in subsets_by_size[-1]:
            for v in nodes:
                if v in smaller:
                    continue
                candidate = smaller | {v}
                if candidate not in best:
                    best[candidate] = n  # placeholder upper bound
                    layer.append(candidate)
        for subset in layer:
            value = n
            for v in subset:
                rest = subset - {v}
                value = min(value, max(best[rest], _eliminated_degree(graph, rest, v)))
            best[subset] = value
        subsets_by_size.append(layer)
    return max(best[frozenset(nodes)], 0)


def exact_elimination_order(graph: nx.Graph) -> list:
    """Return an elimination order achieving the exact treewidth."""
    import networkx as nx

    target = exact_treewidth(graph)
    order = []
    eliminated: frozenset = frozenset()
    remaining = set(graph.nodes)
    while remaining:
        placed = False
        for v in sorted(remaining, key=str):
            if _eliminated_degree(graph, eliminated, v) > target:
                continue
            rest_graph = nx.Graph(graph)
            # Check that the remainder can still be eliminated within target:
            # recompute exact treewidth of the graph induced by filling in.
            trial_eliminated = eliminated | {v}
            if _remaining_width(graph, trial_eliminated) <= target:
                order.append(v)
                eliminated = trial_eliminated
                remaining.discard(v)
                placed = True
                break
            del rest_graph
        check(placed, "internal error: no vertex achieves the optimal width")
    return order


def _remaining_width(graph: nx.Graph, eliminated: frozenset) -> int:
    """Exact width needed to finish eliminating ``graph`` after ``eliminated``."""
    import networkx as nx

    remaining = [v for v in graph.nodes if v not in eliminated]
    if not remaining:
        return 0
    filled = nx.Graph()
    filled.add_nodes_from(remaining)
    for i, a in enumerate(remaining):
        reach = _reachable_through(graph, eliminated, a)
        for b in remaining[i + 1 :]:
            if b in reach:
                filled.add_edge(a, b)
    return exact_treewidth(filled)


def _reachable_through(graph: nx.Graph, eliminated: frozenset, vertex) -> set:
    """Vertices reachable from ``vertex`` through eliminated vertices only."""
    seen = {vertex}
    stack = [vertex]
    reach = set()
    while stack:
        current = stack.pop()
        for neighbour in graph.neighbors(current):
            if neighbour in seen:
                continue
            seen.add(neighbour)
            if neighbour in eliminated:
                stack.append(neighbour)
            else:
                reach.add(neighbour)
    return reach


def exact_decomposition(graph: nx.Graph) -> TreeDecomposition:
    """Return a minimum-width tree decomposition of a small ``graph``."""
    if graph.number_of_nodes() == 0:
        return TreeDecomposition({0: []}, [])
    return from_elimination_order(graph, exact_elimination_order(graph))
