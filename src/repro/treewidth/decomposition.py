"""Tree decompositions: the structural backbone of the paper's tractability.

A tree decomposition of a graph G is a tree whose nodes carry *bags* of
vertices such that (1) every vertex appears in a bag, (2) every edge is
contained in some bag, and (3) the bags containing any fixed vertex form a
connected subtree. Its width is the largest bag size minus one; the treewidth
of G is the minimum width over its decompositions (Robertson–Seymour).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from typing import TYPE_CHECKING

from repro.util import ReproError, check

if TYPE_CHECKING:
    import networkx as nx

Vertex = Hashable


class TreeDecomposition:
    """An explicit tree decomposition: bags indexed by node id, plus a tree.

    >>> td = TreeDecomposition({0: {"a", "b"}, 1: {"b", "c"}}, [(0, 1)])
    >>> td.width()
    1
    """

    def __init__(self, bags: Mapping[int, Iterable[Vertex]], edges: Iterable[tuple[int, int]]):
        import networkx as nx

        self.bags: dict[int, frozenset[Vertex]] = {
            node: frozenset(bag) for node, bag in bags.items()
        }
        check(len(self.bags) > 0, "a tree decomposition needs at least one bag")
        self.tree = nx.Graph()
        self.tree.add_nodes_from(self.bags)
        for a, b in edges:
            check(a in self.bags and b in self.bags, f"edge ({a},{b}) uses unknown bag ids")
            self.tree.add_edge(a, b)
        check(nx.is_tree(self.tree), "the bag graph must be a tree")

    # ------------------------------------------------------------------ #

    def width(self) -> int:
        """Return the width: max bag size minus one."""
        return max(len(bag) for bag in self.bags.values()) - 1

    def vertices(self) -> frozenset[Vertex]:
        """Return all vertices appearing in some bag."""
        return frozenset().union(*self.bags.values())

    def validate(self, graph: nx.Graph) -> None:
        """Check the three decomposition axioms against ``graph``.

        Raises :class:`ReproError` with a description of the first violation.
        """
        import networkx as nx

        covered = self.vertices()
        missing = set(graph.nodes) - set(covered)
        if missing:
            raise ReproError(f"vertices not covered by any bag: {sorted(map(str, missing))}")
        for u, v in graph.edges:
            if not any(u in bag and v in bag for bag in self.bags.values()):
                raise ReproError(f"edge ({u!r},{v!r}) not covered by any bag")
        for vertex in covered:
            holding = [node for node, bag in self.bags.items() if vertex in bag]
            if not nx.is_connected(self.tree.subgraph(holding)):
                raise ReproError(f"bags containing {vertex!r} are not connected in the tree")

    def is_valid(self, graph: nx.Graph) -> bool:
        """Return whether all three decomposition axioms hold for ``graph``."""
        try:
            self.validate(graph)
        except ReproError:
            return False
        return True

    # ------------------------------------------------------------------ #

    def rooted_children(self, root: int | None = None) -> tuple[int, dict[int, list[int]]]:
        """Return ``(root, children)`` for a rooted view of the tree."""
        import networkx as nx

        root = root if root is not None else min(self.bags)
        check(root in self.bags, f"unknown bag id {root}")
        children: dict[int, list[int]] = {node: [] for node in self.bags}
        for parent, child in nx.bfs_edges(self.tree, root):
            children[parent].append(child)
        return root, children

    def bag_containing(self, vertices: Iterable[Vertex]) -> int | None:
        """Return a bag node containing all ``vertices``, or ``None``.

        By the clique-containment lemma, any clique of the graph is contained
        in some bag of any valid decomposition; this is how factors are
        assigned to bags in message passing.
        """
        needed = frozenset(vertices)
        for node, bag in self.bags.items():
            if needed <= bag:
                return node
        return None

    def relabeled(self) -> "TreeDecomposition":
        """Return a copy with bag ids renumbered 0..n-1 (BFS order)."""
        import networkx as nx

        order = list(nx.bfs_tree(self.tree, min(self.bags)))
        mapping = {old: new for new, old in enumerate(order)}
        return TreeDecomposition(
            {mapping[node]: bag for node, bag in self.bags.items()},
            [(mapping[a], mapping[b]) for a, b in self.tree.edges],
        )

    def __repr__(self) -> str:
        return f"TreeDecomposition(bags={len(self.bags)}, width={self.width()})"


def from_elimination_order(graph: nx.Graph, order: list[Vertex]) -> TreeDecomposition:
    """Build a tree decomposition from a vertex elimination order.

    Standard fill-in construction: eliminating ``v`` creates the bag
    ``{v} ∪ N(v)`` in the current (progressively filled) graph and attaches it
    to the bag of the next-eliminated neighbour. The width equals the largest
    elimination neighbourhood.
    """
    import networkx as nx

    check(set(order) == set(graph.nodes), "order must enumerate exactly the graph vertices")
    if not order:
        return TreeDecomposition({0: []}, [])
    work = nx.Graph(graph)
    position = {v: i for i, v in enumerate(order)}
    bags: dict[int, frozenset[Vertex]] = {}
    bag_of_vertex: dict[Vertex, int] = {}
    edges: list[tuple[int, int]] = []
    for index, vertex in enumerate(order):
        neighbours = set(work.neighbors(vertex))
        bags[index] = frozenset(neighbours | {vertex})
        bag_of_vertex[vertex] = index
        for a in neighbours:
            for b in neighbours:
                if a != b:
                    work.add_edge(a, b)
        work.remove_node(vertex)
    for index, vertex in enumerate(order):
        later = [u for u in bags[index] if position[u] > position[vertex]]
        if later:
            successor = min(later, key=lambda u: position[u])
            edges.append((index, bag_of_vertex[successor]))
    # A disconnected graph yields a forest; chain component representatives —
    # an edge between arbitrary bags never violates the decomposition axioms.
    forest = nx.Graph()
    forest.add_nodes_from(bags)
    forest.add_edges_from(edges)
    roots = sorted(min(component) for component in nx.connected_components(forest))
    for previous, current in zip(roots, roots[1:]):
        edges.append((previous, current))
    return TreeDecomposition(bags, edges)
