"""Nice tree decompositions: the tree encodings the lineage engine runs on.

A *nice* decomposition refines a rooted tree decomposition into elementary
typed nodes — leaf, introduce-vertex, forget-vertex and join — the standard
form on which bottom-up automata (Courcelle-style) are defined. We extend the
form with *read* nodes carrying payload items (facts): a read node is placed
at a bag containing all the vertices the item mentions, and it is where the
automaton consumes the item's uncertain presence. This is the tree encoding of
an uncertain instance from the paper's Section 2.2.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass, field

from repro.treewidth.decomposition import TreeDecomposition, Vertex
from repro.util import check

LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"
READ = "read"


@dataclass(frozen=True)
class NiceNode:
    """One node of a nice decomposition.

    ``bag`` is the bag *after* the node's operation. ``vertex`` is set for
    introduce/forget nodes, ``item`` for read nodes.
    """

    kind: str
    bag: frozenset
    children: tuple["NiceNode", ...] = ()
    vertex: Vertex | None = None
    item: Hashable | None = None

    def iter_postorder(self):
        """Yield all nodes of the subtree, children before parents."""
        stack: list[tuple[NiceNode, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
            else:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))

    def size(self) -> int:
        """Return the number of nodes in the subtree."""
        return sum(1 for _ in self.iter_postorder())

    def max_bag(self) -> int:
        """Return the largest bag size in the subtree."""
        return max(len(node.bag) for node in self.iter_postorder())


@dataclass
class NiceTree:
    """A nice decomposition: the root node (whose bag is always empty)."""

    root: NiceNode
    items: tuple[Hashable, ...] = field(default_factory=tuple)

    def iter_postorder(self):
        """Yield all nodes, children before parents."""
        return self.root.iter_postorder()

    def width(self) -> int:
        """Return the width of the nice decomposition."""
        return self.root.max_bag() - 1

    def count(self, kind: str) -> int:
        """Return the number of nodes of the given kind."""
        return sum(1 for node in self.iter_postorder() if node.kind == kind)


def _chain_to_bag(node: NiceNode, target: frozenset) -> NiceNode:
    """Forget then introduce vertices so the chain ends with bag ``target``."""
    current = node
    for vertex in sorted(node.bag - target, key=str):
        current = NiceNode(FORGET, current.bag - {vertex}, (current,), vertex=vertex)
    for vertex in sorted(target - node.bag, key=str):
        current = NiceNode(INTRODUCE, current.bag | {vertex}, (current,), vertex=vertex)
    return current


def _leaf_chain(target: frozenset) -> NiceNode:
    """Build a leaf followed by introductions of every vertex of ``target``."""
    current = NiceNode(LEAF, frozenset())
    return _chain_to_bag(current, target)


def build_nice_tree(
    decomposition: TreeDecomposition,
    items_at: Mapping[int, Iterable[Hashable]] | None = None,
    root: int | None = None,
) -> NiceTree:
    """Convert ``decomposition`` into a nice tree with read nodes for items.

    ``items_at`` maps original bag ids to the payload items (e.g. facts) to be
    read at that bag; each item appears exactly once in the result. The
    returned tree's root has an empty bag (all vertices are forgotten at the
    top), so automaton acceptance is decided on a single final state.
    """
    items_at = items_at or {}
    root_id, children = decomposition.rooted_children(root)
    # Bottom-up without recursion: parents precede children in ``order``
    # (a BFS), so walking it backwards builds every child subtree first.
    order = [root_id]
    for node_id in order:
        order.extend(children[node_id])
    built: dict[int, NiceNode] = {}
    for node_id in reversed(order):
        bag = decomposition.bags[node_id]
        child_ids = children[node_id]
        if not child_ids:
            current = _leaf_chain(bag)
        else:
            branches = [_chain_to_bag(built.pop(cid), bag) for cid in child_ids]
            current = branches[0]
            for branch in branches[1:]:
                current = NiceNode(JOIN, bag, (current, branch))
        for item in items_at.get(node_id, ()):  # read payload items at this bag
            current = NiceNode(READ, bag, (current,), item=item)
        built[node_id] = current

    top = _chain_to_bag(built.pop(root_id), frozenset())
    all_items = tuple(item for items in items_at.values() for item in items)
    return NiceTree(top, all_items)


def check_nice_tree(tree: NiceTree) -> None:
    """Validate structural invariants of a nice tree (used by tests)."""
    for node in tree.iter_postorder():
        if node.kind == LEAF:
            check(node.bag == frozenset() and not node.children, "bad leaf node")
        elif node.kind == INTRODUCE:
            (child,) = node.children
            check(node.vertex not in child.bag, "introduced vertex already present")
            check(node.bag == child.bag | {node.vertex}, "introduce bag mismatch")
        elif node.kind == FORGET:
            (child,) = node.children
            check(node.vertex in child.bag, "forgotten vertex absent")
            check(node.bag == child.bag - {node.vertex}, "forget bag mismatch")
        elif node.kind == JOIN:
            left, right = node.children
            check(node.bag == left.bag == right.bag, "join bags differ")
        elif node.kind == READ:
            (child,) = node.children
            check(node.bag == child.bag, "read must not change the bag")
        else:
            check(False, f"unknown node kind {node.kind!r}")
    check(tree.root.bag == frozenset(), "root bag must be empty")
