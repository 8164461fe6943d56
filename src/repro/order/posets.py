"""Labeled partial orders: the representation system for order uncertainty.

Section 3 of the paper proposes *labeled partial orders* (po-relations) to
represent relations whose tuple order is only partially known: elements are
abstract identifiers, a strict partial order constrains their relative
position, and a labeling maps each element to a relational tuple. The
possible worlds are the linear extensions, read through the labeling — a bag
of ordered lists of tuples.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable, Mapping
from typing import TYPE_CHECKING

from repro.util import ReproError, check

if TYPE_CHECKING:
    import networkx as nx

Element = Hashable
Label = Hashable


class LabeledPoset:
    """A finite strict partial order with labeled elements.

    Edges may be given redundantly; the class maintains the transitive
    closure internally and exposes the transitive reduction (Hasse diagram).
    """

    def __init__(
        self,
        labels: Mapping[Element, Label],
        order: Iterable[tuple[Element, Element]] = (),
    ):
        import networkx as nx

        self._labels: dict[Element, Label] = dict(labels)
        self._dag = nx.DiGraph()
        self._dag.add_nodes_from(self._labels)
        for a, b in order:
            self.add_order(a, b)

    # ------------------------------------------------------------------ #
    # construction

    def add_element(self, element: Element, label: Label) -> Element:
        """Insert an element with its label."""
        check(element not in self._labels, f"element {element!r} already present")
        self._labels[element] = label
        self._dag.add_node(element)
        return element

    def add_order(self, smaller: Element, larger: Element) -> None:
        """Assert ``smaller < larger``; rejects cycles."""
        import networkx as nx

        check(smaller in self._labels and larger in self._labels, "unknown elements")
        check(smaller != larger, "strict order is irreflexive")
        if self._dag.has_edge(larger, smaller) or nx.has_path(self._dag, larger, smaller):
            raise ReproError(f"adding {smaller!r} < {larger!r} would create a cycle")
        self._dag.add_edge(smaller, larger)

    # ------------------------------------------------------------------ #
    # inspection

    def elements(self) -> list[Element]:
        """All elements, in insertion order."""
        return list(self._labels)

    def label(self, element: Element) -> Label:
        """The label (tuple) of ``element``."""
        check(element in self._labels, f"unknown element {element!r}")
        return self._labels[element]

    def labels(self) -> dict[Element, Label]:
        """A copy of the labeling."""
        return dict(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def less_than(self, a: Element, b: Element) -> bool:
        """Whether ``a < b`` in the transitive closure."""
        import networkx as nx

        return a != b and nx.has_path(self._dag, a, b)

    def comparable(self, a: Element, b: Element) -> bool:
        """Whether ``a`` and ``b`` are ordered either way."""
        return self.less_than(a, b) or self.less_than(b, a)

    def closure_pairs(self) -> set[tuple[Element, Element]]:
        """All pairs ``(a, b)`` with ``a < b`` (transitive closure)."""
        import networkx as nx

        closure = set()
        for a in self._dag.nodes:
            for b in nx.descendants(self._dag, a):
                closure.add((a, b))
        return closure

    def hasse_edges(self) -> list[tuple[Element, Element]]:
        """The covering relation (transitive reduction)."""
        import networkx as nx

        reduction = nx.transitive_reduction(self._dag)
        return list(reduction.edges)

    def predecessors(self, element: Element) -> set[Element]:
        """Immediate predecessors in the internal DAG."""
        return set(self._dag.predecessors(element))

    def minimal_elements(self, within: Iterable[Element] | None = None) -> list[Element]:
        """Elements with no smaller element (optionally within a subset)."""
        pool = set(within) if within is not None else set(self._labels)
        return [
            e
            for e in self._labels
            if e in pool and not any(p in pool for p in self._dag.predecessors(e))
        ]

    def is_total(self) -> bool:
        """Whether the order is total (a chain)."""
        return all(
            self.comparable(a, b)
            for a, b in itertools.combinations(self._labels, 2)
        )

    def is_unordered(self) -> bool:
        """Whether the order is empty (an antichain)."""
        return self._dag.number_of_edges() == 0

    def has_distinct_labels(self) -> bool:
        """Whether no two elements share a label."""
        values = list(self._labels.values())
        return len(values) == len(set(values))

    def restricted_to(self, keep: Iterable[Element]) -> "LabeledPoset":
        """The induced sub-poset on ``keep`` (closure restricted)."""
        keep_set = set(keep)
        sub = LabeledPoset({e: l for e, l in self._labels.items() if e in keep_set})
        for a, b in self.closure_pairs():
            if a in keep_set and b in keep_set:
                sub.add_order(a, b)
        return sub

    def relabeled(self, mapping) -> "LabeledPoset":
        """Apply ``mapping`` to every label (projection of tuples)."""
        result = LabeledPoset({e: mapping(l) for e, l in self._labels.items()})
        for a, b in self._dag.edges:
            result.add_order(a, b)
        return result

    def dag_copy(self) -> nx.DiGraph:
        """A copy of the internal DAG (edges may be non-reduced)."""
        import networkx as nx

        return nx.DiGraph(self._dag)

    def __repr__(self) -> str:
        return f"LabeledPoset(elements={len(self._labels)}, edges={self._dag.number_of_edges()})"


def chain(labels: Iterable[Label], prefix: str = "c") -> LabeledPoset:
    """A totally ordered poset with the given label sequence."""
    labels = list(labels)
    poset = LabeledPoset({f"{prefix}{i}": label for i, label in enumerate(labels)})
    for i in range(len(labels) - 1):
        poset.add_order(f"{prefix}{i}", f"{prefix}{i+1}")
    return poset


def antichain(labels: Iterable[Label], prefix: str = "a") -> LabeledPoset:
    """A completely unordered poset (a bag of tuples)."""
    labels = list(labels)
    return LabeledPoset({f"{prefix}{i}": label for i, label in enumerate(labels)})
