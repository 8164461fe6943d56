"""Existential rules (tuple-generating dependencies) and weak acyclicity.

The rule language of the paper's Section 2.3 vision: rules may assert the
existence of *new* elements ("a PhD student and their advisor have probably
co-authored some paper"), which plain Datalog cannot. A rule is

    body(x̄, ȳ) → ∃z̄ head(x̄, z̄)

with frontier variables x̄ shared between body and head and existential
variables z̄ instantiated by fresh labeled nulls during the chase. Weak
acyclicity (the standard position-graph test) guarantees chase termination.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.queries.cq import Atom, Variable
from repro.util import check


@dataclass(frozen=True)
class ExistentialRule:
    """A tgd ``body → ∃(head-vars ∖ body-vars) head``."""

    body: tuple[Atom, ...]
    head: tuple[Atom, ...]

    def __post_init__(self):
        check(len(self.body) > 0, "rule body cannot be empty")
        check(len(self.head) > 0, "rule head cannot be empty")

    def body_variables(self) -> frozenset[Variable]:
        """Variables occurring in the body."""
        return frozenset().union(*(a.variables() for a in self.body))

    def head_variables(self) -> frozenset[Variable]:
        """Variables occurring in the head."""
        return frozenset().union(*(a.variables() for a in self.head))

    def frontier(self) -> frozenset[Variable]:
        """Variables shared between body and head."""
        return self.body_variables() & self.head_variables()

    def existential_variables(self) -> frozenset[Variable]:
        """Head variables not bound by the body (instantiated by nulls)."""
        return self.head_variables() - self.body_variables()

    def is_guarded(self) -> bool:
        """Whether some body atom contains all body variables (guarded tgd).

        The paper's candidate class for preserving treewidth-based
        tractability through the chase.
        """
        all_vars = self.body_variables()
        return any(a.variables() == all_vars for a in self.body)

    def __repr__(self) -> str:
        body = " ∧ ".join(repr(a) for a in self.body)
        head = " ∧ ".join(repr(a) for a in self.head)
        existentials = ",".join(sorted(v.name for v in self.existential_variables()))
        prefix = f"∃{existentials} " if existentials else ""
        return f"{body} → {prefix}{head}"


def rule(body: Iterable[Atom], head: Iterable[Atom]) -> ExistentialRule:
    """Convenience constructor for existential rules."""
    return ExistentialRule(tuple(body), tuple(head))


def is_weakly_acyclic(rules: Iterable[ExistentialRule]) -> bool:
    """Standard weak-acyclicity test on the position dependency graph.

    Positions are ``(relation, index)``. For each rule and each frontier
    variable at body position p: add a normal edge p → q for every head
    position q of that variable, and a *special* edge p → q for every head
    position q of an existential variable. Weakly acyclic iff no cycle goes
    through a special edge — which bounds the chase.
    """
    import networkx as nx

    rules = list(rules)
    graph = nx.DiGraph()
    special: set[tuple] = set()
    for r in rules:
        frontier = r.frontier()
        body_positions: dict[Variable, list[tuple]] = {}
        for a in r.body:
            for index, term in enumerate(a.terms):
                if isinstance(term, Variable) and term in frontier:
                    body_positions.setdefault(term, []).append((a.relation, index))
        for v, positions in body_positions.items():
            for p in positions:
                graph.add_node(p)
                for h in r.head:
                    for index, term in enumerate(h.terms):
                        if not isinstance(term, Variable):
                            continue
                        q = (h.relation, index)
                        if term == v:
                            graph.add_edge(p, q)
                        elif term in r.existential_variables():
                            graph.add_edge(p, q)
                            special.add((p, q))
    # A special edge inside a strongly connected component = bad cycle.
    for component in nx.strongly_connected_components(graph):
        if len(component) == 1:
            node = next(iter(component))
            if (node, node) in special and graph.has_edge(node, node):
                return False
            continue
        for a, b in special:
            if a in component and b in component:
                return False
    return True
