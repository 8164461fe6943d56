"""pcc-instances: facts annotated by gates of a shared Boolean circuit.

The paper's Theorem 2 formalism. Annotations are circuit *gates* rather than
formulas, so correlations can share structure; tractability requires a
bounded-width tree decomposition that *jointly* covers the instance's Gaifman
graph and the annotation circuit, respecting the fact-to-gate links. We
materialize that joint graph (:meth:`PCCInstance.joint_graph`) so its
heuristic width can be measured and exploited.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import TYPE_CHECKING

from repro.circuits import Circuit, from_formula
from repro.circuits.graph import moral_graph
from repro.events import EventSpace, Formula
from repro.instances.base import Fact, Instance
from repro.instances.columnar import make_instance
from repro.util import check

if TYPE_CHECKING:
    import networkx as nx


class PCCInstance:
    """An instance, an annotation circuit, an event space, and fact→gate links."""

    def __init__(
        self,
        space: EventSpace | None = None,
        circuit: Circuit | None = None,
        backend: str | None = None,
    ):
        self.instance = make_instance(backend)
        self.circuit = circuit if circuit is not None else Circuit()
        self.space = space if space is not None else EventSpace()
        self._gate_of: dict[Fact, int] = {}

    def add(self, f: Fact, gate: int) -> Fact:
        """Insert fact ``f`` annotated by circuit gate ``gate``."""
        check(0 <= gate < len(self.circuit), f"unknown gate {gate}")
        self.instance.add(f)
        self._gate_of[f] = gate
        return f

    def add_event(self, name: str, probability: float) -> str:
        """Register an event used by the annotation circuit."""
        return self.space.add(name, probability)

    def add_with_formula(self, f: Fact, formula: Formula) -> Fact:
        """Insert a fact annotated by a formula, compiled into the circuit."""
        _, gate = from_formula(formula, self.circuit)
        return self.add(f, gate)

    def gate_of(self, f: Fact) -> int:
        """Return the annotation gate of ``f``."""
        check(f in self._gate_of, f"unknown fact {f!r}")
        return self._gate_of[f]

    def facts(self) -> list[Fact]:
        """Return the facts in insertion order."""
        return self.instance.facts()

    def __len__(self) -> int:
        return len(self.instance)

    # ------------------------------------------------------------------ #
    # semantics

    def world(self, valuation: Mapping[str, bool]) -> Instance:
        """Return the world selected by an event valuation."""
        return Instance(
            f
            for f in self.facts()
            if self.circuit.evaluate(valuation, self._gate_of[f])
        )

    def possible_worlds(self) -> Iterator[tuple[Instance, float]]:
        """Enumerate ``(world, probability)`` pairs — exponential oracle."""
        events = sorted(self.space.events())
        check(len(events) <= 20, "possible-world enumeration limited to 20 events")
        for valuation in self.space.valuations(events):
            yield self.world(valuation), self.space.valuation_probability(valuation)

    def fact_probability_enumerate(self, f: Fact) -> float:
        """Marginal probability of ``f`` by enumeration (oracle)."""
        gate = self.gate_of(f)
        total = 0.0
        for valuation in self.space.valuations(self.space.events()):
            if self.circuit.evaluate(valuation, gate):
                total += self.space.valuation_probability(valuation)
        return total

    # ------------------------------------------------------------------ #
    # the joint structural graph of Theorem 2

    def joint_graph(self) -> nx.Graph:
        """Return the joint graph of instance + circuit + fact/gate links.

        Vertices are domain constants and circuit gate ids (disambiguated by
        tagging); edges are Gaifman edges, moralized circuit edges, and one
        edge from each fact's constants to its annotation gate. Bounded
        treewidth of this graph is (our computable rendering of) the paper's
        bounded-treewidth pcc-instance condition.
        """
        import networkx as nx

        graph = nx.Graph()
        for constant in self.instance.domain():
            graph.add_node(("d", constant))
        binary = self.circuit  # widths are measured on the raw shared circuit
        for gid, neighbours in moral_graph(binary, restrict_to_output=False).adjacency():
            graph.add_node(("g", gid))
            for other in neighbours:
                graph.add_edge(("g", gid), ("g", other))
        for f in self.facts():
            for i, a in enumerate(f.args):
                for b in f.args[i + 1 :]:
                    if a != b:
                        graph.add_edge(("d", a), ("d", b))
            gate = self._gate_of[f]
            for a in f.args:
                graph.add_edge(("d", a), ("g", gate))
        return graph

    def joint_width(self, heuristic: str = "min_fill") -> int:
        """Heuristic width of :meth:`joint_graph` — Theorem 2's parameter."""
        from repro.treewidth import decompose

        return decompose(self.joint_graph(), heuristic).width()

    def __repr__(self) -> str:
        return (
            f"PCCInstance(facts={len(self.instance)}, gates={len(self.circuit)},"
            f" events={len(self.space)})"
        )


def from_pc_instance(pc) -> PCCInstance:
    """Compile a pc-instance's formula annotations into a shared circuit."""
    pcc = PCCInstance(space=pc.space)
    for f in pc.facts():
        pcc.add_with_formula(f, pc.annotation(f))
    return pcc


def from_tid(tid) -> PCCInstance:
    """View a TID as a pcc-instance: one variable gate per fact."""
    pcc = PCCInstance()
    for f in tid.facts():
        pcc.add_event(f.variable_name, tid.probability(f))
        pcc.add(f, pcc.circuit.variable(f.variable_name))
    return pcc
