"""Tractable query evaluation on PrXML documents via circuits.

The bottom-up (A, D) pattern computation is lifted from concrete trees to the
uncertain document: for every document node we build one circuit gate per
reachable match state, guarded by fresh independent choice variables (for
ind/mux) and by the document's global event variables (for cie).

For **local** models ({ind, mux, det}) the resulting circuit is deterministic
and decomposable over independent variables, so the probability is a single
linear pass (the ``dd`` engine of :func:`repro.circuits.probability`) — the
Cohen–Kimelfeld–Sagiv tractability result the paper builds on. With **cie**
nodes, shared event variables break decomposability; the circuit is evaluated
by junction-tree message passing instead, which stays tractable exactly when
the events' scopes keep the circuit tree-like — the paper's bounded-scope
condition (experiment E5 measures this).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits import Circuit, available_engines
from repro.circuits import probability as circuit_probability
from repro.events import EventSpace
from repro.prxml.model import CIE, DET, IND, MUX, REGULAR, PNode, PrXMLDocument
from repro.prxml.patterns import TreePattern
from repro.util import ReproError, check

AUTO = "auto"
DIRECT = "dd"
MESSAGE_PASSING = "message_passing"
SHANNON = "shannon"

State = tuple[frozenset, frozenset]


@dataclass
class PrXMLLineage:
    """Lineage of a tree-pattern query over a PrXML document."""

    circuit: Circuit
    space: EventSpace
    has_global: bool
    max_states: int

    def probability(self, method: str = AUTO, max_width: int = 24) -> float:
        """Evaluate the match probability with the chosen engine.

        ``method`` is any registered engine name of
        :mod:`repro.circuits.evaluation` (plus the ``"auto"`` default which
        picks the Theorem-1 ``dd`` pass for local documents and junction-tree
        message passing otherwise). The circuit is compiled once and reused
        across calls.
        """
        if method == AUTO:
            method = DIRECT if not self.has_global else MESSAGE_PASSING
        if method == DIRECT:
            check(
                not self.has_global,
                "direct d-D evaluation requires a local ({ind,mux,det}) document",
            )
            return circuit_probability(self.circuit, self.space, engine=DIRECT)
        if method == MESSAGE_PASSING:
            return circuit_probability(
                self.circuit, self.space, engine=MESSAGE_PASSING, max_width=max_width
            )
        if method in available_engines():
            return circuit_probability(self.circuit, self.space, engine=method)
        raise ReproError(f"unknown evaluation method {method!r}")


def build_pattern_lineage(doc: PrXMLDocument, pattern: TreePattern) -> PrXMLLineage:
    """Build the match-state circuit of ``pattern`` over ``doc``."""
    circuit = Circuit()
    space = EventSpace({e: doc.space.probability(e) for e in doc.space.events()})
    counter = {"node": 0}
    max_states = [1]

    def fold(
        acc: dict[State, int], options: dict[State, int]
    ) -> dict[State, int]:
        table: dict[State, list[int]] = {}
        for (ua1, ud1), g1 in acc.items():
            for (ua2, ud2), g2 in options.items():
                key = (ua1 | ua2, ud1 | ud2)
                table.setdefault(key, []).append(circuit.and_gate([g1, g2]))
        return {state: circuit.or_gate(gates) for state, gates in table.items()}

    def empty_contribution() -> dict[State, int]:
        return {(frozenset(), frozenset()): circuit.true()}

    def guard_options(options: dict[State, int], keep: int, drop: int) -> dict[State, int]:
        """Mix a contribution with its absence under a Boolean guard gate."""
        table: dict[State, list[int]] = {}
        for state, gate in options.items():
            table.setdefault(state, []).append(circuit.and_gate([gate, keep]))
        table.setdefault((frozenset(), frozenset()), []).append(drop)
        return {state: circuit.or_gate(gates) for state, gates in table.items()}

    def contributions(node: PNode) -> dict[State, int]:
        counter["node"] += 1
        node_id = counter["node"]
        if node.kind == REGULAR:
            acc = empty_contribution()
            for child in node.children:
                acc = fold(acc, contributions(child))
            table: dict[State, list[int]] = {}
            for (ua, ud), gate in acc.items():
                a, d = pattern.match_state_from_unions(node.label, ua, ud)
                table.setdefault((a, d), []).append(gate)
            result = {s: circuit.or_gate(gs) for s, gs in table.items()}
        elif node.kind == DET:
            result = empty_contribution()
            for child in node.children:
                result = fold(result, contributions(child))
        elif node.kind == IND:
            result = empty_contribution()
            for index, child in enumerate(node.children):
                name = f"c:ind:{node_id}:{index}"
                space.add(name, child.probability or 0.0)
                keep = circuit.variable(name)
                guarded = guard_options(
                    contributions(child), keep, circuit.negation(keep)
                )
                result = fold(result, guarded)
        elif node.kind == MUX:
            result = _mux_contributions(node, node_id, circuit, space, contributions)
        elif node.kind == CIE:
            result = empty_contribution()
            for child in node.children:
                literals = [
                    circuit.variable(e) if positive else circuit.negation(circuit.variable(e))
                    for e, positive in child.conditions
                ]
                keep = circuit.and_gate(literals)
                guarded = guard_options(
                    contributions(child), keep, circuit.negation(keep)
                )
                result = fold(result, guarded)
        else:  # pragma: no cover
            raise ReproError(f"unknown PrXML node kind {node.kind!r}")
        max_states[0] = max(max_states[0], len(result))
        return result

    root_states = contributions(doc.root)
    root_index = pattern.node_index(pattern.root)
    accepting = [
        gate for (_a, d), gate in root_states.items() if root_index in d
    ]
    circuit.set_output(circuit.or_gate(accepting))
    return PrXMLLineage(
        circuit=circuit,
        space=space,
        has_global=doc.has_global_uncertainty(),
        max_states=max_states[0],
    )


def _mux_contributions(node, node_id, circuit, space, contributions) -> dict[State, int]:
    """Chain-encode a mux choice with fresh independent Boolean variables.

    Child i is selected iff ``¬b_1 ∧ … ∧ ¬b_{i-1} ∧ b_i`` where
    ``P(b_i) = p_i / (1 − p_1 − … − p_{i-1})``; the leftover mass selects no
    child. The chain keeps variables independent and selections mutually
    exclusive, preserving determinism of the circuit.
    """
    table: dict[State, list[int]] = {}
    remaining = 1.0
    prefix_not: list[int] = []
    for index, child in enumerate(node.children):
        p = child.probability or 0.0
        conditional = 0.0 if remaining <= 1e-12 else min(1.0, p / remaining)
        name = f"c:mux:{node_id}:{index}"
        space.add(name, conditional)
        b = circuit.variable(name)
        select = circuit.and_gate(prefix_not + [b])
        for state, gate in contributions(child).items():
            table.setdefault(state, []).append(circuit.and_gate([gate, select]))
        prefix_not.append(circuit.negation(b))
        remaining -= p
    none_selected = circuit.and_gate(prefix_not)
    table.setdefault((frozenset(), frozenset()), []).append(none_selected)
    return {state: circuit.or_gate(gates) for state, gates in table.items()}


def query_probability(
    doc: PrXMLDocument,
    pattern: TreePattern,
    method: str = AUTO,
    max_width: int = 24,
) -> float:
    """Probability that ``pattern`` matches a random world of ``doc``."""
    lineage = build_pattern_lineage(doc, pattern)
    return lineage.probability(method=method, max_width=max_width)
