"""The lineage engine: Theorems 1 and 2 of the paper, executable.

Given an uncertain instance, a tree decomposition of its Gaifman graph, and a
deterministic decomposition automaton for the query, one bottom-up pass over
the nice decomposition produces a *lineage circuit* over fact-presence
variables: the circuit is true exactly on the possible worlds satisfying the
query. By construction the circuit is

- **deterministic** (OR children correspond to distinct automaton states or
  to a fact's presence/absence — mutually exclusive events), and
- **decomposable** (AND children range over disjoint sets of read facts),

so on TID instances the query probability is a single linear pass (the
``dd`` engine of :func:`repro.circuits.probability`) — Theorem 1. On
pcc-instances the fact variables are substituted by their annotation gates
and the combined circuit is evaluated by junction-tree message passing —
Theorem 2's route, although nothing here bounds the width message passing
sees: it decomposes the combined circuit's moral graph heuristically, and
``max_width`` is the only guard.

A second mode, :func:`build_provenance_circuit`, builds the *monotone
provenance circuit* of a CQ/UCQ as its witness DNF — an OR over the
homomorphisms of the AND of their witness facts' variables, appended in
bulk with no tree decomposition. Evaluated in a commutative semiring it
yields the query's provenance — the paper's provenance connection.
Monotone CQ/UCQs on pcc-instances take this route too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuits import Circuit, CompiledCircuit, compile_circuit, probability
from repro.circuits.circuit import K_AND, K_OR
from repro.core.cq_automaton import automaton_for
from repro.instances.base import Fact, Instance
from repro.instances.pcc import PCCInstance
from repro.instances.tid import TIDInstance
from repro.treewidth import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    READ,
    NiceTree,
    TreeDecomposition,
    build_nice_tree,
    decompose,
)
from repro.util import ReproError, check


@dataclass
class Lineage:
    """Result of a lineage run: the circuit plus structural diagnostics.

    The automaton path (:func:`build_lineage`) fills in the decomposition
    machinery it ran over; the witness-DNF path
    (:func:`build_provenance_circuit`) builds no tree, so its structural
    fields stay ``None``/0 and ``max_profile_size`` reports the widest
    witness set instead.
    """

    circuit: Circuit
    nice_tree: NiceTree | None = None
    decomposition: TreeDecomposition | None = None
    max_profile_size: int = 0
    node_count: int = 0
    fact_variables: dict[Fact, str] = field(default_factory=dict)

    def compiled(self) -> CompiledCircuit:
        """The lineage circuit lowered to the flat IR (compiled once).

        The compiled form is cached on the circuit arena, so every
        evaluation path — probabilities, possible-world checks, sampled
        batches — shares one lowering.
        """
        return compile_circuit(self.circuit)

    def probability_tid(self, tid: TIDInstance) -> float:
        """Theorem 1 evaluation: linear-time pass over the d-D circuit.

        Dispatches through the engine registry (engine ``dd``) so a
        process-wide :func:`repro.circuits.evaluation.force_engine`
        override applies here too.
        """
        return probability(self.compiled(), tid.event_space(), engine="dd")


def instance_decomposition(
    instance: Instance, heuristic: str = "min_fill"
) -> TreeDecomposition:
    """Tree decomposition of the instance's Gaifman graph."""
    graph = instance.gaifman_graph()
    if graph.number_of_nodes() == 0:
        return TreeDecomposition({0: []}, [])
    return decompose(graph, heuristic)


def assign_facts_to_bags(
    instance: Instance, decomposition: TreeDecomposition
) -> dict[int, list[Fact]]:
    """Choose, for every fact, one bag containing all of its constants.

    Existence is guaranteed for valid decompositions because a fact's
    constants form a clique of the Gaifman graph.
    """
    items_at: dict[int, list[Fact]] = {}
    bag_ids = sorted(decomposition.bags)
    # Invert the decomposition once (constant → bags holding it) so each
    # fact intersects the bag sets of its constants instead of scanning all
    # bags — O(|facts| · bag-set size) instead of O(|facts| · |bags|).
    bags_of_constant: dict[object, set[int]] = {}
    for node, bag in decomposition.bags.items():
        for constant in bag:
            bags_of_constant.setdefault(constant, set()).add(node)
    for f in instance.facts():
        candidates: set[int] | None = None
        for constant in frozenset(f.args):
            holding = bags_of_constant.get(constant)
            if holding is None:
                candidates = None
                break
            candidates = holding if candidates is None else candidates & holding
            if not candidates:
                candidates = None
                break
        if candidates is None and f.args:
            raise ReproError(
                f"no bag contains the constants of {f!r}; "
                "is the decomposition valid for this instance?"
            )
        home = min(candidates) if candidates else bag_ids[0]
        items_at.setdefault(home, []).append(f)
    return items_at


def build_lineage(
    instance: Instance,
    query,
    decomposition: TreeDecomposition | None = None,
    heuristic: str = "min_fill",
) -> Lineage:
    """Run the deterministic automaton for ``query`` over ``instance``.

    ``query`` may be a CQ, a UCQ, or any :class:`DecompositionAutomaton`.
    Returns the deterministic, decomposable lineage circuit whose variables
    are the facts' :attr:`~repro.instances.base.Fact.variable_name`.
    """
    automaton = automaton_for(query)
    if decomposition is None:
        decomposition = instance_decomposition(instance, heuristic)
    items_at = assign_facts_to_bags(instance, decomposition)
    nice = build_nice_tree(decomposition, items_at)

    circuit = Circuit()
    max_profile = 0
    node_count = 0
    # state_gates maps each nice node (by object identity, postorder) to a
    # dict from automaton state to the gate "the run below is in this state".
    gates_of: dict[int, dict] = {}

    for node in nice.iter_postorder():
        node_count += 1
        if node.kind == LEAF:
            table = {automaton.initial_state(): circuit.true()}
        elif node.kind == INTRODUCE:
            child_table = gates_of.pop(id(node.children[0]))
            table = {}
            for state, gate in child_table.items():
                new_state = automaton.introduce(state, node.vertex, node.bag)
                _accumulate(table, new_state, gate)
            table = _combine(circuit, table)
        elif node.kind == FORGET:
            child_table = gates_of.pop(id(node.children[0]))
            table = {}
            for state, gate in child_table.items():
                new_state = automaton.forget(state, node.vertex, node.bag)
                _accumulate(table, new_state, gate)
            table = _combine(circuit, table)
        elif node.kind == JOIN:
            left_table = gates_of.pop(id(node.children[0]))
            right_table = gates_of.pop(id(node.children[1]))
            table = {}
            for left_state, left_gate in left_table.items():
                for right_state, right_gate in right_table.items():
                    new_state = automaton.join(left_state, right_state, node.bag)
                    _accumulate(
                        table, new_state, circuit.and_gate([left_gate, right_gate])
                    )
            table = _combine(circuit, table)
        elif node.kind == READ:
            child_table = gates_of.pop(id(node.children[0]))
            f: Fact = node.item  # type: ignore[assignment]
            fact_var = circuit.variable(f.variable_name)
            table = {}
            for state, gate in child_table.items():
                absent, present = automaton.read(state, f, node.bag)
                if absent == present:
                    _accumulate(table, absent, gate)
                else:
                    _accumulate(
                        table, absent, circuit.and_gate([gate, circuit.negation(fact_var)])
                    )
                    _accumulate(table, present, circuit.and_gate([gate, fact_var]))
            table = _combine(circuit, table)
        else:  # pragma: no cover
            raise ReproError(f"unknown nice-tree node kind {node.kind!r}")
        max_profile = max(max_profile, len(table))
        gates_of[id(node)] = table

    root_table = gates_of[id(nice.root)]
    accepting = [gate for state, gate in root_table.items() if automaton.accepts(state)]
    circuit.set_output(circuit.or_gate(accepting))
    fact_variables = {f: f.variable_name for f in instance.facts()}
    return Lineage(
        circuit=circuit,
        nice_tree=nice,
        decomposition=decomposition,
        max_profile_size=max_profile,
        node_count=node_count,
        fact_variables=fact_variables,
    )


def _accumulate(table: dict, state, gate) -> None:
    table.setdefault(state, []).append(gate)


def _combine(circuit: Circuit, table: dict) -> dict:
    return {state: circuit.or_gate(gates) for state, gates in table.items()}


# --------------------------------------------------------------------------- #
# Probability front-ends


def tid_probability(
    query,
    tid: TIDInstance,
    decomposition: TreeDecomposition | None = None,
    heuristic: str = "min_fill",
) -> float:
    """Theorem 1: exact query probability on a TID instance.

    Linear in the instance for fixed query and decomposition width.
    """
    lineage = build_lineage(tid.instance, query, decomposition, heuristic)
    return lineage.probability_tid(tid)


def pcc_probability(
    query,
    pcc: PCCInstance,
    decomposition: TreeDecomposition | None = None,
    heuristic: str = "min_fill",
    max_width: int = 24,
    return_report: bool = False,
):
    """Theorem 2: exact query probability on a pcc-instance.

    Builds a lineage over fact variables, substitutes each fact variable by
    its annotation gate (yielding the combined circuit over event variables),
    and runs junction-tree message passing. Tractable when the combined
    circuit is tree-like — the bounded-treewidth pcc condition.

    Message passing does not require determinism, so monotone CQ/UCQ
    queries use the witness-DNF provenance circuit
    (:func:`build_provenance_circuit`); other queries use the deterministic
    automaton lineage (:func:`build_lineage`). Nothing in this route bounds
    the width message passing sees: it decomposes the combined circuit's
    moral graph with ``heuristic``, and a width above ``max_width`` raises
    :class:`~repro.util.ReproError`.
    """
    from repro.queries.cq import ConjunctiveQuery, UnionOfConjunctiveQueries

    if isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
        lineage = build_provenance_circuit(pcc.instance, query, decomposition, heuristic)
    else:
        lineage = build_lineage(pcc.instance, query, decomposition, heuristic)
    combined = combine_with_annotations(lineage.circuit, pcc)
    return probability(
        combined,
        pcc.space,
        engine="message_passing",
        heuristic=heuristic,
        max_width=max_width,
        return_report=return_report,
    )


def combine_with_annotations(lineage_circuit: Circuit, pcc: PCCInstance) -> Circuit:
    """Substitute fact variables of a lineage by their annotation gates."""
    combined = Circuit()
    annotation_gate: dict[str, int] = {}
    translation = pcc.circuit.copy_into(
        combined, substitution={}, roots=[pcc.gate_of(f) for f in pcc.facts()]
    )
    for f in pcc.facts():
        annotation_gate[f.variable_name] = translation[pcc.gate_of(f)]
    lineage_translation = lineage_circuit.copy_into(combined, annotation_gate)
    check(lineage_circuit.output is not None, "lineage circuit has no output")
    combined.set_output(lineage_translation[lineage_circuit.output])  # type: ignore[index]
    return combined


def pc_probability(query, pc, **kwargs):
    """Query probability on a pc-instance (formulas compiled to a circuit)."""
    from repro.instances.pcc import from_pc_instance

    return pcc_probability(query, from_pc_instance(pc), **kwargs)


# --------------------------------------------------------------------------- #
# Monotone provenance circuits (witness DNF over the join plan)


def _witness_rows(query, instance):
    """Witness fact variables of every homomorphism, index-encoded.

    Returns ``(variables, id_space, flat_indices, width, n_rows)``: the
    distinct variables in first-occurrence row-major order, the id space
    they are fact ids of (``None`` when they are names), the flattened
    witness matrix as indices into ``variables`` (row-major, ``width``
    entries per row), the number of atoms, and the number of
    homomorphisms. On a columnar instance the variables are the witness
    fact ids straight out of the vectorized join — no ``Fact``
    objects, no names; the object backend enumerates the backtracking
    search's witnesses by name. Both produce the identical sequence, so
    the circuits built from them are bit-identical.
    """
    from repro.instances.columnar import ColumnarInstance

    width = len(query.atoms)
    if isinstance(instance, ColumnarInstance):
        from repro.queries.vectorized import evaluate_cq

        result = evaluate_cq(query, instance)
        if result.n_rows == 0:
            return [], None, [], width, 0
        flat = result.witnesses.ravel()  # row-major
        # Variables in first-occurrence order (the object path's slot
        # order), found through dense per-fact-id arrays, no sort.
        positions = np.arange(flat.size, dtype=np.int64)
        first = np.full(len(instance), flat.size, dtype=np.int64)
        np.minimum.at(first, flat, positions)
        fids = flat[first[flat] == positions]
        rank = np.empty(len(instance), dtype=np.int64)
        rank[fids] = np.arange(fids.size, dtype=np.int64)
        return fids, instance.id_space, rank[flat], width, result.n_rows
    index_of: dict[str, int] = {}
    names: list[str] = []
    flat_indices: list[int] = []
    n_rows = 0
    for witness in query.witnesses(instance):
        n_rows += 1
        for f in witness:
            name = f.variable_name
            idx = index_of.get(name)
            if idx is None:
                idx = len(names)
                index_of[name] = idx
                names.append(name)
            flat_indices.append(idx)
    return names, None, flat_indices, width, n_rows


def _append_witness_dnf(circuit: Circuit, query, instance) -> tuple[int, int]:
    """Append the witness DNF of a CQ to ``circuit``; returns (gate, rows).

    One bulk variable append, one bulk AND append (a gate per
    homomorphism), one OR over them — entirely on the arena's flat
    mirrors, so a million-row lineage never materializes gate objects.
    A query without homomorphisms appends nothing and returns gate -1.
    """
    variables, id_space, flat_indices, width, n_rows = _witness_rows(
        query, instance
    )
    if n_rows == 0:
        return -1, 0
    var_gates = circuit.append_variables(variables, id_space)
    if isinstance(flat_indices, list):
        inputs = [var_gates[i] for i in flat_indices]
    else:
        inputs = np.frombuffer(var_gates, dtype=np.int32).astype(np.int64)[
            flat_indices
        ]
    if width == 1:
        # Single-atom rows: AND of one input collapses to the input.
        and_gates = inputs
    else:
        offsets = range(0, (n_rows + 1) * width, width)
        and_gates = circuit.append_gates(K_AND, inputs, offsets)
    if n_rows == 1:
        return int(and_gates[0]), 1
    or_gate = circuit.append_gates(K_OR, and_gates, (0, n_rows))[0]
    return or_gate, n_rows


def compile_query_plan(
    instance: Instance,
    query,
    method: str = "lineage",
    heuristic: str = "min_fill",
) -> tuple[Lineage, CompiledCircuit]:
    """Lineage + compiled plan in one call — the serving compile path.

    ``method`` picks the construction: ``"lineage"`` (the default —
    :func:`build_lineage`, the decomposition-automaton Theorem 1 path) or
    ``"provenance"`` (:func:`build_provenance_circuit`, the monotone
    provenance circuit). Only ``"lineage"`` plans are deterministic and
    decomposable, i.e. valid inputs to the linear probability pass
    (``probability``/``probability_batch``); the monotone circuit defines
    the same Boolean function but shares witnesses across OR branches, so
    it is for semiring provenance, not for marginals. Returns
    ``(lineage, compiled)``; the lowering is cached on the arena, so the
    query service registers the compiled plan without paying a second
    lowering anywhere.
    """
    builders = {
        "lineage": build_lineage,
        "provenance": build_provenance_circuit,
    }
    builder = builders.get(method)
    if builder is None:
        raise ReproError(
            f"unknown compile method {method!r}; expected one of "
            f"{sorted(builders)}"
        )
    lineage = builder(instance, query, heuristic=heuristic)
    return lineage, lineage.compiled()


def build_provenance_circuit(
    instance: Instance,
    query,
    decomposition: TreeDecomposition | None = None,
    heuristic: str = "min_fill",
) -> Lineage:
    """Build the *monotone* provenance circuit of a CQ/UCQ over an instance.

    The circuit is the witness DNF of the query's join plan: an OR over
    homomorphisms of the AND of their witness facts' variables (for UCQs,
    one DNF per disjunct under a final OR). It is appended to the arena in
    bulk — vectorized end to end on columnar instances. Absence is never
    mentioned (monotone queries only). Evaluating the circuit in a
    commutative semiring yields the query's GKT provenance — see
    :mod:`repro.semirings.provenance`.

    ``decomposition``/``heuristic`` are accepted for signature
    compatibility with :func:`build_lineage`; the DNF needs no tree.
    """
    del decomposition, heuristic  # DNF construction is decomposition-free
    from repro.queries.cq import ConjunctiveQuery, UnionOfConjunctiveQueries

    if isinstance(query, ConjunctiveQuery):
        disjuncts: tuple[ConjunctiveQuery, ...] = (query,)
    elif isinstance(query, UnionOfConjunctiveQueries):
        disjuncts = query.disjuncts
    else:
        raise ReproError("provenance circuits support CQs and UCQs only")

    circuit = Circuit()
    outputs = []
    max_rows = 0
    for q in disjuncts:
        gate, n_rows = _append_witness_dnf(circuit, q, instance)
        if n_rows:
            outputs.append(gate)
        max_rows = max(max_rows, n_rows)
    if not outputs:
        circuit.set_output(circuit.false())
    elif len(outputs) == 1:
        circuit.set_output(outputs[0])
    else:
        # A bulk OR keeps the arena object-free (and fact-id variables
        # unnamed); empty disjuncts are left out of it.
        circuit.set_output(
            circuit.append_gates(K_OR, outputs, (0, len(outputs)))[0]
        )
    return Lineage(
        circuit=circuit, max_profile_size=max_rows, node_count=len(circuit)
    )
