"""Deterministic, decomposable circuits: the property checks and the seed pass.

The lineage circuits produced by running a *deterministic* bottom-up
automaton over a tree encoding (the paper's Theorem 1 pipeline) are

- **deterministic**: the children of every OR gate are pairwise logically
  exclusive (two distinct automaton states cannot both be reached), and
- **decomposable**: the children of every AND gate mention disjoint sets of
  variables (disjoint subtrees of the encoding, plus the freshly read fact).

On such circuits, with *independent* variables (the TID case), probability is
a single bottom-up pass: ``P(OR) = Σ P(child)``, ``P(AND) = Π P(child)``,
``P(NOT g) = 1 − P(g)``. This is the linear-time claim of Theorem 1; the
``dd`` engine of :mod:`repro.circuits.evaluation` runs it on the compiled IR.

The engine trusts the flags the lineage engine sets; the checks here let
tests verify determinism and decomposability empirically, and the seed
object-graph pass stays as the baseline E13 times the compiled IR against.
"""

from __future__ import annotations

from repro.circuits.circuit import AND, CONST, NOT, OR, VAR, Circuit
from repro.events import EventSpace
from repro.util import ReproError, check, stable_rng


def _probability_dd_object_graph(circuit: Circuit, space: EventSpace) -> float:
    """The seed object-graph walker, kept as the benchmark baseline.

    Re-walks the hash-consed gate DAG and fills a per-gate dict on every
    call — exactly the constant factors the compiled IR removes
    (``benchmarks/bench_compiled_eval.py`` measures the gap).
    """
    check(circuit.output is not None, "circuit has no output gate")
    values: dict[int, float] = {}
    for gid in circuit.reachable_from_output():
        gate = circuit.gate(gid)
        if gate.kind == VAR:
            values[gid] = space.probability(gate.payload)  # type: ignore[arg-type]
        elif gate.kind == CONST:
            values[gid] = 1.0 if gate.payload else 0.0
        elif gate.kind == NOT:
            values[gid] = 1.0 - values[gate.inputs[0]]
        elif gate.kind == AND:
            product = 1.0
            for i in gate.inputs:
                product *= values[i]
            values[gid] = product
        elif gate.kind == OR:
            values[gid] = sum(values[i] for i in gate.inputs)
        else:  # pragma: no cover
            raise ReproError(f"unknown gate kind {gate.kind!r}")
    return values[circuit.output]  # type: ignore[index]


def check_determinism_sampled(circuit: Circuit, trials: int = 200, seed: int = 0) -> bool:
    """Empirically test that OR gates have mutually exclusive children.

    Draws random valuations and checks that no OR gate ever sees two true
    children. Exact checking is coNP-hard; sampling suffices as a test-time
    sanity check for the lineage engine's by-construction guarantee.
    """
    names = sorted(circuit.variables())
    rng = stable_rng(seed)
    reachable = circuit.reachable_from_output() if circuit.output is not None else list(
        circuit.gate_ids()
    )
    for _ in range(trials):
        valuation = {n: rng.random() < 0.5 for n in names}
        values: dict[int, bool] = {}
        for gid in reachable:
            gate = circuit.gate(gid)
            if gate.kind == VAR:
                values[gid] = valuation[gate.payload]  # type: ignore[index]
            elif gate.kind == CONST:
                values[gid] = bool(gate.payload)
            elif gate.kind == NOT:
                values[gid] = not values[gate.inputs[0]]
            elif gate.kind == AND:
                values[gid] = all(values[i] for i in gate.inputs)
            else:
                true_children = sum(1 for i in gate.inputs if values[i])
                if true_children > 1:
                    return False
                values[gid] = true_children == 1
    return True


def check_decomposability(circuit: Circuit) -> bool:
    """Exactly test that AND gates have variable-disjoint children."""
    reachable = circuit.reachable_from_output() if circuit.output is not None else list(
        circuit.gate_ids()
    )
    supports: dict[int, frozenset[str]] = {}
    for gid in reachable:
        gate = circuit.gate(gid)
        if gate.kind == VAR:
            supports[gid] = frozenset({gate.payload})  # type: ignore[arg-type]
        elif gate.kind == CONST:
            supports[gid] = frozenset()
        else:
            union: set[str] = set()
            for i in gate.inputs:
                child_support = supports[i]
                if gate.kind == AND and union & child_support:
                    return False
                union |= child_support
            supports[gid] = frozenset(union)
    return True
