"""Trichotomy-routed certain query answering.

:func:`certain_answers` is the entry point: classify the query with the
attack-graph test, then route —

- **fo** → execute the first-order rewriting directly against the
  instance (either backend).  No repairs are enumerated and **no circuit
  is ever compiled** — ``compile_stats()`` is untouched.
- **ptime** → the same rewriting recursion; when it gets stuck on a
  weak cycle it runs the polynomial propagation solver
  (:func:`_pair_certain`) on the residual two-atom core.  Residual
  shapes the solver doesn't cover fall back to the circuit encoding
  (counted in ``cqa_stats()["circuit_fallbacks"]``).
- **conp** → encode "q holds in a uniformly random repair" as a
  provenance circuit and threshold the probability
  (:func:`repro.cqa.circuit.certain_by_circuit`).

The recursion eliminates *unattacked* atoms (recomputing the residual
attack graph as bindings turn variables into constants), which is sound
for every class — the Koutris–Wijsen unattacked-atom lemma does not care
what the rest of the query looks like.  For the FO class it always runs
to completion; that is what "FO-rewritable" means.
"""

from __future__ import annotations

from repro.cqa.attacks import CONP, FO, PTIME, attack_graph, classify, substitute_atom
from repro.cqa.circuit import certain_by_circuit
from repro.cqa.repairs import certain_oracle
from repro.instances.base import AbstractInstance, Fact
from repro.queries.cq import Atom, ConjunctiveQuery, Variable, _match
from repro.queries.keys import KeySpec
from repro.util import ReproError, check

__all__ = ["certain_answers", "cqa_stats"]

_STATS = {
    "fo": 0,
    "ptime": 0,
    "conp": 0,
    "pair_solver": 0,
    "circuit_fallbacks": 0,
    "forced_circuit": 0,
    "forced_oracle": 0,
}

#: The methods ``certain_answers`` accepts; "auto" is trichotomy routing.
METHODS = ("auto", "rewrite", "circuit", "oracle")


def cqa_stats() -> dict[str, int]:
    """Counters of how queries were routed since the process started."""
    return dict(_STATS)


class _BlockCache:
    """Memoized ``key_index`` lookups for one (instance, keys) pair.

    The rewriting recursion asks for the same relation's blocks once per
    branch; the index is a pure function of the instance, so build it
    once.
    """

    def __init__(self, instance: AbstractInstance, keys: KeySpec):
        self.instance = instance
        self.keys = keys
        self._indexes: dict[str, dict[tuple, list[Fact]]] = {}
        self._schema = instance.relations()

    def index(self, relation: str) -> dict[tuple, list[Fact]] | None:
        if relation not in self._indexes:
            arity = self._schema.get(relation)
            if arity is None:
                self._indexes[relation] = None
            else:
                self._indexes[relation] = self.instance.key_index(
                    relation, self.keys.positions_for(relation, arity)
                )
        return self._indexes[relation]


def certain_answers(
    query: ConjunctiveQuery,
    instance: AbstractInstance,
    keys: KeySpec,
    method: str = "auto",
) -> bool:
    """Is ``query`` true in every repair of ``instance`` under ``keys``?

    ``method`` is normally ``"auto"`` (classify, then route per the
    trichotomy).  ``"rewrite"`` forces the rewriting recursion and raises
    when the query is not FO-rewritable; ``"circuit"`` forces the
    uniform-repair circuit encoding; ``"oracle"`` forces brute-force
    repair enumeration (small instances only).
    """
    check(method in METHODS, f"unknown CQA method {method!r}; expected one of {METHODS}")
    if method == "oracle":
        _STATS["forced_oracle"] += 1
        return certain_oracle(query, instance, keys)
    if method == "circuit":
        _STATS["forced_circuit"] += 1
        return certain_by_circuit(query, instance, keys)

    verdict = classify(query, keys)
    cache = _BlockCache(instance, keys)
    if method == "rewrite":
        if verdict.trichotomy != FO:
            raise ReproError(
                f"query is {verdict.trichotomy}-class: certainty is not FO-rewritable"
            )
        _STATS[FO] += 1
        return _certain(list(query.atoms), cache, allow_fallback=False)

    _STATS[verdict.trichotomy] += 1
    if verdict.trichotomy == CONP:
        return certain_by_circuit(query, instance, keys)
    return _certain(list(query.atoms), cache, allow_fallback=verdict.trichotomy == PTIME)


def _certain(atoms: list[Atom], cache: _BlockCache, allow_fallback: bool) -> bool:
    """The rewriting recursion over already-substituted atoms."""
    if not atoms:
        return True
    attacks = attack_graph(atoms, cache.keys)
    attacked = {a.target for a in attacks}
    for i in range(len(atoms)):
        if i not in attacked:
            return _eliminate(atoms, i, cache, allow_fallback)

    # Every atom is attacked: a cycle survived the bindings.
    pair = _as_weak_pair(atoms, attacks)
    if pair is not None:
        _STATS["pair_solver"] += 1
        return _pair_certain(*pair, cache)
    if not allow_fallback:
        raise ReproError("rewriting stuck on a cyclic residual; query is not FO-class")
    _STATS["circuit_fallbacks"] += 1
    return certain_by_circuit(
        ConjunctiveQuery(tuple(atoms)), cache.instance, cache.keys
    )


def _eliminate(atoms: list[Atom], i: int, cache: _BlockCache, allow_fallback: bool) -> bool:
    """One rewriting step: ∃ block of atom i whose every fact matches and
    whose every induced residual is certain."""
    a = atoms[i]
    rest = atoms[:i] + atoms[i + 1 :]
    index = cache.index(a.relation)
    if index is None:
        return False  # relation empty in every repair: the atom cannot hold
    positions = cache.keys.positions_for(a.relation, len(a.terms))
    constant_keys = [
        (slot, a.terms[p])
        for slot, p in enumerate(positions)
        if not isinstance(a.terms[p], Variable)
    ]
    for key_tuple, block in index.items():
        if any(key_tuple[slot] != value for slot, value in constant_keys):
            continue
        for f in block:
            binding = _match(a, f, {})
            if binding is None:
                break
            residual = [substitute_atom(b, binding) for b in rest]
            if not _certain(residual, cache, allow_fallback):
                break
        else:
            return True
    return False


def _as_weak_pair(
    atoms: list[Atom], attacks
) -> tuple[Atom, Atom] | None:
    """Match the residual against the shape the propagation solver covers.

    Exactly two atoms, attacking each other weakly, over the *same*
    variable set — so each fact of one atom determines its unique "good
    partner" in the other, and good pairs form a matching.
    """
    if len(atoms) != 2:
        return None
    kinds = {(a.source, a.target): a.weak for a in attacks}
    if kinds.get((0, 1)) is not True or kinds.get((1, 0)) is not True:
        return None
    if atoms[0].variables() != atoms[1].variables():
        return None
    return atoms[0], atoms[1]


def _pair_certain(a: Atom, b: Atom, cache: _BlockCache) -> bool:
    """Polynomial certainty for a residual weak 2-cycle over equal variables.

    A repair falsifies ``a ∧ b`` iff it avoids every *good pair* — a fact
    of ``a``'s relation and its unique partner in ``b``'s relation that
    jointly satisfy both atoms.  Propagate forced choices to a fixpoint:

    - a block containing a *free* (pair-less) fact can always pick it, so
      it constrains nothing — drop it, killing its facts' pairs;
    - a singleton block is forced, so its fact's partner is excluded from
      the partner's block; an emptied block means no falsifying repair
      exists — **certain**.

    At a fixpoint with all live blocks ≥ 2 and every live fact paired, a
    falsifying repair always exists: pairs form a matching (max degree 1
    between blocks), and by Haxell's independent-transversal theorem any
    part sizes ≥ 2·Δ = 2 admit a transversal avoiding all edges — so the
    answer is **not certain**.
    """
    instance = cache.instance
    partner: dict[Fact, Fact] = {}
    for f in instance.by_relation(a.relation):
        binding = _match(a, f, {})
        if binding is None:
            continue
        g = Fact(
            b.relation,
            tuple(
                binding[t] if isinstance(t, Variable) else t for t in b.terms
            ),
        )
        if g in instance and _match(b, g, binding) is not None:
            partner[f] = g
            partner[g] = f

    index_a = cache.index(a.relation)
    index_b = cache.index(b.relation)
    all_blocks = [list(blk) for idx in (index_a, index_b) if idx for blk in idx.values()]
    alive: list[set[Fact]] = [set(blk) for blk in all_blocks]
    block_of = {f: i for i, blk in enumerate(all_blocks) for f in blk}
    dead = [False] * len(alive)

    def drop_pair(f: Fact) -> None:
        g = partner.pop(f, None)
        if g is not None:
            partner.pop(g, None)

    changed = True
    while changed:
        changed = False
        for idx, facts in enumerate(alive):
            if dead[idx]:
                continue
            free = next((f for f in facts if f not in partner), None)
            if free is not None:
                dead[idx] = True
                for f in facts:
                    drop_pair(f)
                changed = True
                continue
            if len(facts) == 1:
                (forced,) = facts
                dead[idx] = True
                g = partner.get(forced)
                drop_pair(forced)
                if g is not None:
                    g_block = block_of[g]
                    if not dead[g_block]:
                        alive[g_block].discard(g)
                        if not alive[g_block]:
                            return True
                changed = True
    return False
