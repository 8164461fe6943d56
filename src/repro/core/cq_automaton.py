"""A deterministic decomposition automaton for arbitrary conjunctive queries.

The nondeterministic automaton for a Boolean CQ guesses a homomorphism while
walking the tree encoding: a nondeterministic state is a pair
``(assignment, satisfied)`` where ``assignment`` binds query variables to
current bag elements or to the sentinel BELOW (bound to an already-forgotten
element), and ``satisfied`` is the set of atom indices already witnessed by
facts read below. We determinize by the subset construction *on the fly*: a
deterministic state (a *profile*) is the set of nondeterministic states
reachable for the actual subinstance below — finite for a fixed query and
width, which is exactly why the construction is linear in the instance
(Theorem 1) with a constant depending on the query.

Design notes:

- Variables are bound lazily, only when a fact is read and used to witness an
  atom. This is complete: bindings are only ever *checked* through facts, and
  decomposition connectivity guarantees a binding to a bag element stays
  visible until the element is forgotten.
- At a forget, states whose unsatisfied atoms mention a BELOW-bound variable
  are dead (facts homed above can never mention the forgotten element) and
  are pruned.
- Profiles are canonicalized by dominance pruning: with equal assignments, a
  state with more satisfied atoms subsumes one with fewer.
"""

from __future__ import annotations

from repro.core.automaton import DecompositionAutomaton, disjunction
from repro.instances.base import Fact
from repro.queries.cq import ConjunctiveQuery, UnionOfConjunctiveQueries, Variable
from repro.util import check


class _Below:
    """Unique sentinel marking a variable bound to a forgotten element."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BELOW"


BELOW = _Below()


class CQAutomaton(DecompositionAutomaton):
    """Deterministic automaton deciding a Boolean CQ over read facts."""

    def __init__(self, query: ConjunctiveQuery):
        self.query = query
        self.atoms = query.atoms
        self.atom_variables = tuple(a.variables() for a in self.atoms)
        self.all_atoms = frozenset(range(len(self.atoms)))

    # -- nondeterministic-state helpers --------------------------------- #

    @staticmethod
    def _initial_nondet():
        return (frozenset(), frozenset())

    def _prune_profile(self, states: set) -> frozenset:
        """Dominance pruning: drop states subsumed by a better sibling.

        ``(a1, s1)`` dominates ``(a2, s2)`` when ``a1 ⊆ a2`` and ``s1 ⊇ s2``:
        fewer binding constraints and more satisfied atoms. Removal is safe —
        domination is preserved by every transition (forget, join, read) and
        by acceptance — and keeps profiles, hence the whole subset
        construction, small.
        """
        # An accepting state dominates everything once its bindings are
        # dropped — acceptance never depends on them — so the profile
        # collapses to a single absorbing ACCEPT state.
        if any(satisfied == self.all_atoms for _a, satisfied in states):
            return frozenset({(frozenset(), self.all_atoms)})
        ordered = sorted(
            set(states),
            key=lambda s: (len(s[0]), -len(s[1]), sorted(map(str, s[0])), sorted(s[1])),
        )
        kept: list[tuple[frozenset, frozenset]] = []
        for assignment, satisfied in ordered:
            dominated = any(
                a1 <= assignment and s1 >= satisfied for a1, s1 in kept
            )
            if not dominated:
                kept.append((assignment, satisfied))
        return frozenset(kept)

    # -- automaton interface --------------------------------------------- #

    def initial_state(self):
        return frozenset({self._initial_nondet()})

    def introduce(self, state, vertex, bag):
        return state  # bindings are created lazily, at reads

    def forget(self, state, vertex, bag):
        updated = set()
        for assignment, satisfied in state:
            moved = frozenset(
                (var, BELOW if value == vertex else value) for var, value in assignment
            )
            below_vars = {var for var, value in moved if value is BELOW}
            dead = any(
                self.atom_variables[index] & below_vars
                for index in self.all_atoms - satisfied
            )
            if not dead:
                updated.add((moved, satisfied))
        return self._prune_profile(updated)

    def join(self, left, right, bag):
        combined = set()
        for a1, s1 in left:
            m1 = dict(a1)
            for a2, s2 in right:
                merged = dict(m1)
                compatible = True
                for var, value in a2:
                    bound = merged.get(var)
                    if bound is None:
                        merged[var] = value
                    elif bound != value or value is BELOW:
                        # BELOW on both sides refers to different forgotten
                        # elements of disjoint subtrees — incompatible.
                        compatible = False
                        break
                if compatible:
                    combined.add((frozenset(merged.items()), s1 | s2))
        return self._prune_profile(combined)

    def read(self, state, fact: Fact, bag):
        present = set(state)
        queue = list(state)
        while queue:
            assignment, satisfied = queue.pop()
            binding = dict(assignment)
            for index in self.all_atoms - satisfied:
                extended = self._use_fact(self.atoms[index], fact, binding)
                if extended is None:
                    continue
                candidate = (frozenset(extended.items()), satisfied | {index})
                if candidate not in present:
                    present.add(candidate)
                    queue.append(candidate)
        return state, self._prune_profile(present)

    def accepts(self, state) -> bool:
        return any(satisfied == self.all_atoms for _assignment, satisfied in state)

    # -- matching --------------------------------------------------------- #

    @staticmethod
    def _use_fact(query_atom, fact: Fact, binding: dict):
        """Extend ``binding`` so ``query_atom`` maps onto ``fact``, or None."""
        if query_atom.relation != fact.relation or len(query_atom.terms) != len(fact.args):
            return None
        extended = dict(binding)
        for term, value in zip(query_atom.terms, fact.args):
            if isinstance(term, Variable):
                bound = extended.get(term)
                if bound is None:
                    extended[term] = value
                elif bound != value:
                    return None
            elif term != value:
                return None
        return extended


def automaton_for(query) -> DecompositionAutomaton:
    """Build a deterministic automaton for a CQ or UCQ."""
    if isinstance(query, ConjunctiveQuery):
        return CQAutomaton(query)
    if isinstance(query, UnionOfConjunctiveQueries):
        return disjunction(*(CQAutomaton(q) for q in query.disjuncts))
    check(
        isinstance(query, DecompositionAutomaton),
        f"cannot build an automaton for {type(query).__name__}",
    )
    return query
