"""Conjunctive queries and unions of conjunctive queries.

Boolean CQs are existentially quantified conjunctions of relational atoms
(``∃xy R(x) ∧ S(x,y) ∧ T(y)``). Evaluation on a certain instance is by
backtracking homomorphism search; on probabilistic instances, the baselines
enumerate worlds while the core engine (S6) compiles the query to a
decomposition automaton.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from repro.instances.base import AbstractInstance, Constant, Fact
from repro.util import check

Term = object  # either a Variable or a constant


@dataclass(frozen=True)
class Variable:
    """A query variable, distinguished from constants by type."""

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class Atom:
    """A relational atom ``relation(terms...)``; terms mix variables/constants."""

    relation: str
    terms: tuple[Term, ...]

    def variables(self) -> frozenset[Variable]:
        """Return the variables occurring in the atom."""
        return frozenset(t for t in self.terms if isinstance(t, Variable))

    def __repr__(self) -> str:
        inside = ", ".join(repr(t) for t in self.terms)
        return f"{self.relation}({inside})"


def atom(relation: str, *terms: Term) -> Atom:
    """Convenience constructor for atoms."""
    return Atom(relation, tuple(terms))


def variables(*names: str) -> tuple[Variable, ...]:
    """Create several variables at once: ``x, y = variables("x", "y")``."""
    return tuple(Variable(n) for n in names)


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A Boolean conjunctive query: a set of atoms, all variables existential.

    >>> x, y = variables("x", "y")
    >>> q = ConjunctiveQuery((atom("R", x), atom("S", x, y), atom("T", y)))
    >>> len(q.atoms)
    3
    """

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        check(len(self.atoms) > 0, "a conjunctive query needs at least one atom")

    def variables(self) -> frozenset[Variable]:
        """Return all variables of the query."""
        return frozenset().union(*(a.variables() for a in self.atoms))

    def is_self_join_free(self) -> bool:
        """Whether every relation name occurs in at most one atom."""
        names = [a.relation for a in self.atoms]
        return len(names) == len(set(names))

    def homomorphisms(
        self, instance: AbstractInstance
    ) -> Iterator[dict[Variable, Constant]]:
        """Enumerate all homomorphisms from the query into ``instance``.

        On the object backend: backtracking over atoms in a
        connectivity-aware order, with a per-relation value index so
        partially bound atoms probe candidate buckets instead of scanning
        every fact of the relation. On the columnar backend: the
        vectorized hash-join pipeline of
        :mod:`repro.queries.vectorized`. Both enumerate the identical
        sequence of bindings — the backtracking search is the oracle the
        join pipeline is pinned to.
        """
        from repro.instances.columnar import ColumnarInstance

        if isinstance(instance, ColumnarInstance):
            from repro.queries.vectorized import evaluate_cq

            yield from evaluate_cq(self, instance).bindings()
            return
        order = _atom_order(self.atoms)
        index = _RelationIndex(instance, {a.relation for a in self.atoms})

        def extend(depth: int, binding: dict[Variable, Constant]) -> Iterator[dict]:
            if depth == len(order):
                yield dict(binding)
                return
            current = order[depth]
            for f in index.candidates(current, binding):
                match = _match(current, f, binding)
                if match is not None:
                    yield from extend(depth + 1, match)

        yield from extend(0, {})

    def holds_in(self, instance: AbstractInstance) -> bool:
        """Boolean evaluation: does the query have a homomorphism?"""
        return next(self.homomorphisms(instance), None) is not None

    def witnesses(self, instance: AbstractInstance) -> Iterator[tuple[Fact, ...]]:
        """Enumerate image tuples (one fact per atom) of each homomorphism.

        The disjunction over witnesses of the conjunction of their facts is
        the query *lineage* in DNF — used by the Karp–Luby baseline.
        """
        for binding in self.homomorphisms(instance):
            yield tuple(
                Fact(a.relation, tuple(binding.get(t, t) for t in a.terms))
                for a in self.atoms
            )

    def __repr__(self) -> str:
        return "∃ " + " ∧ ".join(repr(a) for a in self.atoms)


@dataclass(frozen=True)
class UnionOfConjunctiveQueries:
    """A finite union (disjunction) of Boolean conjunctive queries."""

    disjuncts: tuple[ConjunctiveQuery, ...]

    def __post_init__(self):
        check(len(self.disjuncts) > 0, "a UCQ needs at least one disjunct")

    def holds_in(self, instance: AbstractInstance) -> bool:
        """Boolean evaluation: does some disjunct hold?"""
        return any(q.holds_in(instance) for q in self.disjuncts)

    def variables(self) -> frozenset[Variable]:
        """Return the union of the disjuncts' variables."""
        return frozenset().union(*(q.variables() for q in self.disjuncts))

    def __repr__(self) -> str:
        return " ∨ ".join(f"({q!r})" for q in self.disjuncts)


def cq(*atoms_: Atom) -> ConjunctiveQuery:
    """Convenience constructor for conjunctive queries."""
    return ConjunctiveQuery(tuple(atoms_))


def homomorphisms(
    query: ConjunctiveQuery, instance: AbstractInstance
) -> Iterator[dict[Variable, Constant]]:
    """Module-level form of :meth:`ConjunctiveQuery.homomorphisms`.

    Part of the blessed ``repro`` facade: ``homomorphisms(q, inst)``
    reads like the other top-level verbs (``certain_answers``,
    ``build_provenance_circuit``) and dispatches to the vectorized join
    pipeline on columnar instances exactly like the method does.
    """
    return query.homomorphisms(instance)


def ucq(*queries: ConjunctiveQuery) -> UnionOfConjunctiveQueries:
    """Convenience constructor for unions of conjunctive queries."""
    return UnionOfConjunctiveQueries(tuple(queries))


def _match(
    query_atom: Atom, f: Fact, binding: Mapping[Variable, Constant]
) -> dict[Variable, Constant] | None:
    """Try to extend ``binding`` so that ``query_atom`` maps onto fact ``f``."""
    if query_atom.relation != f.relation or len(query_atom.terms) != len(f.args):
        return None
    extended = dict(binding)
    for term, value in zip(query_atom.terms, f.args):
        if isinstance(term, Variable):
            bound = extended.get(term)
            if bound is None:
                extended[term] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return extended


def _atom_order_indices(atoms: tuple[Atom, ...]) -> list[int]:
    """Atom positions ordered so each shares variables with predecessors.

    Index-based so duplicate atoms (self-joins mapping two positions onto
    the same relation row) keep distinct identities; the vectorized join
    planner follows the same order to reproduce the backtracking search's
    enumeration order exactly.
    """
    remaining = list(range(len(atoms)))
    if not remaining:
        return []
    ordered = [remaining.pop(0)]
    seen = set(atoms[ordered[0]].variables())
    while remaining:
        chosen = next(
            (i for i in remaining if atoms[i].variables() & seen), remaining[0]
        )
        remaining.remove(chosen)
        ordered.append(chosen)
        seen |= atoms[chosen].variables()
    return ordered


def _atom_order(atoms: Iterable[Atom]) -> list[Atom]:
    """Order atoms so each one shares variables with its predecessors if possible."""
    listed = tuple(atoms)
    return [listed[i] for i in _atom_order_indices(listed)]


class _RelationIndex:
    """Per-relation, per-position value index for the backtracking search.

    Buckets facts by ``(position, value)`` so an atom with any bound
    position (a constant, or a variable the partial binding fixes) scans
    its smallest matching bucket instead of the whole relation. Buckets
    preserve insertion order, so candidate enumeration — and hence the
    order of homomorphisms — is identical to the full scan's.
    """

    def __init__(self, instance: AbstractInstance, relations: Iterable[str]):
        self._facts = {
            relation: instance.by_relation(relation) for relation in relations
        }
        self._buckets: dict[str, list[dict]] = {}

    def _position_buckets(self, relation: str) -> list[dict]:
        buckets = self._buckets.get(relation)
        if buckets is None:
            buckets = []
            for f in self._facts[relation]:
                for position, value in enumerate(f.args):
                    while len(buckets) <= position:
                        buckets.append({})
                    buckets[position].setdefault(value, []).append(f)
            self._buckets[relation] = buckets
        return buckets

    def candidates(self, query_atom: Atom, binding: Mapping) -> list[Fact]:
        facts = self._facts.get(query_atom.relation, [])
        best = facts
        buckets = None
        for position, term in enumerate(query_atom.terms):
            # Mirrors _match: a variable bound to None counts as unbound.
            value = binding.get(term) if isinstance(term, Variable) else term
            if value is None:
                continue
            if buckets is None:
                buckets = self._position_buckets(query_atom.relation)
            bucket = (
                buckets[position].get(value, []) if position < len(buckets) else []
            )
            if len(bucket) < len(best):
                best = bucket
        return best
