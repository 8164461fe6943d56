"""Relational instances: schemas, facts, and Gaifman graphs.

The deterministic substrate on which all uncertainty formalisms are layered.
A fact is a relation name applied to a tuple of constants; an instance is a
finite set of facts. The *Gaifman graph* of an instance connects two domain
elements when they co-occur in a fact — its treewidth is what "tree-like
data" means in the paper (Theorem 1 defines the treewidth of a TID as that of
its underlying instance).

Two interchangeable backends implement the instance contract:

- :class:`Instance` — the object backend: a set of :class:`Fact` dataclasses
  with insertion order, convenient for small inputs and used as the oracle;
- :class:`repro.instances.columnar.ColumnarInstance` — the U-relation-style
  columnar backend: dictionary-encoded int32 columns, built for bulk loads
  and vectorized query evaluation at millions of facts.

:class:`AbstractInstance` is the shared protocol: the handful of primitive
accessors each backend provides, plus the derived structure (domain, Gaifman
graph, treewidth, equality) every consumer relies on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util import ReproError, check

if TYPE_CHECKING:
    import networkx as nx

Constant = Hashable


@dataclass(frozen=True)
class Fact:
    """A ground fact ``relation(args...)``.

    >>> Fact("From", ("CDG", "MEL"))
    From(CDG, MEL)
    """

    relation: str
    args: tuple[Constant, ...]

    def __post_init__(self):
        check(isinstance(self.args, tuple), "fact arguments must be a tuple")

    @property
    def arity(self) -> int:
        """Number of arguments."""
        return len(self.args)

    @property
    def variable_name(self) -> str:
        """Canonical Boolean-variable name for the presence of this fact.

        Memoized on first access: the name sits on the provenance hot path
        (one lookup per witness fact) and rebuilding the f-string every call
        measurably slows lineage construction on large instances.
        """
        name = self.__dict__.get("_variable_name")
        if name is None:
            inside = ",".join(str(a) for a in self.args)
            name = f"f:{self.relation}({inside})"
            object.__setattr__(self, "_variable_name", name)
        return name

    def __repr__(self) -> str:
        inside = ", ".join(str(a) for a in self.args)
        return f"{self.relation}({inside})"


def fact(relation: str, *args: Constant) -> Fact:
    """Convenience constructor: ``fact("R", 1, 2) == Fact("R", (1, 2))``."""
    return Fact(relation, tuple(args))


def variable_name_of(relation: str, args: Iterable[Constant]) -> str:
    """The :attr:`Fact.variable_name` convention without building a Fact.

    The columnar provenance path derives circuit-leaf names directly from
    decoded columns; keeping the formatting in one place pins both backends
    to the identical naming scheme.
    """
    inside = ",".join(str(a) for a in args)
    return f"f:{relation}({inside})"


def name_collision(first: Fact, second: Fact) -> ReproError:
    """The error for two distinct facts that share a variable name.

    Names render constants with ``str``, so ``R(1)`` and ``R("1")`` are
    both ``f:R(1)``. Wherever names key the events, merging them would
    silently drop one fact's probability; this error names both instead.
    """

    def shown(f: Fact) -> str:
        return f"{f.relation}({', '.join(repr(a) for a in f.args)})"

    return ReproError(
        f"facts {shown(first)} and {shown(second)} share the variable name "
        f"{first.variable_name!r}; name-keyed events cannot tell them apart"
    )


class AbstractInstance(ABC):
    """The instance contract shared by the object and columnar backends.

    Subclasses provide the primitive accessors (facts as ordered sets with
    relation grouping); the derived relational structure — active domain,
    Gaifman graph, treewidth, equality — is defined here once so both
    backends behave identically everywhere downstream (lineage engine,
    conditioning, PrXML bridge, workload generators).
    """

    # ------------------------------------------------------------------ #
    # primitives

    @abstractmethod
    def add(self, f: Fact) -> Fact:
        """Insert a fact (idempotent, set semantics) and return it."""

    @abstractmethod
    def discard(self, f: Fact) -> None:
        """Remove a fact if present."""

    @abstractmethod
    def __contains__(self, f: Fact) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def facts(self) -> list[Fact]:
        """Return the facts as a list, in insertion order."""

    @abstractmethod
    def relations(self) -> dict[str, int]:
        """Return the schema observed in the data: relation name → arity."""

    @abstractmethod
    def by_relation(self, relation: str) -> list[Fact]:
        """Return all facts of the given relation, in insertion order."""

    # ------------------------------------------------------------------ #
    # derived structure (shared by all backends)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractInstance):
            return NotImplemented
        return set(self.facts()) == set(other.facts())

    def __hash__(self):  # pragma: no cover - instances used as dict keys rarely
        return hash(frozenset(self.facts()))

    def domain(self) -> frozenset[Constant]:
        """Return the active domain: all constants appearing in facts."""
        elements: set[Constant] = set()
        for f in self.facts():
            elements.update(f.args)
        return frozenset(elements)

    def gaifman_graph(self) -> nx.Graph:
        """Return the Gaifman graph: constants adjacent iff they share a fact."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.domain())
        for f in self.facts():
            for i, a in enumerate(f.args):
                for b in f.args[i + 1 :]:
                    if a != b:
                        graph.add_edge(a, b)
        return graph

    def treewidth_upper_bound(self, heuristic: str = "min_fill") -> int:
        """Heuristic treewidth of the Gaifman graph (Theorem 1's parameter)."""
        from repro.treewidth import decompose

        return decompose(self.gaifman_graph(), heuristic).width()

    def key_index(self, relation: str, key_positions: Iterable[int]) -> dict[tuple, list[Fact]]:
        """Group the relation's facts into blocks by their key projection.

        Returns ``{key_tuple: [facts...]}`` in insertion order (both the
        blocks and the facts inside each block).  A block with more than
        one fact is a key violation; a *repair* keeps exactly one fact per
        block.  Backends may override with a faster grouping, but the
        result must be order-identical to this reference implementation.
        """
        positions = tuple(key_positions)
        index: dict[tuple, list[Fact]] = {}
        for f in self.by_relation(relation):
            check(
                all(p < len(f.args) for p in positions),
                f"key position out of range for {relation!r} (arity {len(f.args)})",
            )
            index.setdefault(tuple(f.args[p] for p in positions), []).append(f)
        return index

    def restricted_to(self, keep: Iterable[Fact]) -> "AbstractInstance":
        """Return the sub-instance (same backend) with only the facts in ``keep``."""
        keep_set = set(keep)
        result = type(self)()
        for f in self.facts():
            if f in keep_set:
                result.add(f)
        return result

    def union(self, other: "AbstractInstance") -> "AbstractInstance":
        """Return the union of two instances (backend of the left operand)."""
        merged = type(self)()
        for f in self.facts():
            merged.add(f)
        for f in other.facts():
            merged.add(f)
        return merged

    def __repr__(self) -> str:
        listed = self.facts()
        preview = ", ".join(repr(f) for f in listed[:4])
        suffix = ", ..." if len(listed) > 4 else ""
        return f"{type(self).__name__}({{{preview}{suffix}}}, size={len(listed)})"


class Instance(AbstractInstance):
    """A finite set of facts with set semantics (the object backend).

    Iteration order is deterministic (insertion order), which keeps every
    downstream construction reproducible.
    """

    def __init__(self, facts: Iterable[Fact] = ()):
        self._facts: dict[Fact, None] = {}
        for f in facts:
            self.add(f)

    def add(self, f: Fact) -> Fact:
        """Insert a fact (idempotent) and return it."""
        self._facts.setdefault(f, None)
        return f

    def discard(self, f: Fact) -> None:
        """Remove a fact if present."""
        self._facts.pop(f, None)

    def __contains__(self, f: Fact) -> bool:
        return f in self._facts

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def facts(self) -> list[Fact]:
        """Return the facts as a list, in insertion order."""
        return list(self._facts)

    def relations(self) -> dict[str, int]:
        """Return the schema observed in the data: relation name → arity."""
        schema: dict[str, int] = {}
        for f in self._facts:
            previous = schema.setdefault(f.relation, f.arity)
            check(previous == f.arity, f"relation {f.relation!r} used with two arities")
        return schema

    def by_relation(self, relation: str) -> list[Fact]:
        """Return all facts of the given relation, in insertion order."""
        return [f for f in self._facts if f.relation == relation]

    def restricted_to(self, keep: Iterable[Fact]) -> "Instance":
        """Return the sub-instance with only the facts in ``keep``."""
        keep_set = set(keep)
        return Instance(f for f in self._facts if f in keep_set)

    def union(self, other: "AbstractInstance") -> "Instance":
        """Return the union of two instances."""
        merged = Instance(self._facts)
        for f in other:
            merged.add(f)
        return merged

    def __repr__(self) -> str:
        preview = ", ".join(repr(f) for f in list(self._facts)[:4])
        suffix = ", ..." if len(self._facts) > 4 else ""
        return f"Instance({{{preview}{suffix}}}, size={len(self._facts)})"
