"""Probability spaces over independent Boolean events.

A :class:`EventSpace` assigns an independent marginal probability to each
named event. pc-instances, PrXML documents and probabilistic chase runs all
draw their randomness from such a space; correlations are expressed *through*
formulas and circuits over the events, never inside the space itself.

A TID on the columnar backend has one event per fact, and there the fact id
*is* the event: :meth:`EventSpace.of_facts` keeps the probability column
indexed by fact id, and :class:`FactNames` derives the ``f:R(1)`` names only
when a name-keyed call needs them.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as _np

from repro.events.formulas import Formula, Valuation
from repro.util import ReproError, check, stable_rng


class FactNames(Sequence):
    """The names of fact-id variables, built on first use.

    ``fids`` are fact ids of ``id_space`` (a
    :class:`repro.instances.columnar.FactIdSpace`), one per variable.
    ``len()`` reads only the ids; anything else builds every name with one
    bulk namer call and caches them. If ``fids`` grows (an arena's slot
    column), only the new ids are named. The view compares equal to the
    tuple of its names.

    Names must identify facts: two facts whose names collide, like ``R(1)``
    and ``R("1")``, raise :class:`~repro.util.ReproError` naming both
    rather than merge into one event.
    """

    __slots__ = ("id_space", "fids", "_names", "_positions")

    def __init__(self, id_space, fids):
        self.id_space = id_space
        self.fids = fids
        self._names: list[str] = []
        self._positions: dict[str, int] = {}

    def _built(self) -> list[str]:
        names = self._names
        start, stop = len(names), len(self.fids)
        if start < stop:
            fresh = self.id_space.names(self.fids[start:])
            positions = self._positions
            for pos, name in enumerate(fresh, start):
                first = positions.setdefault(name, pos)
                if first != pos:
                    raise self.id_space.collision(
                        int(self.fids[first]), int(self.fids[pos])
                    )
            names.extend(fresh)
        return names

    def positions(self) -> dict[str, int]:
        """Name → position, built with the names."""
        self._built()
        return self._positions

    def take(self, positions) -> "FactNames":
        """The view of the ids at ``positions`` (an int array)."""
        return FactNames(self.id_space, _np.asarray(self.fids)[positions])

    def __len__(self) -> int:
        return len(self.fids)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self) -> Iterator[str]:
        return iter(self._built())

    def __eq__(self, other) -> bool:
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"FactNames({len(self)} fact ids)"


def _probability_column(probabilities):
    """A float64 copy of ``probabilities``, checked in [0, 1] in one pass."""
    column = _np.array(probabilities, dtype=_np.float64)
    check(
        bool(((column >= 0.0) & (column <= 1.0)).all()),
        "fact probabilities must be in [0,1]",
    )
    return column


class EventSpace:
    """A finite set of independent Boolean events with marginal probabilities.

    >>> space = EventSpace({"pods": 0.7, "stoc": 0.4})
    >>> space.probability("pods")
    0.7
    >>> len(list(space.valuations()))
    4
    """

    def __init__(self, probabilities: Mapping[str, float] | None = None):
        self._by_name: dict[str, float] | None = {}
        #: The id space and probability column of a space built by
        #: :meth:`of_facts`; ``None`` for a space of named events.
        self.id_space = None
        self.fact_probs = None
        if probabilities:
            for name, p in probabilities.items():
                self.add(name, p)

    @classmethod
    def of_facts(cls, id_space, probabilities) -> "EventSpace":
        """One event per fact id of ``id_space``; fact ``i`` has ``probabilities[i]``.

        The space keeps a float64 copy of the column, so later changes to
        the source do not reach it. Its events are named like any other's
        (``f:R(1)``), but the name → probability dict is built only on the
        first name-keyed call; a circuit whose variables are fact ids of
        the same id space gathers its marginals straight from the column
        (:meth:`repro.circuits.compiled.CompiledCircuit.slot_marginals`).
        """
        space = cls()
        space.id_space = id_space
        space.fact_probs = _probability_column(probabilities)
        space._by_name = None
        return space

    @property
    def _probabilities(self) -> dict[str, float]:
        by_name = self._by_name
        if by_name is None:
            probs = self.fact_probs
            names = FactNames(self.id_space, range(len(probs)))
            by_name = self._by_name = dict(zip(names, probs.tolist()))
        return by_name

    def add(self, name: str, probability: float) -> str:
        """Register event ``name`` with the given marginal probability."""
        check(0.0 <= probability <= 1.0, f"probability of {name!r} must be in [0,1], got {probability}")
        if name in self._probabilities and self._probabilities[name] != probability:
            raise ReproError(f"event {name!r} already registered with a different probability")
        self._probabilities[name] = float(probability)
        return name

    def probability(self, name: str) -> float:
        """Return the marginal probability of ``name``."""
        if name not in self._probabilities:
            raise ReproError(f"unknown event {name!r}")
        return self._probabilities[name]

    def events(self) -> frozenset[str]:
        """Return the set of registered event names."""
        return frozenset(self._probabilities)

    def __contains__(self, name: str) -> bool:
        return name in self._probabilities

    def __len__(self) -> int:
        if self._by_name is None:
            return len(self.fact_probs)
        return len(self._by_name)

    def restrict(self, names: Iterable[str]) -> "EventSpace":
        """Return the sub-space containing only the events in ``names``."""
        names = set(names)
        missing = names - set(self._probabilities)
        check(not missing, f"unknown events {sorted(missing)}")
        return EventSpace({n: self._probabilities[n] for n in names})

    def merged(self, other: "EventSpace") -> "EventSpace":
        """Return the union of two spaces (consistent overlaps allowed)."""
        merged = EventSpace(self._probabilities)
        for name in other.events():
            merged.add(name, other.probability(name))
        return merged

    def valuations(self, names: Iterable[str] | None = None) -> Iterator[dict[str, bool]]:
        """Enumerate all valuations of ``names`` (default: all events).

        Exponential in the number of events; intended for oracles and tests.
        """
        ordered = sorted(names if names is not None else self._probabilities)
        for bits in itertools.product([False, True], repeat=len(ordered)):
            yield dict(zip(ordered, bits))

    def valuation_probability(self, valuation: Valuation) -> float:
        """Return the product probability of ``valuation`` over its keys."""
        result = 1.0
        for name, value in valuation.items():
            p = self.probability(name)
            result *= p if value else 1.0 - p
        return result

    def formula_probability(self, formula: Formula) -> float:
        """Exact probability of ``formula`` by brute-force enumeration.

        Exponential in the number of events of the formula; used as a
        reference oracle by tests and small examples.
        """
        total = 0.0
        for valuation in self.valuations(formula.events()):
            if formula.evaluate(valuation):
                total += self.valuation_probability(valuation)
        return total

    def sample(self, seed: int | None = None, names: Iterable[str] | None = None) -> dict[str, bool]:
        """Draw one valuation of ``names`` (default: all events) at random."""
        rng = stable_rng(seed)
        ordered = sorted(names if names is not None else self._probabilities)
        return {name: rng.random() < self._probabilities[name] for name in ordered}

    def sampler(self, seed: int | None = None):
        """Return a callable producing a fresh random valuation per call."""
        rng = stable_rng(seed)
        ordered = sorted(self._probabilities)

        def draw() -> dict[str, bool]:
            return {name: rng.random() < self._probabilities[name] for name in ordered}

        return draw

    def conditioned_on_literal(self, name: str, value: bool) -> "EventSpace":
        """Return the space where ``name`` is forced to ``value``.

        Because events are independent, conditioning on a literal simply pins
        the event's marginal to 0 or 1 — the structural-tractability-preserving
        case discussed in the paper's Section 4.
        """
        check(name in self._probabilities, f"unknown event {name!r}")
        updated = dict(self._probabilities)
        updated[name] = 1.0 if value else 0.0
        return EventSpace(updated)
