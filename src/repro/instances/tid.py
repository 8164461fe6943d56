"""Tuple-independent (TID) probabilistic instances.

The simplest probabilistic relational model (ProbView, Lakshmanan et al.):
every fact is present independently with its own probability. Query
probability evaluation is #P-hard on arbitrary TIDs (Dalvi–Suciu) — the
paper's Theorem 1 shows it becomes linear-time on TIDs of bounded treewidth.

The underlying instance uses whichever backend
:func:`repro.instances.columnar.make_instance` selects (object by default;
``REPRO_INSTANCE_BACKEND=columnar`` or ``backend="columnar"`` for the
U-relation backend). On the columnar backend, probabilities live in a flat
float column aligned with the instance's fact ids, and
:meth:`TIDInstance.extend_encoded` bulk-loads encoded rows with their
probabilities without materializing any :class:`Fact` objects.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.events import EventSpace
from repro.instances.base import Fact, Instance, name_collision
from repro.instances.columnar import ColumnarInstance, make_instance
from repro.util import check, stable_rng


class TIDInstance:
    """An instance plus an independent presence probability per fact.

    >>> tid = TIDInstance()
    >>> _ = tid.add(Fact("R", (1,)), 0.5)
    >>> tid.probability(Fact("R", (1,)))
    0.5
    """

    def __init__(
        self,
        rows: Mapping[Fact, float] | Iterable[tuple[Fact, float]] = (),
        backend: str | None = None,
    ):
        self.instance = make_instance(backend)
        self._columnar = isinstance(self.instance, ColumnarInstance)
        if self._columnar:
            # One float per fact id; :meth:`discard` keeps it aligned when
            # the instance renumbers its ids.
            self._probs = array("d")
        else:
            self._probabilities: dict[Fact, float] = {}
        items = rows.items() if isinstance(rows, Mapping) else rows
        for f, p in items:
            self.add(f, p)

    def add(self, f: Fact, probability: float) -> Fact:
        """Insert fact ``f`` with the given presence probability."""
        check(0.0 <= probability <= 1.0, f"probability of {f!r} must be in [0,1]")
        if self._columnar:
            fid = self.instance.add_fact(f.relation, f.args)
            if fid == len(self._probs):
                self._probs.append(float(probability))
            else:
                self._probs[fid] = float(probability)
        else:
            self.instance.add(f)
            self._probabilities[f] = float(probability)
        return f

    def extend_encoded(
        self, relation: str, columns: Sequence, probabilities
    ) -> None:
        """Bulk-insert encoded rows with probabilities (columnar backend).

        ``columns`` follow
        :meth:`repro.instances.columnar.ColumnarInstance.extend_encoded`;
        ``probabilities`` holds one value in [0, 1] per row. Both are
        checked before anything is inserted, so a refused load leaves the
        TID as it was. Re-inserted rows overwrite their probability,
        matching :meth:`add`.
        """
        check(
            self._columnar,
            "extend_encoded requires the columnar instance backend",
        )
        probs = np.asarray(probabilities, dtype=np.float64)
        rows = len(columns[0]) if len(columns) else 0
        check(
            probs.shape == (rows,),
            f"{probs.size} probabilities for {rows} rows of {relation!r}",
        )
        check(
            bool(((probs >= 0.0) & (probs <= 1.0)).all()),
            f"probabilities of {relation!r} must be in [0,1]",
        )
        fids = self.instance.extend_encoded(relation, columns)
        missing = len(self.instance) - len(self._probs)
        if missing > 0:
            self._probs.frombytes(bytes(8 * missing))
        view = np.frombuffer(self._probs, dtype=np.float64)
        view[np.asarray(fids, dtype=np.int64)] = probs

    def discard(self, f: Fact) -> None:
        """Remove ``f`` and its probability, if present.

        On the columnar backend the facts after ``f`` move down one id
        (:meth:`~repro.instances.columnar.ColumnarInstance.discard`), and
        so do their probabilities.
        """
        if self._columnar:
            fid = self.instance.fact_id_of(f)
            if fid is None:
                return
            del self._probs[fid]
        else:
            self._probabilities.pop(f, None)
        self.instance.discard(f)

    def probability(self, f: Fact) -> float:
        """Return the presence probability of ``f``."""
        if self._columnar:
            fid = self.instance.fact_id_of(f)
            check(fid is not None, f"unknown fact {f!r}")
            return self._probs[fid]
        check(f in self._probabilities, f"unknown fact {f!r}")
        return self._probabilities[f]

    def facts(self) -> list[Fact]:
        """Return the facts in insertion order."""
        return self.instance.facts()

    def __len__(self) -> int:
        return len(self.instance)

    def _items(self) -> list[tuple[Fact, float]]:
        """(fact, probability) pairs in insertion order (materializes)."""
        if self._columnar:
            return list(zip(self.instance.facts(), self._probs))
        return list(self._probabilities.items())

    def event_space(self) -> EventSpace:
        """Return the event space with one independent event per fact.

        Event names follow :attr:`repro.instances.base.Fact.variable_name`,
        the convention the lineage engine uses for its circuit leaves; two
        facts with the same name raise
        :func:`~repro.instances.base.name_collision`. On the columnar
        backend the events are the fact ids (:meth:`EventSpace.of_facts`):
        the space snapshots the probability column, and names are built
        only if a name-keyed call asks.
        """
        if self._columnar:
            return EventSpace.of_facts(self.instance.id_space, self._probs)
        probabilities = self._probabilities
        by_name = {f.variable_name: p for f, p in probabilities.items()}
        if len(by_name) < len(probabilities):
            first: dict[str, Fact] = {}
            for f in probabilities:
                other = first.setdefault(f.variable_name, f)
                if other is not f:
                    raise name_collision(other, f)
        return EventSpace(by_name)

    # ------------------------------------------------------------------ #
    # possible-world semantics

    def possible_worlds(self) -> Iterator[tuple[Instance, float]]:
        """Enumerate ``(world, probability)`` pairs — exponential oracle."""
        items = self._items()
        check(len(items) <= 20, "possible-world enumeration limited to 20 facts")
        for included in itertools.product([False, True], repeat=len(items)):
            world = Instance(
                f for (f, _p), keep in zip(items, included) if keep
            )
            weight = 1.0
            for (_f, p), keep in zip(items, included):
                weight *= p if keep else 1.0 - p
            yield world, weight

    def world_probability(self, world: Instance) -> float:
        """Return the probability of one specific world."""
        weight = 1.0
        for f, p in self._items():
            weight *= p if f in world else 1.0 - p
        return weight

    def sample_world(self, seed: int | None = None) -> Instance:
        """Draw a world at random (used by Monte-Carlo baselines)."""
        rng = stable_rng(seed)
        return Instance(f for f, p in self._items() if rng.random() < p)

    def world_sampler(self, seed: int | None = None):
        """Return a callable producing a fresh random world per call."""
        rng = stable_rng(seed)
        items = self._items()

        def draw() -> Instance:
            return Instance(f for f, p in items if rng.random() < p)

        return draw

    def treewidth_upper_bound(self, heuristic: str = "min_fill") -> int:
        """Treewidth (heuristic) of the underlying instance — Theorem 1's notion."""
        return self.instance.treewidth_upper_bound(heuristic)

    def __repr__(self) -> str:
        return f"TIDInstance(facts={len(self.instance)})"
