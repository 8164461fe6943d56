"""Key-violating instance generator for the certain-answer (CQA) workload.

Generates binary relations ``R(key, value)`` whose first column is the
declared primary key and whose blocks violate it at a tunable rate: a
fraction ``violation_rate`` of the keys carry ``block_size`` conflicting
facts instead of one.  Values are drawn from the key domain so the three
canonical trichotomy queries (:func:`cqa_trichotomy_queries`) all find
joins — R's value column references S's keys and vice versa.

Seeded and deterministic like every generator in this package, with the
same ``backend`` knob (defaulting to the process-wide
:func:`repro.instances.columnar.instance_backend`); on the columnar
backend facts load as encoded column batches, no ``Fact`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.instances.base import AbstractInstance, fact
from repro.instances.columnar import ColumnarInstance, make_instance
from repro.queries.cq import ConjunctiveQuery, atom, variables
from repro.queries.keys import KeySpec, key_spec
from repro.util import check, stable_rng

__all__ = ["CQAWorkload", "cqa_trichotomy_queries", "key_violation_instance"]


@dataclass(frozen=True)
class CQAWorkload:
    """A generated key-violating instance with its keys and test queries."""

    instance: AbstractInstance
    keys: KeySpec
    queries: dict[str, ConjunctiveQuery]


def cqa_trichotomy_queries() -> dict[str, ConjunctiveQuery]:
    """The canonical Koutris–Wijsen examples, one per trichotomy class.

    Under keys ``R(x̲, y)``, ``S(y̲, z)``:

    - ``"fo"``    — R(x̲, y) ∧ S(y̲, z): acyclic attack graph;
    - ``"ptime"`` — R(x̲, y) ∧ S(y̲, x): a weak cycle;
    - ``"conp"``  — R(x̲, y) ∧ S(z̲, y): a strong cycle.
    """
    x, y, z = variables("x", "y", "z")
    return {
        "fo": ConjunctiveQuery((atom("R", x, y), atom("S", y, z))),
        "ptime": ConjunctiveQuery((atom("R", x, y), atom("S", y, x))),
        "conp": ConjunctiveQuery((atom("R", x, y), atom("S", z, y))),
    }


def key_violation_instance(
    n_keys: int,
    violation_rate: float = 0.25,
    relations: tuple[str, ...] = ("R", "S"),
    block_size: int = 2,
    seed: int = 0,
    backend: str | None = None,
) -> tuple[AbstractInstance, KeySpec]:
    """A key-violating instance: ``(instance, keys)``.

    Each relation gets one block per key ``0..n_keys-1``; a block is
    *violating* (holds ``block_size`` facts with distinct values) with
    probability ``violation_rate``, and a singleton otherwise.  Values are
    uniform over ``0..n_keys-1``.
    """
    check(n_keys > 0, "n_keys must be positive")
    check(0.0 <= violation_rate <= 1.0, "violation_rate must be in [0, 1]")
    check(block_size >= 2, "violating blocks need at least two facts")
    rng = stable_rng(seed)
    instance = make_instance(backend)
    keys = key_spec(**{relation: (0,) for relation in relations})

    for relation in relations:
        key_column: list[int] = []
        value_column: list[int] = []
        for k in range(n_keys):
            copies = block_size if rng.random() < violation_rate else 1
            values = rng.sample(range(n_keys), min(copies, n_keys))
            for v in values:
                key_column.append(k)
                value_column.append(v)
        if isinstance(instance, ColumnarInstance):
            instance.intern_int_range(n_keys)
            columns = [
                np.asarray(key_column, dtype=np.int64),
                np.asarray(value_column, dtype=np.int64),
            ]
            instance.extend_encoded(relation, columns)
        else:
            for k, v in zip(key_column, value_column):
                instance.add(fact(relation, k, v))
    return instance, keys


def cqa_workload(
    n_keys: int,
    violation_rate: float = 0.25,
    seed: int = 0,
    backend: str | None = None,
) -> CQAWorkload:
    """Instance + keys + the three canonical queries, bundled."""
    instance, keys = key_violation_instance(
        n_keys, violation_rate, seed=seed, backend=backend
    )
    return CQAWorkload(instance, keys, cqa_trichotomy_queries())
