"""U-relation-style columnar instances: dictionary-encoded int32 columns.

Antova et al.'s *U-relations* observe that uncertain-relational processing
becomes cheap once instances are stored as flat columns a conventional
engine can scan. This backend mirrors that design (and the CSR layout of
the compiled circuit backend): every relation is a set of parallel int32
arrays — one per attribute position, dictionary-encoded against a shared
constant dictionary — plus a fact-id column. The fact id is the fact's
presence variable in lineage circuits and its event in the TID's event
space (:class:`FactIdSpace`); names are derived only on demand.

The representation is lossless with respect to the object backend
(:func:`ColumnarInstance.to_instance` / :func:`from_instance` round-trip
exactly, preserving insertion order), but bulk loads and vectorized query
evaluation never touch per-fact Python objects: generators append encoded
column batches, the join planner reads the raw columns, and the provenance
builder turns witness fact ids straight into circuit leaves.

Columns are stored as stdlib ``array("i")`` buffers, which grow in place;
the vectorized paths reinterpret the same buffers zero-copy via
``np.frombuffer`` (the trick the compiled lowering uses).

The module also owns the backend knob: ``REPRO_INSTANCE_BACKEND`` (or
:func:`set_instance_backend`) selects which backend
:func:`make_instance` — and therefore the TID/c/pcc wrappers and the
workload generators — construct by default.
"""

from __future__ import annotations

import copy
import os
from array import array
from collections.abc import Iterable, Sequence

import numpy as _np

from repro.instances.base import (
    AbstractInstance,
    Constant,
    Fact,
    Instance,
    name_collision,
)
from repro.util import ReproError, check

# Codes are int32, so a pair of codes packs collision-free into an int64.
_PACK = 1 << 31

# The platform guarantees from circuit.py hold here too (checked there).


def _pack_rows(columns: Sequence, length: int):
    """Pack one encoded row per index into a hashable key (vectorized).

    Arity 0 → zeros, arity 1 → the code itself, arity 2 → ``a * 2^31 + b``
    (exact in int64); the fold matches :meth:`ColumnarInstance.add_fact`
    exactly so bulk and single-fact inserts share one dedup index. Arities
    above 2 overflow int64 under this fold, so they take the unbounded
    Python-int path.
    """
    if len(columns) <= 2:
        if not columns:
            return _np.zeros(length, dtype=_np.int64)
        key = _np.asarray(columns[0], dtype=_np.int64)
        for col in columns[1:]:
            key = key * _PACK + _np.asarray(col, dtype=_np.int64)
        return key
    if not columns:
        return [0] * length
    keys = [int(c) for c in columns[0]]
    for col in columns[1:]:
        keys = [k * _PACK + int(c) for k, c in zip(keys, col)]
    return keys


class FactIdSpace:
    """The fact ids of one columnar instance, as lineage variables.

    Ids are dense and append-only: adding facts never renumbers the
    existing ones, so a circuit or event space that stores fact ids and
    this object can name its facts at any later time. Holders share an id
    space exactly when their ids mean the same facts. ``discard`` is the
    one operation that renumbers: it first hands this space a frozen copy
    of the instance's columns, and the instance goes on with a fresh space.
    """

    __slots__ = ("_instance",)

    def __init__(self, instance: "ColumnarInstance"):
        self._instance = instance

    def __len__(self) -> int:
        return len(self._instance)

    def names(self, fids) -> list[str]:
        """Variable names of ``fids`` (see :meth:`ColumnarInstance.variable_names_for`)."""
        return self._instance.variable_names_for(fids)

    def collision(self, first: int, second: int) -> ReproError:
        """The error for two fact ids whose names collide."""
        return name_collision(
            self._instance.fact_at(first), self._instance.fact_at(second)
        )


class _RelationColumns:
    """The column family of one relation."""

    __slots__ = ("arity", "columns", "fact_ids", "_key_to_fid")

    def __init__(self, arity: int):
        self.arity = arity
        self.columns: list[array] = [array("i") for _ in range(arity)]
        self.fact_ids = array("i")
        # Packed row key → global fact id; the set-semantics index.
        # ``None`` means "not built": bulk loads drop it rather than pay
        # a per-row dict insert, and the property rebuilds it from the
        # columns on the first keyed lookup.
        self._key_to_fid: dict | None = {}

    @property
    def key_to_fid(self) -> dict:
        index = self._key_to_fid
        if index is None:
            keys = _pack_rows(self.columns, len(self.fact_ids))
            if hasattr(keys, "tolist"):
                keys = keys.tolist()
            index = dict(zip(keys, self.fact_ids))
            self._key_to_fid = index
        return index

    def __len__(self) -> int:
        return len(self.fact_ids)


class ColumnarInstance(AbstractInstance):
    """Dictionary-encoded columnar instance (the U-relation backend).

    Drop-in for :class:`repro.instances.base.Instance` everywhere the
    shared protocol is used; additionally exposes bulk encoded loads and
    raw column access for the vectorized query/provenance pipeline.

    >>> inst = ColumnarInstance()
    >>> _ = inst.add(Fact("R", (1,)))
    >>> Fact("R", (1,)) in inst
    True
    """

    def __init__(self, facts: Iterable[Fact] = ()):
        # Shared dictionary. Ints in [0, _int_prefix) encode as themselves
        # (the bulk-generator fast path); everything else goes through the
        # dict, with codes offset past the prefix.
        self._int_prefix = 0
        self._dict_constants: list[Constant] = []
        self._code_of: dict = {}
        self._rels: dict[str, _RelationColumns] = {}
        self._rel_names: list[str] = []
        self._rel_index: dict[str, int] = {}
        # Global fact-id → (relation, row) locator, as two parallel arrays.
        self._fid_rel = array("i")
        self._fid_row = array("i")
        # Lazily extended code → str(decoded constant) table for bulk
        # circuit-leaf naming.
        self._strs: list[str] = []
        #: Count of Fact objects this instance has materialized — the E18
        #: bench asserts the columnar pipeline keeps this at zero.
        self.facts_materialized = 0
        #: What this instance's fact ids mean; lineage variables and event
        #: spaces hold it next to their ids.
        self.id_space = FactIdSpace(self)
        for f in facts:
            self.add(f)

    # ------------------------------------------------------------------ #
    # the constant dictionary

    def intern_int_range(self, stop: int) -> None:
        """Ensure ints ``0..stop-1`` are interned as their own codes.

        O(1): only legal while the dictionary is untouched (fresh instance
        or prior prefix growth), which is exactly the bulk-generator case.
        """
        check(stop < _PACK, "int range exceeds the int32 code space")
        if stop <= self._int_prefix:
            return
        check(
            not self._code_of,
            "intern_int_range requires an untouched constant dictionary",
        )
        self._int_prefix = stop

    def intern(self, constant: Constant) -> int:
        """Return the code of ``constant``, interning it if new."""
        if type(constant) is int and 0 <= constant < self._int_prefix:
            return constant
        code = self._code_of.get(constant)
        if code is None:
            code = self._int_prefix + len(self._dict_constants)
            check(code < _PACK, "constant dictionary exceeds the int32 code space")
            self._dict_constants.append(constant)
            self._code_of[constant] = code
        return code

    def encode(self, constant: Constant) -> int | None:
        """Return the code of ``constant``, or ``None`` if never interned."""
        if type(constant) is int and 0 <= constant < self._int_prefix:
            return constant
        return self._code_of.get(constant)

    def decode(self, code: int) -> Constant:
        """Return the constant for ``code``."""
        if code < self._int_prefix:
            return code
        return self._dict_constants[code - self._int_prefix]

    def n_codes(self) -> int:
        """Number of interned constants."""
        return self._int_prefix + len(self._dict_constants)

    # ------------------------------------------------------------------ #
    # primitives of the shared protocol

    def _rel_columns(self, relation: str, arity: int) -> _RelationColumns:
        rel = self._rels.get(relation)
        if rel is None:
            rel = _RelationColumns(arity)
            self._rels[relation] = rel
            self._rel_index[relation] = len(self._rel_names)
            self._rel_names.append(relation)
        else:
            check(
                rel.arity == arity,
                f"relation {relation!r} used with two arities",
            )
        return rel

    def add(self, f: Fact) -> Fact:
        """Insert a fact (idempotent) and return it."""
        self.add_fact(f.relation, f.args)
        return f

    def add_fact(self, relation: str, args: tuple) -> int:
        """Insert ``relation(args...)`` and return its fact id (no Fact)."""
        rel = self._rel_columns(relation, len(args))
        codes = [self.intern(a) for a in args]
        key = 0
        for c in codes:
            key = key * _PACK + c
        fid = rel.key_to_fid.get(key)
        if fid is not None:
            return fid
        fid = len(self._fid_rel)
        rel.key_to_fid[key] = fid
        for col, c in zip(rel.columns, codes):
            col.append(c)
        rel.fact_ids.append(fid)
        self._fid_rel.append(self._rel_index[relation])
        self._fid_row.append(len(rel.fact_ids) - 1)
        return fid

    def fact_id_of(self, f: Fact) -> int | None:
        """Return the fact id of ``f``, or ``None`` if absent."""
        rel = self._rels.get(f.relation)
        if rel is None or rel.arity != len(f.args):
            return None
        key = 0
        for a in f.args:
            code = self.encode(a)
            if code is None:
                return None
            key = key * _PACK + code
        return rel.key_to_fid.get(key)

    def discard(self, f: Fact) -> None:
        """Remove a fact if present (rebuilds the relation's columns).

        O(instance) — the columnar backend is append-oriented; discard
        exists for protocol completeness, not for hot paths.
        """
        fid = self.fact_id_of(f)
        if fid is None:
            return
        count_before = self.facts_materialized
        survivors = [g for g in self.facts() if g != f]
        # The survivors are renumbered; whatever holds the old id space
        # keeps naming the facts it was built over, from a frozen copy.
        self.id_space._instance = copy.copy(self)
        self.__init__(survivors)
        self.facts_materialized = count_before + len(survivors) + 1

    def __contains__(self, f: Fact) -> bool:
        return self.fact_id_of(f) is not None

    def __len__(self) -> int:
        return len(self._fid_rel)

    def fact_at(self, fid: int) -> Fact:
        """Materialize the Fact object with global id ``fid``."""
        relation = self._rel_names[self._fid_rel[fid]]
        rel = self._rels[relation]
        row = self._fid_row[fid]
        args = tuple(self.decode(col[row]) for col in rel.columns)
        self.facts_materialized += 1
        return Fact(relation, args)

    def facts(self) -> list[Fact]:
        """Materialize all facts, in insertion (fact-id) order."""
        return [self.fact_at(fid) for fid in range(len(self._fid_rel))]

    def relations(self) -> dict[str, int]:
        """Return the schema: relation name → arity (no materialization)."""
        return {name: self._rels[name].arity for name in self._rel_names}

    def by_relation(self, relation: str) -> list[Fact]:
        """Materialize the facts of one relation, in insertion order."""
        rel = self._rels.get(relation)
        if rel is None:
            return []
        return [self.fact_at(fid) for fid in rel.fact_ids]

    def key_index(self, relation: str, key_positions: Iterable[int]) -> dict[tuple, list[Fact]]:
        """Group the relation's facts into blocks by their key projection.

        Columnar override of the shared-protocol method: rows are grouped
        by their packed key codes (one vectorized :func:`_pack_rows` pass
        over the key columns instead of a per-fact tuple build), then each
        block materializes its facts.  Order-identical to the reference
        implementation on :class:`AbstractInstance`.
        """
        positions = tuple(key_positions)
        rel = self._rels.get(relation)
        if rel is None:
            return {}
        check(
            all(p < rel.arity for p in positions),
            f"key position out of range for {relation!r} (arity {rel.arity})",
        )
        n = len(rel.fact_ids)
        packed = _pack_rows([rel.columns[p] for p in positions], n)
        if hasattr(packed, "tolist"):
            packed = packed.tolist()
        groups: dict[int, list[int]] = {}
        for row, key in enumerate(packed):
            groups.setdefault(key, []).append(row)
        index: dict[tuple, list[Fact]] = {}
        for rows in groups.values():
            first = rows[0]
            key_tuple = tuple(self.decode(rel.columns[p][first]) for p in positions)
            index[key_tuple] = [self.fact_at(rel.fact_ids[r]) for r in rows]
        return index

    # ------------------------------------------------------------------ #
    # columnar accessors (the vectorized pipeline's surface)

    def relation_arrays(self, relation: str) -> tuple[list[array], array] | None:
        """Return ``(columns, fact_ids)`` raw buffers, or None if absent."""
        rel = self._rels.get(relation)
        if rel is None:
            return None
        return rel.columns, rel.fact_ids

    def variable_names_for(self, fids: Iterable[int]) -> list[str]:
        """Circuit-leaf names for fact ids, without materializing Facts.

        ``fids`` is any sized int sequence (range, list, array, ndarray).
        Follows :attr:`repro.instances.base.Fact.variable_name` exactly, so
        both backends agree on every leaf of every lineage circuit.

        Sorts the requested ids (the id space is relation-blocked for bulk
        loads, so sorted ids form a handful of same-relation runs), gathers
        each run's code columns in one shot, formats the names through the
        cached code→str table, and scatters them back to the callers' order
        with one object-array assignment.
        """
        if isinstance(fids, range):
            fids = _np.arange(fids.start, fids.stop, fids.step, dtype=_np.int64)
        else:
            fids = _np.asarray(fids, dtype=_np.int64)
        n = fids.size
        if n == 0:
            return []
        order = _np.argsort(fids, kind="stable")
        sorted_fids = fids[order]
        rel_ids = _np.frombuffer(self._fid_rel, dtype=_np.int32)[sorted_fids]
        rows = _np.frombuffer(self._fid_row, dtype=_np.int32)[sorted_fids]
        run_starts = [0, *(_np.flatnonzero(_np.diff(rel_ids)) + 1).tolist(), n]
        if len(run_starts) - 2 > max(8, n >> 3):
            # Heavily interleaved id space (per-fact add path): the run
            # machinery would pay per-run numpy overhead ~per fact.
            return self._names_per_fact(fids.tolist())
        strs = self._code_strs()
        names: list[str] = []
        for start, stop in zip(run_starts, run_starts[1:]):
            relation = self._rel_names[rel_ids[start]]
            rel = self._rels[relation]
            run_rows = rows[start:stop]
            cols = [
                _np.frombuffer(col, dtype=_np.int32)[run_rows].tolist()
                for col in rel.columns
            ]
            if rel.arity == 1:
                names += [f"f:{relation}({strs[a]})" for a in cols[0]]
            elif rel.arity == 2:
                names += [
                    f"f:{relation}({strs[a]},{strs[b]})"
                    for a, b in zip(cols[0], cols[1])
                ]
            else:
                names += [
                    f"f:{relation}({','.join([strs[c] for c in row])})"
                    for row in zip(*cols)
                ]
        out = _np.empty(n, dtype=object)
        out[order] = names
        return out.tolist()

    def _names_per_fact(self, fids: Iterable[int]) -> list[str]:
        """:meth:`variable_names_for`, one fact at a time."""
        strs = self._code_strs()
        rel_names = self._rel_names
        fid_rel = self._fid_rel
        fid_row = self._fid_row
        rels = self._rels
        names = []
        for fid in fids:
            relation = rel_names[fid_rel[fid]]
            row = fid_row[fid]
            inside = ",".join([strs[col[row]] for col in rels[relation].columns])
            names.append(f"f:{relation}({inside})")
        return names

    def _code_strs(self) -> list[str]:
        """Decoded-constant strings per code, extended lazily as codes grow."""
        strs = self._strs
        n = self.n_codes()
        if len(strs) < n:
            decode = self.decode
            strs.extend(str(decode(c)) for c in range(len(strs), n))
        return strs

    # ------------------------------------------------------------------ #
    # bulk loads

    def extend_encoded(self, relation: str, columns: Sequence) -> "object":
        """Bulk-append encoded rows; returns the per-row fact ids.

        ``columns`` holds one int-sequence (list / array / numpy array) per
        attribute position, already encoded against this instance's
        dictionary (:meth:`intern`, :meth:`intern_int_range`,
        :meth:`intern_values`). Set semantics match :meth:`add`: duplicate
        rows — within the batch or against existing rows — map to the
        first occurrence's fact id. Returns an int array aligned with the
        input rows: numpy for arity ≤ 2, ``array("i")`` above. A code
        outside ``[0, n_codes())`` raises before anything is inserted.
        """
        lengths = {len(c) for c in columns}
        check(len(lengths) <= 1, "encoded columns must have equal lengths")
        length = lengths.pop() if lengths else 0
        n_codes = self.n_codes()
        for values in columns:
            codes = _np.asarray(values, dtype=_np.int64)
            check(
                codes.size == 0
                or (int(codes.min()) >= 0 and int(codes.max()) < n_codes),
                f"relation {relation!r} has codes outside the dictionary "
                f"of {n_codes} constants",
            )
        rel = self._rel_columns(relation, len(columns))
        if length == 0:
            return _np.zeros(0, dtype=_np.int64)
        keys = _pack_rows(columns, length)
        base_fid = len(self._fid_rel)
        base_row = len(rel.fact_ids)
        if len(columns) <= 2:
            uniq_keys, first_index = _np.unique(keys, return_index=True)
            fresh = first_index
            if base_row:
                index = rel._key_to_fid
                if index is not None:
                    known = _np.fromiter(
                        (k in index for k in uniq_keys.tolist()),
                        dtype=bool,
                        count=len(uniq_keys),
                    )
                else:
                    # Index not built: dedup against the existing rows'
                    # packed keys directly, keeping the load dict-free.
                    known = _np.isin(
                        uniq_keys, _pack_rows(rel.columns, base_row)
                    )
                fresh = first_index[~known]
            keep = _np.sort(fresh)  # batch-insertion order
            new_fids = base_fid + _np.arange(len(keep), dtype=_np.int64)
            for col, values in zip(rel.columns, columns):
                kept = _np.asarray(values, dtype=_np.int64)[keep]
                col.frombytes(kept.astype(_np.int32).tobytes())
            rel.fact_ids.frombytes(new_fids.astype(_np.int32).tobytes())
            index = rel._key_to_fid
            if index:
                # A built (non-empty) index stays coherent incrementally.
                index.update(zip(keys[keep].tolist(), new_fids.tolist()))
            else:
                # Fresh relation or already-lazy index: defer the dict to
                # the first keyed lookup instead of paying it per load.
                rel._key_to_fid = None
            self._fid_rel.frombytes(
                _np.full(len(keep), self._rel_index[relation], dtype=_np.int32)
                .tobytes()
            )
            self._fid_row.frombytes(
                (base_row + _np.arange(len(keep), dtype=_np.int32)).tobytes()
            )
            if len(keep) == length:
                return new_fids  # all rows fresh and unique: the common case
            return _np.fromiter(
                (rel.key_to_fid[k] for k in keys.tolist()),
                dtype=_np.int64,
                count=length,
            )
        # Arity above 2: same semantics over unbounded Python-int keys.
        fids = array("i")
        key_to_fid = rel.key_to_fid
        for i in range(length):
            key = keys[i]
            fid = key_to_fid.get(key)
            if fid is None:
                fid = len(self._fid_rel)
                key_to_fid[key] = fid
                for col, values in zip(rel.columns, columns):
                    col.append(int(values[i]))
                rel.fact_ids.append(fid)
                self._fid_rel.append(self._rel_index[relation])
                self._fid_row.append(len(rel.fact_ids) - 1)
            fids.append(fid)
        return fids

    def intern_values(self, values: Iterable[Constant]):
        """Intern arbitrary constants; returns their codes as an int array."""
        codes = array("i", (self.intern(v) for v in values))
        return _np.frombuffer(codes, dtype=_np.int32).copy()

    # ------------------------------------------------------------------ #
    # derived structure, column-native

    def _unique_codes_by_relation(self) -> dict[str, list]:
        out = {}
        for name in self._rel_names:
            rel = self._rels[name]
            out[name] = (
                _np.unique(
                    _np.concatenate(
                        [_np.frombuffer(col, dtype=_np.int32) for col in rel.columns]
                    )
                ).tolist()
                if rel.columns and len(rel.fact_ids)
                else []
            )
        return out

    def domain(self) -> frozenset[Constant]:
        """Active domain from the columns — no Fact materialization."""
        decode = self.decode
        elements: set = set()
        for codes in self._unique_codes_by_relation().values():
            elements.update(decode(c) for c in codes)
        return frozenset(elements)

    def gaifman_graph(self):
        """Gaifman graph from unique column pairs — no Fact materialization."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.domain())
        decode = self.decode
        for name in self._rel_names:
            rel = self._rels[name]
            if len(rel.fact_ids) == 0:
                continue
            for i in range(rel.arity):
                for j in range(i + 1, rel.arity):
                    a_col, b_col = rel.columns[i], rel.columns[j]
                    a = _np.frombuffer(a_col, dtype=_np.int32).astype(_np.int64)
                    b = _np.frombuffer(b_col, dtype=_np.int32).astype(_np.int64)
                    packed = _np.unique(a * _PACK + b)
                    pairs = [
                        (int(p) >> 31, int(p) & (_PACK - 1))
                        for p in packed.tolist()
                    ]
                    for x, y in pairs:
                        if x != y:
                            graph.add_edge(decode(x), decode(y))
        return graph

    # ------------------------------------------------------------------ #
    # conversions

    def to_instance(self) -> Instance:
        """Materialize as an object-backend :class:`Instance` (lossless)."""
        return Instance(self.facts())

    @classmethod
    def from_instance(cls, instance: AbstractInstance) -> "ColumnarInstance":
        """Encode an object-backend instance column-wise (lossless)."""
        return cls(instance.facts())

    # ------------------------------------------------------------------ #
    # encoded wire payloads (the query-service ingest format)

    def to_payload(self) -> dict:
        """This instance as a JSON-friendly encoded payload.

        Carries the shared dictionary (int prefix + interned constants, in
        code order) and each relation's raw code columns — no Fact
        objects, no decoded rows — and round-trips exactly through
        :meth:`ingest_payload`. Constants must be JSON-representable
        (str/int/float/bool); anything else is rejected here rather than
        silently mangled by the serializer.
        """
        for constant in self._dict_constants:
            check(
                isinstance(constant, (str, int, float, bool)),
                f"constant {constant!r} is not JSON-representable",
            )
        return {
            "version": 1,
            "int_prefix": self._int_prefix,
            "constants": list(self._dict_constants),
            "relations": {
                name: [list(column) for column in self._rels[name].columns]
                for name in self._rel_names
            },
        }

    @classmethod
    def ingest_payload(cls, payload) -> tuple["ColumnarInstance", dict]:
        """Build an instance from an encoded payload (the service ingest).

        Returns ``(instance, fids_by_relation)`` where each relation maps
        to the per-row fact ids its columns produced, aligned with the
        payload's rows (duplicate rows get their first occurrence's id) —
        exactly what a caller needs to attach per-row probabilities to the
        resulting lineage variables (:meth:`variable_names_for`). The
        payload is untrusted wire input: shapes, code ranges, and
        dictionary consistency are all validated with clear errors.
        """
        check(isinstance(payload, dict), "instance payload must be an object")
        check(
            payload.get("version", 1) == 1,
            "unsupported instance payload version",
        )
        instance = cls()
        prefix = payload.get("int_prefix", 0)
        check(
            isinstance(prefix, int) and 0 <= prefix < _PACK,
            "'int_prefix' must be a non-negative int32",
        )
        instance.intern_int_range(prefix)
        constants = payload.get("constants", [])
        check(isinstance(constants, list), "'constants' must be a list")
        for position, constant in enumerate(constants):
            check(
                isinstance(constant, (str, int, float, bool)),
                f"constant {constant!r} is not JSON-representable",
            )
            code = instance.intern(constant)
            check(
                code == prefix + position,
                f"constant {constant!r} collides with an earlier code "
                "(duplicate dictionary entry or int-prefix overlap)",
            )
        relations = payload.get("relations", {})
        check(isinstance(relations, dict), "'relations' must be an object")
        n_codes = instance.n_codes()
        fids_by_relation: dict = {}
        for name, columns in relations.items():
            check(
                isinstance(name, str) and name,
                "relation names must be non-empty strings",
            )
            check(
                isinstance(columns, list)
                and all(isinstance(column, list) for column in columns),
                f"relation {name!r} must hold a list of code columns",
            )
            for column in columns:
                check(
                    all(
                        isinstance(code, int) and 0 <= code < n_codes
                        for code in column
                    ),
                    f"relation {name!r} has codes outside the dictionary",
                )
            fids = instance.extend_encoded(
                name, [array("i", column) for column in columns]
            )
            fids_by_relation[name] = [int(fid) for fid in fids]
        return instance, fids_by_relation


# --------------------------------------------------------------------------- #
# the backend knob

_BACKENDS = ("object", "columnar")
_BACKEND: str | None = None  # None → fall back to the environment


def instance_backend() -> str:
    """The process-wide default instance backend (``object``/``columnar``)."""
    if _BACKEND is not None:
        return _BACKEND
    name = os.environ.get("REPRO_INSTANCE_BACKEND", "object").strip() or "object"
    if name not in _BACKENDS:
        raise ReproError(
            f"REPRO_INSTANCE_BACKEND={name!r}; expected one of {_BACKENDS}"
        )
    return name


def set_instance_backend(name: str | None) -> None:
    """Override the default backend (``None`` → back to the environment)."""
    global _BACKEND
    check(
        name is None or name in _BACKENDS,
        f"unknown instance backend {name!r}; expected one of {_BACKENDS}",
    )
    _BACKEND = name


def instance_backend_set(name: str | None):
    """Scoped :func:`set_instance_backend` (restores the prior override).

    Thin shim over :func:`repro.config.overrides`.
    """
    from repro import config

    return config.overrides(instance_backend=name)


def make_instance(
    backend: str | None = None, facts: Iterable[Fact] = ()
) -> AbstractInstance:
    """Construct an instance of the requested (or default) backend."""
    name = backend if backend is not None else instance_backend()
    check(
        name in _BACKENDS,
        f"unknown instance backend {name!r}; expected one of {_BACKENDS}",
    )
    if name == "columnar":
        return ColumnarInstance(facts)
    return Instance(facts)
