"""Vectorized CQ/UCQ evaluation on columnar instances.

The columnar half of the query layer: conjunctive queries evaluate as a
pipeline of joins over the dictionary-encoded columns of a
:class:`repro.instances.columnar.ColumnarInstance` — one column
select/filter per atom, one order-preserving join per conjunction step —
with every intermediate row carrying its *witness fact ids* (one per atom
joined so far) as extra lineage columns, U-relation style.

A join step counts instead of searching. Its keys are small non-negative
integers: dictionary codes, or packed multi-column keys re-encoded into
``0 .. distinct-1`` when they run far past the rows (:func:`_dense_keys`).
A stable argsort groups the right rows by key, one ``bincount`` and its
``cumsum`` say where each key's group starts and how long it is, and each
left row reads both at its own key.

Order is load-bearing: the join enumerates result rows in exactly the
order the object backend's backtracking search
(:meth:`repro.queries.cq.ConjunctiveQuery.homomorphisms`) yields bindings
— left rows in order, right matches in fact-insertion order (the stable
argsort keeps equal keys in original row order). The provenance builder
relies on this to produce bit-identical circuits from either backend.
"""

from __future__ import annotations

import numpy as np

from repro.instances.columnar import ColumnarInstance

_PACK = 1 << 31


class JoinResult:
    """All homomorphisms of a CQ into a columnar instance, as columns.

    ``var_columns`` maps each query variable to an int64 code column;
    ``witnesses`` is an ``(n_rows, n_atoms)`` int64 matrix of global fact
    ids, columns in *original* ``query.atoms`` order. Row order matches
    the object backend's backtracking enumeration exactly.
    """

    __slots__ = ("instance", "n_rows", "var_columns", "witnesses")

    def __init__(self, instance, n_rows, var_columns, witnesses):
        self.instance = instance
        self.n_rows = n_rows
        self.var_columns = var_columns
        self.witnesses = witnesses

    def bindings(self):
        """Decode the rows into binding dicts (oracle cross-checks only)."""
        decode = self.instance.decode
        names = list(self.var_columns)
        cols = [self.var_columns[v].tolist() for v in names]
        for row in range(self.n_rows):
            yield {v: decode(col[row]) for v, col in zip(names, cols)}


def _empty(instance, query):
    return JoinResult(
        instance, 0, {}, np.zeros((0, len(query.atoms)), dtype=np.int64)
    )


def _candidate_rows(instance: ColumnarInstance, atom_):
    """Filter one atom against its relation's columns.

    Returns ``(columns, fact_ids, kept_row_indices)`` with constants and
    within-atom repeated variables applied, or ``None`` when no row can
    match (unknown relation/constant, arity mismatch).
    """
    from repro.queries.cq import Variable

    arrays = instance.relation_arrays(atom_.relation)
    if arrays is None:
        return None
    raw_cols, raw_fids = arrays
    if len(raw_cols) != len(atom_.terms):
        return None
    n = len(raw_fids)
    cols = [
        np.frombuffer(col, dtype=np.int32).astype(np.int64) for col in raw_cols
    ]
    fids = np.frombuffer(raw_fids, dtype=np.int32).astype(np.int64)
    mask = None
    first_position: dict = {}
    for position, term in enumerate(atom_.terms):
        if isinstance(term, Variable):
            seen = first_position.get(term)
            if seen is None:
                first_position[term] = position
            else:
                condition = cols[seen] == cols[position]
                mask = condition if mask is None else (mask & condition)
        else:
            code = instance.encode(term)
            if code is None:
                return None
            condition = cols[position] == code
            mask = condition if mask is None else (mask & condition)
    if mask is not None:
        kept = np.flatnonzero(mask)
        cols = [c[kept] for c in cols]
        fids = fids[kept]
        n = len(kept)
    return cols, fids, first_position, n


def _joint_pack(left_cols, right_cols):
    """Pack parallel multi-column keys on both join sides consistently.

    Two int32 codes fold exactly into an int64; for wider keys the partial
    keys are re-encoded jointly (one ``np.unique`` over both sides) before
    each further fold, so equal tuples keep equal packed keys.
    """
    left = left_cols[0]
    right = right_cols[0]
    for lc, rc in zip(left_cols[1:], right_cols[1:]):
        if left.size or right.size:
            high = max(
                int(left.max(initial=0)), int(right.max(initial=0))
            )
            if high >= _PACK:
                merged = np.concatenate([left, right])
                _, inverse = np.unique(merged, return_inverse=True)
                left = inverse[: len(left)]
                right = inverse[len(left) :]
        left = left * _PACK + lc
        right = right * _PACK + rc
    return left, right


def _dense_keys(left, right):
    """Join keys as codes a count array can index: ``(left, right, size)``.

    Every key lies in ``[0, size)``. Keys up to about twice the rows of
    both sides are kept (dictionary codes are dense by construction);
    larger ones, such as packed multi-column keys, are re-encoded jointly
    by one ``np.unique``, so the count array stays O(rows). Equal keys stay
    equal and distinct keys distinct, which is all the join reads.
    """
    high = max(int(left.max(initial=0)), int(right.max(initial=0)))
    if high < 2 * (left.size + right.size) + 64:
        return left, right, high + 1
    keys, inverse = np.unique(
        np.concatenate([left, right]), return_inverse=True
    )
    return inverse[: left.size], inverse[left.size :], keys.size


def evaluate_cq(query, instance: ColumnarInstance) -> JoinResult:
    """All homomorphisms of ``query`` into ``instance``, vectorized.

    Joins atoms in the same connectivity-aware order as the backtracking
    search and preserves its enumeration order row for row.
    """
    from repro.queries.cq import Variable, _atom_order_indices

    order = _atom_order_indices(query.atoms)

    state_cols: dict = {}  # Variable -> int64 code column
    state_witness: list = []  # per processed atom: int64 fact-id column
    n_rows = -1  # -1: before the first atom (one empty row)

    for atom_index in order:
        atom_ = query.atoms[atom_index]
        candidate = _candidate_rows(instance, atom_)
        if candidate is None:
            return _empty(instance, query)
        cols, fids, first_position, n_cand = candidate
        atom_vars = [
            (term, first_position[term])
            for term in dict.fromkeys(
                t for t in atom_.terms if isinstance(t, Variable)
            )
        ]
        shared = [(v, p) for v, p in atom_vars if v in state_cols]
        fresh = [(v, p) for v, p in atom_vars if v not in state_cols]
        if n_rows == -1:
            left_idx = None
            right_idx = np.arange(n_cand, dtype=np.int64)
        elif not shared:
            # No shared variables: cross product, left rows outer (exactly
            # the backtracking nesting).
            left_idx = np.repeat(np.arange(n_rows, dtype=np.int64), n_cand)
            right_idx = np.tile(np.arange(n_cand, dtype=np.int64), n_rows)
        else:
            left_key, right_key, size = _dense_keys(
                *_joint_pack(
                    [state_cols[v] for v, _p in shared],
                    [cols[p] for _v, p in shared],
                )
            )
            # The right rows of key k are sort[group[k] : group[k] +
            # per_key[k]], in their original order.
            sort = np.argsort(right_key, kind="stable")
            per_key = np.bincount(right_key, minlength=size)
            group = np.cumsum(per_key) - per_key
            counts = per_key[left_key]
            left_idx = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
            # Output row j of left row i takes sorted position
            # group[key_i] + j - (first output row of i).
            shift = group[left_key] - (np.cumsum(counts) - counts)
            right_idx = sort[
                np.arange(left_idx.size, dtype=np.int64)
                + np.repeat(shift, counts)
            ]
        if left_idx is None:
            state_witness = [fids[right_idx]]
            state_cols = {v: cols[p][right_idx] for v, p in atom_vars}
        else:
            state_witness = [w[left_idx] for w in state_witness]
            state_witness.append(fids[right_idx])
            state_cols = {
                v: col[left_idx] for v, col in state_cols.items()
            }
            for v, p in fresh:
                state_cols[v] = cols[p][right_idx]
        n_rows = len(state_witness[-1])
        if n_rows == 0:
            return _empty(instance, query)

    witnesses = np.empty((n_rows, len(query.atoms)), dtype=np.int64)
    for processed, atom_index in enumerate(order):
        witnesses[:, atom_index] = state_witness[processed]
    return JoinResult(instance, n_rows, state_cols, witnesses)


def cq_holds(query, instance: ColumnarInstance) -> bool:
    """Boolean CQ evaluation on a columnar instance."""
    return evaluate_cq(query, instance).n_rows > 0
