"""Compile-once/evaluate-many circuit backend: a flat CSR circuit IR.

The hash-consed :class:`repro.circuits.circuit.Circuit` is the right arena
for *building* lineages, but evaluating it repeatedly (per possible world,
per Monte-Carlo sample, per conditioning query) pays per-gate dict lookups
and a fresh valuation dict every time. A :class:`CompiledCircuit` lowers the
gate DAG once into flat, topologically-sorted arrays:

- ``kinds`` — one small int code per gate (``K_FALSE`` … ``K_OR``);
- ``offsets``/``indices`` — gate inputs in CSR form, as *positions* into the
  compiled arrays rather than arena gate ids;
- ``var_slot`` — for variable gates, the index of the interned variable
  name, so a valuation is just a flat sequence of booleans;
- cached variable order, moral graph, tree decompositions (per heuristic)
  and the binarized form, so repeated message-passing runs share all the
  structural preprocessing.

Every evaluation entry point then runs a single tight bottom-up loop over
these arrays: :meth:`CompiledCircuit.evaluate` for one world,
:meth:`CompiledCircuit.evaluate_batch` for many worlds at once,
:meth:`CompiledCircuit.probability` for the linear-time
deterministic-decomposable fast path (Theorem 1),
:meth:`CompiledCircuit.probability_batch` for many marginal vectors at
once, and :meth:`CompiledCircuit.probability_enumerate` for the
brute-force oracle. The one-row entry points (``evaluate``,
``probability``) are the second stage: a scalar pass that interprets the
CSR arrays gate by gate, reducing each AND/OR left to right. Its callers
are one-shot (the ``dd`` engine, possibility/certainty, the enumeration
baseline), so it builds nothing per circuit.

**Batch evaluation** adds a third lowering stage on top of the flat IR.
The topologically sorted gates are grouped into *levels* — every gate's
inputs live in strictly earlier levels — and the CSR arrays are
materialized as ``int32`` numpy buffers. A batch of worlds is a
``(n_worlds, n_vars)`` matrix; the
value buffer is gate-major (one row per gate) and each level evaluates in
a handful of vectorized operations, one per gate kind for most levels:
the AND (or OR) gates of a level are gathered with one ``take`` as a
``(fan_in, count, width)`` stack, the narrower ones padded from an
identity row, and collapsed with one ufunc. The Boolean pass is
bit-sliced: a gate's row holds one ``uint64`` word per 64 worlds, NOT is
``~``, AND/OR are ``np.bitwise_and`` / ``np.bitwise_or``. The float pass
of :meth:`~CompiledCircuit.probability_batch` keeps one float64 column
per marginal row and reduces with ``np.multiply`` / ``np.add``. Thousands of
sampled worlds are evaluated per pass instead of one scalar pass per
world; batches are chunked so the value buffer stays within
:data:`BATCH_BYTE_BUDGET` bytes.

**Sharded multi-process evaluation** is the fourth lowering stage, in
:mod:`repro.circuits.parallel`: the plan's int32 CSR buffers are published
once into ``multiprocessing.shared_memory`` with the level schedule, the
workers of a persistent :class:`concurrent.futures.ProcessPoolExecutor`
build the level plan from them, and big world/marginal matrices are split
into row shards evaluated on every core.
:meth:`~CompiledCircuit.evaluate_batch` and
:meth:`~CompiledCircuit.probability_batch` route there automatically when
the ``parallel_workers`` knob is set and the batch is large enough
(``parallel.should_shard``); results are bit-identical to the in-process
kernels, and any pool failure falls back to them with a warning.

**Distributed execution** is the fifth stage, in
:mod:`repro.circuits.distributed`: :meth:`CompiledCircuit.wire_bytes`
serializes the plan to a versioned, checksummed wire format, and an asyncio
coordinator streams the same deterministic shards to remote worker
processes over TCP (knob: ``distributed_hosts`` /
``REPRO_DISTRIBUTED_HOSTS``), retrying on worker loss — again with
bit-identical results. The full pipeline is documented in
``ARCHITECTURE.md`` at the repository root.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as _np

from repro.circuits.circuit import (
    K_AND,
    K_FALSE,
    K_NOT,
    K_OR,
    K_TRUE,
    K_VAR,
    Circuit,
)
from repro.events.space import FactNames
from repro.util import ReproError, check

# Gate kind codes of the flat IR (defined on the arena in ``circuit.py``,
# which maintains them incrementally; re-exported here for compatibility).
# CONST gates split into two codes so the payload never needs a side table.

#: Largest variable count accepted by :meth:`CompiledCircuit.probability_enumerate`.
ENUMERATION_VARIABLE_CAP = 26

#: Per-chunk cap on the gate-major value buffer of the numpy batch kernels,
#: in bytes; larger batches are processed in slices. Each gate costs 8
#: bytes per chunk unit: one float64 per marginal row in the float pass,
#: one ``uint64`` word per 64 worlds in the Boolean pass.
BATCH_BYTE_BUDGET = 1 << 25

#: Below this gate count lowering stays on the plain Python passes —
#: per-call array overhead beats them on tiny circuits, and the Python
#: path is the reference the vectorized one is pinned against.
VECTOR_MIN_GATES = 512

_UNBUILT = object()

#: Process-wide lowering counters: how often a full lowering ran and how
#: many compiles were answered from the arena memo. Read by
#: :func:`compile_stats` and reset by tests via :func:`reset_compile_stats`.
_STATS = {
    "lowerings": 0,
    "arena_cache_hits": 0,
}

#: Folded-in totals from before each :func:`reset_compile_stats` call, so
#: ``compile_stats(lifetime=True)`` survives test-isolation resets.
_LIFETIME = dict.fromkeys(_STATS, 0)


def compile_stats(lifetime: bool = False) -> dict:
    """A snapshot of the process-wide compile counters.

    With ``lifetime=True`` the counts span the whole process, including
    everything zeroed by intervening :func:`reset_compile_stats` calls.
    """
    if lifetime:
        return {key: _STATS[key] + _LIFETIME[key] for key in _STATS}
    return dict(_STATS)


def reset_compile_stats() -> None:
    """Zero the compile counters (test isolation); totals are kept."""
    for key in _STATS:
        _LIFETIME[key] += _STATS[key]
        _STATS[key] = 0


#: Process-wide batch-execution counters: how many matrix passes the batch
#: entry points ran and how many rows they covered. The query service's
#: tests read these to prove coalescing really merged N requests into one
#: pass; ``/stats`` exposes them for operators.
_BATCH_STATS = {
    "probability_passes": 0,
    "probability_rows": 0,
    "evaluate_passes": 0,
    "evaluate_rows": 0,
}

_BATCH_LIFETIME = dict.fromkeys(_BATCH_STATS, 0)


def batch_stats(lifetime: bool = False) -> dict:
    """A snapshot of the process-wide batch-pass counters.

    One "pass" is one :meth:`CompiledCircuit.probability_batch` or
    :meth:`CompiledCircuit.evaluate_batch` call, whatever execution tier
    it lands on; "rows" counts the matrix rows those passes covered. With
    ``lifetime=True`` the counts span the whole process, including
    everything zeroed by intervening :func:`reset_batch_stats` calls.
    """
    if lifetime:
        return {key: _BATCH_STATS[key] + _BATCH_LIFETIME[key]
                for key in _BATCH_STATS}
    return dict(_BATCH_STATS)


def reset_batch_stats() -> None:
    """Zero the batch-pass counters (test isolation); totals are kept."""
    for key in _BATCH_STATS:
        _BATCH_LIFETIME[key] += _BATCH_STATS[key]
        _BATCH_STATS[key] = 0


def gate_levels(kinds, offsets, indices) -> list[int]:
    """Per-gate level of the schedule: inputs live in strictly lower levels.

    Variables and constants sit at level 0; every other gate one past its
    deepest input. This is the schedule :class:`_BatchPlan` groups by and
    the one :mod:`repro.circuits.distributed` ships (and re-verifies) in
    the wire format, so both derive it from this single definition. The
    lowerings gather it from the arena's incrementally maintained levels
    (``Circuit._gate_levels``), and :func:`levels_consistent` verifies a
    shipped one, so this loop is the definition, not a hot path.
    """
    depth = [0] * len(kinds)
    for pos in range(len(kinds)):
        kind = kinds[pos]
        if kind == K_VAR or kind == K_TRUE or kind == K_FALSE:
            continue
        start, end = offsets[pos], offsets[pos + 1]
        depth[pos] = 1 + max(
            (depth[indices[j]] for j in range(start, end)), default=0
        )
    return depth


def levels_consistent(kinds, offsets, indices, levels) -> bool:
    """Whether ``levels`` is exactly :func:`gate_levels` of the CSR arrays.

    The arrays must already have passed :func:`check_plan_arrays`, which
    guarantees topological input references — then the level schedule is
    the unique fixed point of "one past the deepest input", so verifying
    the local equation at every gate against the *candidate* levels proves
    the whole schedule. That makes validation one O(edges) pass
    (``maximum.reduceat`` over the non-empty CSR segments, which are
    contiguous in ``indices``) instead of a pass per level.
    """
    size = len(kinds)
    if len(levels) != size:
        return False
    if size >= VECTOR_MIN_GATES:
        akinds = _np.asarray(kinds, dtype=_np.int32)
        aoffsets = _np.asarray(offsets, dtype=_np.int64)
        aindices = _np.asarray(indices, dtype=_np.int64)
        alevels = _np.asarray(levels, dtype=_np.int64)
        # Degenerate zero-input op gates sit at level 1 (the python pass's
        # ``default=0`` branch); leaves at 0; everything else is checked
        # against its inputs below.
        expected = _np.ones(size, dtype=_np.int64)
        expected[akinds <= K_VAR] = 0
        nonempty = _np.flatnonzero(aoffsets[1:] > aoffsets[:-1])
        if nonempty.size:
            expected[nonempty] = (
                _np.maximum.reduceat(alevels[aindices], aoffsets[nonempty]) + 1
            )
        return bool(_np.array_equal(expected, alevels))
    return gate_levels(list(kinds), list(offsets), list(indices)) == list(levels)


def check_plan_arrays(*, size, kinds, offsets, indices, var_slot, n_vars,
                      output) -> None:
    """Structural validation of one flat CSR lowering; raises on damage.

    The gatekeeper for plans that arrive from outside this process over
    the wire format (and the service's ``/plans``): consistent lengths, an
    in-range output, monotone offsets, known gate kinds, leaf gates without
    inputs, in-range variable slots, and strictly topological input
    references (every input position below its gate's). Vectorized from
    :data:`VECTOR_MIN_GATES` gates; the Python loops below are the same
    checks.
    """
    check(size >= 1, "plan has no gates")
    check(
        len(kinds) == size
        and len(var_slot) == size
        and len(offsets) == size + 1,
        "plan sections disagree about the gate count",
    )
    check(0 <= output < size, "plan output gate out of range")
    check(
        offsets[0] == 0 and offsets[-1] == len(indices),
        "plan CSR offsets are inconsistent",
    )
    if size >= VECTOR_MIN_GATES:
        akinds = _np.asarray(kinds, dtype=_np.int64)
        aoffsets = _np.asarray(offsets, dtype=_np.int64)
        aindices = _np.asarray(indices, dtype=_np.int64)
        avar_slot = _np.asarray(var_slot, dtype=_np.int64)
        lengths = aoffsets[1:] - aoffsets[:-1]
        check(bool((lengths >= 0).all()), "plan CSR offsets are not monotone")
        check(
            bool(((akinds >= K_FALSE) & (akinds <= K_OR)).all()),
            "plan has an unknown gate kind",
        )
        leaf = akinds <= K_VAR
        check(
            bool((lengths[leaf] == 0).all()),
            "plan leaf gate has inputs",
        )
        var_mask = akinds == K_VAR
        check(
            bool(
                ((avar_slot[var_mask] >= 0) & (avar_slot[var_mask] < n_vars)).all()
            ),
            "plan variable slot out of range",
        )
        owners = _np.repeat(_np.arange(size, dtype=_np.int64), lengths)
        check(
            bool(((aindices >= 0) & (aindices < owners)).all()),
            "plan gate input does not precede its gate",
        )
        return
    for pos in range(size):
        check(
            offsets[pos] <= offsets[pos + 1],
            "plan CSR offsets are not monotone",
        )
        kind = kinds[pos]
        check(K_FALSE <= kind <= K_OR, f"plan has unknown gate kind {kind}")
        if kind <= K_VAR:
            check(
                offsets[pos] == offsets[pos + 1],
                "plan leaf gate has inputs",
            )
        if kind == K_VAR:
            check(
                0 <= var_slot[pos] < n_vars,
                "plan variable slot out of range",
            )
        for j in range(offsets[pos], offsets[pos + 1]):
            check(
                0 <= indices[j] < pos,
                "plan gate input does not precede its gate",
            )


def _group_starts(op_depth, op_kind, op_fan):
    """Where the level plan's groups start among the sorted operators.

    The operators arrive sorted by (level, kind, fan-in); one run of a
    (level, kind, fan-in) triple is a *block*. A (level, kind) run becomes
    one group when padding each of its gates to the run's widest fan-in at
    most doubles the elements its gather reads; a run that fails the bound
    keeps one group per block.
    """
    n_ops = op_fan.size
    key_cut = (op_depth[1:] != op_depth[:-1]) | (op_kind[1:] != op_kind[:-1])
    block_cut = key_cut | (op_fan[1:] != op_fan[:-1])
    block_start = _np.concatenate(([0], _np.flatnonzero(block_cut) + 1))
    heads = _np.concatenate(([True], key_cut[block_start[1:] - 1]))
    block_count = _np.diff(block_start, append=n_ops)
    block_fan = op_fan[block_start]
    key_first = _np.flatnonzero(heads)
    key_blocks = _np.diff(key_first, append=block_start.size)
    padded = block_fan[key_first + key_blocks - 1] * _np.add.reduceat(
        block_count, key_first
    )
    elements = _np.add.reduceat(block_count * block_fan, key_first)
    heads |= _np.repeat(padded > 2 * elements, key_blocks)
    return block_start[heads]


#: Above this many index slots, a group whose gates share one fan-in
#: builds its gather on its own with one broadcast add; smaller or padded
#: groups share one scatter. The scatter spends about a dozen array passes
#: per input, so on the 10⁶-fact bulk plan (two groups, 1.3·10⁶ slots)
#: it alone builds in over twice the time; the deep lineage plans
#: build equally fast at any threshold from 64 up, and slower at 0, where
#: every small group pays its own numpy calls.
_OWN_GATHER_SLOTS = 256


def _group_gathers(row_of, indices, csr, op_fan, starts, ends, fans, pad_rows):
    """The plane-major gather index of every group, built in array passes.

    Group ``g`` covers the sorted operators ``starts[g]:ends[g]`` (``csr``
    and ``op_fan`` give each one's CSR offset and fan-in) and gets a
    ``(fans[g], ends[g] - starts[g])`` row index: plane ``j`` lists each
    gate's ``j``-th input row, or ``pad_rows[g]`` where the gate has fewer
    inputs. Large groups of one fan-in build their block on their own;
    all other groups share one flat index, filled by one scatter over
    their inputs, so a deep plan of many small groups costs no numpy call
    per group.
    """
    counts = ends - starts
    own = (op_fan[starts] == fans) & (fans * counts > _OWN_GATHER_SLOTS)
    spans = _np.where(own, 0, fans * counts)
    bases = _np.cumsum(spans) - spans
    flat = _np.repeat(pad_rows, spans)
    shared = _np.repeat(~own, counts)
    if shared.any():
        fan = op_fan[shared]
        group = _np.repeat(_np.arange(starts.size), counts)[shared]
        first_slot = (bases - starts)[group] + _np.flatnonzero(shared)
        input_op = _np.repeat(_np.arange(fan.size), fan)
        plane = _np.arange(input_op.size) - (_np.cumsum(fan) - fan)[input_op]
        flat[first_slot[input_op] + plane * counts[group][input_op]] = row_of[
            indices[csr[shared][input_op] + plane]
        ]
    gathers = []
    for is_own, start, end, fan_in, base in zip(
        own.tolist(), starts.tolist(), ends.tolist(), fans.tolist(),
        bases.tolist(),
    ):
        if is_own:
            block = _np.arange(fan_in)[:, None] + csr[start:end]
            gathers.append(row_of[indices[block]])
        else:
            gathers.append(
                flat[base : base + fan_in * (end - start)]
                .reshape(fan_in, end - start)
            )
    return gathers


class _BatchPlan:
    """The third lowering stage: level-scheduled numpy batch arrays.

    Gates are grouped into *levels* — every gate's inputs live in strictly
    earlier levels — and renumbered into a gate-major layout: one value row
    per gate, variables first, then constants, then one contiguous row
    block per (level, kind, fan-in), ascending in fan-in. Two more rows
    follow the gates, the *identity rows*: TRUE (the AND identity) and
    FALSE (the OR identity). Each step covers adjacent blocks of one
    (level, kind), padded to their widest fan-in from the identity rows
    wherever that at most doubles the group's gathered elements
    (:func:`_group_starts`), so most levels cost one step per gate kind.
    A step gathers its inputs with one ``take`` from a plane-major index
    and writes its rows with one slice assignment, whatever the batch
    width.

    ``levels`` holds one tuple of steps per level, and a step is the
    plain tuple ``(kind, fan_in, rows, gather)``. ``rows`` is the
    contiguous ``(start, end)`` output-row block of the step's gates.
    ``gather`` holds their input rows plane-major: shape ``(count,)`` for
    NOT, ``(fan_in, count)`` for AND/OR, plane ``j`` listing every gate's
    ``j``-th input, or the kind's identity row where a gate has fewer
    than ``fan_in`` inputs, which leaves its value unchanged. So one
    ``values.take(gather, 0)`` stacks the step, and one binary ufunc (at
    ``fan_in == 2``) or one left-to-right ``reduce`` over axis 0
    evaluates it. (``reduceat`` over CSR segments would express the same
    reduction, but its axis-0 inner loop measures ~80x slower than the
    grouped ``reduce``, so the plan pre-groups instead.) Plain tuples of
    ints and arrays fall out of the garbage collector's tracking, so the
    tens of thousands of steps of a deep plan never trigger or lengthen
    a full collection.

    Two passes share the steps. The float pass gives each marginal row
    one float64 column; AND multiplies, OR adds, NOT is ``1.0 - x``, and
    the identity rows hold 1.0 and -0.0. Every reduction runs left to
    right from its first input, so a pass is bitwise equal to the scalar
    pass for every input, -0.0 and infinities included: ``x * 1.0`` and
    ``x + -0.0`` are ``x`` exactly (``x + 0.0`` is not, at -0.0). A NaN
    input gives a NaN, whose sign bit (which IEEE 754 leaves
    uninterpreted) may differ from the scalar pass's when two NaNs meet. The
    Boolean pass is bit-sliced: a row holds one ``uint64`` word per 64
    worlds, world ``i`` in bit ``i % 8`` of byte ``i // 8`` of the row, so
    AND/OR are ``bitwise_and``/``bitwise_or``, NOT is ``~``, and
    constants and identity rows are all-ones or all-zero words. The bits
    past the last world of a pass are padding: no operation mixes bits,
    so whatever they hold stays in its own lane, and only the output
    row's first ``rows`` bits are ever read (:meth:`output_bits`) — a NOT
    cannot leak its set padding bits.

    The plan is built from the int32 CSR arrays (``kinds``, ``offsets``,
    ``indices``, ``var_slot``), the level schedule and the output position,
    which every source carries: a lowering (:meth:`CompiledCircuit.batch_plan`),
    a wire plan, or the shared-memory segment of
    :mod:`repro.circuits.parallel`. :meth:`run` executes one pass;
    :meth:`run_into` chunks it. Callers that draw worlds themselves fill a
    :meth:`word_buffer`'s variable rows directly and call
    :meth:`run_words`.
    """

    __slots__ = (
        "size",
        "row_of",
        "var_slots",
        "const_rows",
        "const_values",
        "identity_rows",
        "levels",
        "output_row",
    )

    def __init__(self, kinds, offsets, indices, var_slot, levels, output: int):
        kinds, offsets, indices, var_slot, depth = (
            _np.asarray(array, dtype=_np.int32)
            for array in (kinds, offsets, indices, var_slot, levels)
        )
        size = kinds.size
        self.size = size

        # Renumber: variables, constants, then level by level, block by
        # block — one stable lexsort; ties keep topological order, exactly
        # like the historical per-gate bucketing.
        lengths = offsets[1:] - offsets[:-1]
        var_positions = _np.flatnonzero(kinds == K_VAR)
        const_positions = _np.flatnonzero(
            (kinds == K_TRUE) | (kinds == K_FALSE)
        )
        op_positions = _np.flatnonzero(kinds >= K_NOT)
        order = _np.lexsort(
            (lengths[op_positions], kinds[op_positions], depth[op_positions])
        )
        sorted_ops = op_positions[order]
        n_vars = var_positions.size
        n_consts = const_positions.size
        leaf_rows = n_vars + n_consts
        row_of = _np.empty(size, dtype=_np.intp)
        row_of[var_positions] = _np.arange(n_vars)
        row_of[const_positions] = n_vars + _np.arange(n_consts)
        row_of[sorted_ops] = leaf_rows + _np.arange(sorted_ops.size)
        self.row_of = row_of
        self.var_slots = var_slot[var_positions].astype(_np.intp)
        self.const_rows = (int(n_vars), int(leaf_rows))
        self.const_values = kinds[const_positions] == K_TRUE
        self.identity_rows = (size, size + 1)
        self.output_row = int(row_of[output])
        n_ops = sorted_ops.size
        if not n_ops:
            self.levels = ()
            return

        op_depth = depth[sorted_ops]
        op_kind = kinds[sorted_ops]
        op_fan = lengths[sorted_ops]
        starts = _group_starts(op_depth, op_kind, op_fan)
        ends = _np.append(starts[1:], n_ops)
        fans = op_fan[ends - 1]  # the widest: blocks ascend in fan-in
        group_kind = op_kind[starts]
        gathers = _group_gathers(
            row_of, indices, offsets[sorted_ops], op_fan, starts, ends, fans,
            _np.where(group_kind == K_OR, size + 1, size),
        )
        buckets: list[list[tuple]] = [[] for _ in range(int(op_depth[-1]))]
        for level, kind, fan_in, start, end, gather in zip(
            op_depth[starts].tolist(), group_kind.tolist(), fans.tolist(),
            starts.tolist(), ends.tolist(), gathers,
        ):
            buckets[level - 1].append((
                kind, fan_in, (leaf_rows + start, leaf_rows + end),
                gather[0] if kind == K_NOT else gather,
            ))
        self.levels = tuple(tuple(ops) for ops in buckets)

    def _evaluate(self, values, negate, one, binary, reduce, identity) -> None:
        """Run every step over a value buffer whose leaf rows are filled.

        ``negate(one, block, out)`` evaluates NOT; ``binary[kind]`` a
        fan-in-2 group; ``reduce[kind]`` any other fan-in, starting from
        ``identity[kind]`` — one op list for the float and Boolean passes.
        """
        take = values.take
        for level in self.levels:
            for kind, fan_in, (start, end), gather in level:
                block = take(gather, 0)
                if kind == K_NOT:
                    negate(one, block, values[start:end])
                elif fan_in == 2:
                    binary[kind](block[0], block[1], values[start:end])
                else:
                    reduce[kind](
                        block, 0, None, values[start:end], False, identity[kind]
                    )
                # Free the stack before the next take allocates one, so the
                # pass never holds two (on a big plan each is megabytes).
                del block

    def run(self, matrix, as_float: bool):
        """One level-scheduled pass over a ``(n_rows, n_vars)`` matrix.

        ``matrix`` holds one row per world (bool) or per marginal vector
        (float64), columns indexed by variable slot. Returns the output
        values as a 1-D array, one entry per input row: bool for worlds,
        float64 for marginals. Worlds are packed into the bit-sliced word
        buffer (:meth:`run_words`); marginals fill a ``(size + 2, n_rows)``
        float64 buffer. Either way each group costs one ``take`` plus one
        ufunc call. This is the kernel the sharded workers of
        :mod:`repro.circuits.parallel` execute after building the plan
        from the shared arrays.
        """
        n_rows = matrix.shape[0]
        n_vars = self.var_slots.size
        if not as_float:
            values = self.word_buffer(n_rows)
            if n_vars:
                planes = _np.packbits(
                    matrix.T[self.var_slots], axis=1, bitorder="little"
                )
                values[:n_vars].view(_np.uint8)[:, : planes.shape[1]] = planes
            self.run_words(values)
            return self.output_bits(values, n_rows)
        if n_rows == 1:
            # A single-column value buffer makes numpy's reduce kernels
            # pick a different inner loop than wider batches do (pairwise
            # summation, a few ulps of drift on wide ORs), while batches of
            # two or more rows are bitwise identical to each other.
            # Evaluate the row as a width-2 pass (a zero-copy broadcast
            # view) so every batch shape shares one reduction order, and
            # keep element 0.
            widened = _np.broadcast_to(matrix, (2, matrix.shape[1]))
            return self.run(widened, as_float)[:1].copy()
        values = _np.empty((self.size + 2, n_rows), dtype=_np.float64)
        if n_vars:
            values[:n_vars] = matrix.T[self.var_slots]
        const_start, const_end = self.const_rows
        if const_end > const_start:
            values[const_start:const_end] = self.const_values[:, None]
        values[self.size] = 1.0
        values[self.size + 1] = -0.0
        self._evaluate(values, *_FLOAT_PASS)
        return values[self.output_row].copy()

    def chunk_rows(self, as_float: bool) -> int:
        """Rows per pass so the value buffer stays under the byte budget.

        Both passes spend 8 bytes per row of the buffer per unit of width —
        a float64 per marginal row, a ``uint64`` word per 64 worlds — so
        Boolean chunks are whole words.
        """
        units = max(1, BATCH_BYTE_BUDGET // (8 * (self.size + 2)))
        return units if as_float else 64 * units

    def run_into(self, matrix, out, as_float: bool) -> None:
        """Run :meth:`run` into ``out`` in :meth:`chunk_rows` slices.

        The gate-major value buffer stays under :data:`BATCH_BYTE_BUDGET`
        bytes regardless of the batch size; ``out`` must be a 1-D array
        with one entry per matrix row.
        """
        step = self.chunk_rows(as_float)
        for start in range(0, matrix.shape[0], step):
            out[start : start + step] = self.run(matrix[start : start + step], as_float)

    def word_buffer(self, rows: int):
        """A ``(size + 2, ceil(rows / 64))`` uint64 value buffer, leaves set.

        Constants and the two identity rows are filled. The first
        ``var_slots.size`` rows belong to the variables, row ``i`` to slot
        ``var_slots[i]``; the caller fills them — byte ``k`` of a row
        (through a ``uint8`` view) holds worlds ``8k .. 8k+7``, world
        ``8k + j`` in bit ``j`` — and then calls :meth:`run_words`.
        """
        values = _np.empty((self.size + 2, -(-rows // 64)), dtype=_np.uint64)
        const_start, const_end = self.const_rows
        if const_end > const_start:
            values[const_start:const_end] = _np.where(
                self.const_values, _ALL_ONES, _np.uint64(0)
            )[:, None]
        values[self.size] = _ALL_ONES
        values[self.size + 1] = 0
        return values

    def run_words(self, values) -> None:
        """Evaluate every operator row of a filled :meth:`word_buffer`."""
        self._evaluate(values, *_WORD_PASS)

    def output_bits(self, values, rows: int):
        """The output row's first ``rows`` bits, as a bool array.

        Only these bits are worlds; the rest of the last word is padding.
        """
        row = values[self.output_row].view(_np.uint8)
        return _np.unpackbits(row, count=rows, bitorder="little").view(_np.bool_)


_ALL_ONES = ~_np.uint64(0)

#: The ufuncs of the two passes, as :meth:`_BatchPlan._evaluate` takes
#: them: NOT as ``negate(one, x)``, then per gate kind the fan-in-2 ufunc,
#: the reduction, and the identity it starts from (which makes a float OR
#: keep -0.0, where ``np.add.reduce`` alone would start from +0.0).
_FLOAT_PASS = (
    _np.subtract, 1.0,
    {K_AND: _np.multiply, K_OR: _np.add},
    {K_AND: _np.multiply.reduce, K_OR: _np.add.reduce},
    {K_AND: 1.0, K_OR: -0.0},
)
_WORD_PASS = (
    _np.bitwise_xor, _ALL_ONES,
    {K_AND: _np.bitwise_and, K_OR: _np.bitwise_or},
    {K_AND: _np.bitwise_and.reduce, K_OR: _np.bitwise_or.reduce},
    {K_AND: _ALL_ONES, K_OR: _np.uint64(0)},
)


class CompiledCircuit:
    """An immutable, flat, topologically-sorted lowering of a :class:`Circuit`.

    Positions ``0 .. size-1`` enumerate the gates reachable from the output
    in topological order; ``output`` is the position of the output gate.
    Construct through :func:`compile_circuit`, which caches the compiled
    form on the source circuit.
    """

    __slots__ = (
        "source",
        "size",
        "_kinds",
        "_offsets",
        "_indices",
        "_var_slot",
        "var_names",
        "output",
        "_gate_ids",
        "_position_of",
        "_levels32",
        "_np32",
        "_binarized",
        "_decompositions",
        "_batch_plan",
        "_shared_plan",
        "_wire_cache",
        "_wire_digest",
        "__weakref__",
    )

    def __init__(self, circuit: Circuit):
        check(circuit.output is not None, "circuit has no output gate")
        # The CSR lists; ``None`` means "materialize from _np32 on demand"
        # (the array lowering never pays ``tolist`` unless a scalar
        # consumer actually asks for the lists).
        self._kinds = None
        self._offsets = None
        self._indices = None
        self._var_slot = None
        self._position_of = None
        self._np32 = None  # (kinds, offsets, indices, var_slot) as int32
        self._binarized: CompiledCircuit | None = None
        self._decompositions: dict[str, object] = {}
        self._batch_plan = _UNBUILT
        self._shared_plan = None  # lazily published by repro.circuits.parallel
        self._wire_cache = None  # lazily packed by repro.circuits.distributed
        self._wire_digest = None  # content digest of _wire_cache, cached with it
        self.source = circuit
        # Either lowering sets ``_gate_ids`` (a tuple, or an int64 array
        # from the array path) and ``_levels32``, the gate_levels schedule.
        if len(circuit) >= VECTOR_MIN_GATES:
            self._lower_vector(circuit)
        else:
            self._lower_python(circuit)
        _STATS["lowerings"] += 1

    def _lower_python(self, circuit: Circuit) -> None:
        """The reference per-gate lowering, for arenas of few gates.

        Reads the arena's flat mirrors, so fact-id variables stay unnamed,
        and gathers the level schedule from the arena's levels.
        """
        gate_ids = circuit.reachable_from_output()
        self._gate_ids = tuple(gate_ids)
        position_of: dict[int, int] = {gid: pos for pos, gid in enumerate(gate_ids)}
        self._position_of = position_of
        self.size = len(gate_ids)
        codes = circuit._kind_codes
        arena_slots = circuit._var_slots
        flat = circuit._inputs_flat
        arena_offsets = circuit._input_offsets
        kinds: list[int] = []
        offsets: list[int] = [0]
        indices: list[int] = []
        var_slot: list[int] = []
        rank: dict[int, int] = {}  # arena slot → compiled slot
        for gid in gate_ids:
            kind = codes[gid]
            slot = -1
            if kind == K_VAR:
                slot = rank.setdefault(arena_slots[gid], len(rank))
            kinds.append(kind)
            var_slot.append(slot)
            indices.extend(
                position_of[i]
                for i in flat[arena_offsets[gid] : arena_offsets[gid + 1]]
            )
            offsets.append(len(indices))
        self._kinds = kinds
        self._offsets = offsets
        self._indices = indices
        self._var_slot = var_slot
        self.var_names = _names_of_slots(circuit._slot_names, list(rank))
        self.output = position_of[circuit.output]  # type: ignore[index]
        levels = circuit._gate_levels
        self._levels32 = _np.array([levels[gid] for gid in gate_ids], _np.int32)

    def _lower_vector(self, circuit: Circuit) -> None:
        """Array-pass lowering over the arena's flat mirrors (numpy).

        Reachability by *peeling*: inputs precede their gates, so gates
        above the output are unreachable, and a gate at or below it is
        unreachable exactly when no reachable gate consumes it. Each gate's
        consumers are counted once; then the consumer-less gates are
        removed round by round, each round decrementing the counts of the
        removed gates' inputs, until no count reaches zero. The rounds
        number the depth of the deepest *unreachable* cone, not of the
        circuit, and each costs array work in proportion to the gates it
        removes. Topological order is gate-id order (creation order), CSR
        remapping is one boolean edge mask plus an inverse-permutation
        gather, variable interning is a rank map over the arena's (already
        first-occurrence ordered) slot numbers, and the level schedule is
        one gather from the arena's levels. Produces exactly the arrays of
        :meth:`_lower_python`.
        """
        out = circuit.output
        aoffsets = _np.frombuffer(circuit._input_offsets, dtype=_np.int32)[
            : out + 2
        ]
        edges = int(aoffsets[-1])
        ainputs = (
            _np.frombuffer(circuit._inputs_flat, dtype=_np.int32)[:edges]
            if edges
            else _np.empty(0, dtype=_np.int32)
        )
        lengths = aoffsets[1:] - aoffsets[:-1]
        consumers = _np.bincount(ainputs, minlength=out + 1)
        consumers[out] = 1  # the caller's read keeps the output
        reach = _np.ones(out + 1, dtype=_np.bool_)
        dead = _np.flatnonzero(consumers == 0)
        while dead.size:
            reach[dead] = False
            counts = lengths[dead]
            cum = _np.cumsum(counts)
            total = int(cum[-1])
            if total == 0:
                break
            starts = _np.repeat(aoffsets[dead] - cum + counts, counts)
            inputs = ainputs[starts + _np.arange(total)]
            inputs, hits = _np.unique(inputs, return_counts=True)
            consumers[inputs] -= hits
            dead = inputs[consumers[inputs] == 0]
        gate_ids = _np.flatnonzero(reach)
        size = int(gate_ids.size)
        pos_of = _np.zeros(out + 1, dtype=_np.int32)
        pos_of[gate_ids] = _np.arange(size, dtype=_np.int32)
        kinds32 = _np.frombuffer(circuit._kind_codes, dtype=_np.int8)[
            gate_ids
        ].astype(_np.int32)
        offsets32 = _np.zeros(size + 1, dtype=_np.int32)
        _np.cumsum(lengths[gate_ids], out=offsets32[1:])
        indices32 = pos_of[ainputs[_np.repeat(reach, lengths)]]
        var_mask = kinds32 == K_VAR
        # Increasing: a slot is allocated when its VAR gate is created.
        arena_slots = _np.frombuffer(circuit._var_slots, dtype=_np.int32)[
            gate_ids[var_mask]
        ]
        slot_rank = _np.full(len(circuit._slot_names), -1, dtype=_np.int32)
        slot_rank[arena_slots] = _np.arange(arena_slots.size, dtype=_np.int32)
        var_slot32 = _np.full(size, -1, dtype=_np.int32)
        var_slot32[var_mask] = slot_rank[arena_slots]
        self.size = size
        # The lists stay unmaterialized (the properties build them from
        # ``_np32`` if a scalar consumer asks).
        self.var_names = _names_of_slots(circuit._slot_names, arena_slots)
        self.output = int(pos_of[out])
        self._gate_ids = gate_ids
        self._np32 = (kinds32, offsets32, indices32, var_slot32)
        self._levels32 = _np.frombuffer(
            circuit._gate_levels, dtype=_np.int32
        )[gate_ids]

    # ------------------------------------------------------------------ #
    # inspection

    @property
    def kinds(self) -> list[int]:
        """Gate kind codes by position (list, materialized on demand)."""
        value = self._kinds
        if value is None:
            value = self._kinds = self._np32[0].tolist()
        return value

    @property
    def offsets(self) -> list[int]:
        """CSR input offsets, one past the last gate (materialized lazily)."""
        value = self._offsets
        if value is None:
            value = self._offsets = self._np32[1].tolist()
        return value

    @property
    def indices(self) -> list[int]:
        """CSR input positions, flat (materialized lazily)."""
        value = self._indices
        if value is None:
            value = self._indices = self._np32[2].tolist()
        return value

    @property
    def var_slot(self) -> list[int]:
        """Variable slot per position, ``-1`` off VAR gates (lazy)."""
        value = self._var_slot
        if value is None:
            value = self._var_slot = self._np32[3].tolist()
        return value

    @property
    def gate_ids(self) -> tuple[int, ...]:
        """Arena gate ids by compiled position (ascending), built lazily."""
        ids = self._gate_ids
        if type(ids) is not tuple:
            ids = self._gate_ids = tuple(ids.tolist())
        return ids

    @property
    def position_of(self) -> dict[int, int]:
        """Arena gate id → compiled position, built lazily."""
        mapping = self._position_of
        if mapping is None:
            mapping = self._position_of = {
                gid: pos for pos, gid in enumerate(self.gate_ids)
            }
        return mapping

    def levels_array(self):
        """The :func:`gate_levels` schedule of this lowering, an int32 array.

        Both lowerings gather it from the arena's levels; the batch plan,
        the wire encoding and the shared-memory segment read it.
        """
        return self._levels32

    def levels_list(self) -> list[int]:
        """:meth:`levels_array` as a list."""
        return self._levels32.tolist()

    def _int32_arrays(self):
        """``(kinds, offsets, indices, var_slot)`` as int32 arrays, built once.

        The array lowering produces them directly; the per-gate one builds
        them from its lists on first use.
        """
        if self._np32 is None:
            self._np32 = tuple(
                _np.asarray(values, dtype=_np.int32)
                for values in (
                    self._kinds, self._offsets, self._indices, self._var_slot
                )
            )
        return self._np32

    def variables(self) -> Sequence[str]:
        """Variable names in slot order (first topological occurrence).

        A tuple, or for fact-id variables a lazy :class:`FactNames` view
        that compares equal to the tuple of names.
        """
        return self.var_names

    def inputs_of(self, position: int) -> list[int]:
        """Input positions of the gate at ``position``."""
        return self.indices[self.offsets[position] : self.offsets[position + 1]]

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"CompiledCircuit(gates={self.size}, variables={len(self.var_names)},"
            f" output={self.output})"
        )

    # ------------------------------------------------------------------ #
    # valuation plumbing

    def slot_values(self, valuation) -> Sequence:
        """Normalize a valuation to a sequence of truth values by var slot.

        Accepts a mapping from variable name to bool (extra names are
        ignored, missing names raise) or a sequence already indexed by slot.
        """
        if isinstance(valuation, Mapping):
            values = []
            for name in self.var_names:
                if name not in valuation:
                    raise ReproError(f"valuation is missing variable {name!r}")
                values.append(1 if valuation[name] else 0)
            return values
        check(
            len(valuation) == len(self.var_names),
            f"valuation has {len(valuation)} entries for {len(self.var_names)} variables",
        )
        return valuation

    def slot_marginals(self, marginals) -> Sequence[float]:
        """Normalize marginals to a float sequence by var slot.

        Accepts an :class:`repro.events.EventSpace`, a mapping from variable
        name to probability, or a sequence indexed by slot. Anything else —
        including another circuit passed by mistake — is rejected with a
        clear error instead of being duck-typed on a ``probability``
        attribute. When the variables are fact ids and the space holds the
        probabilities of the same id space (:meth:`EventSpace.of_facts`),
        the marginals are one gather from its column, as a float64 array;
        every other case looks each variable up by name.
        """
        from repro.events import EventSpace

        if isinstance(marginals, EventSpace):
            names = self.var_names
            probs = marginals.fact_probs
            if (
                isinstance(names, FactNames)
                and names.id_space is marginals.id_space
                and (not names.fids.size or int(names.fids.max()) < len(probs))
            ):
                return probs[names.fids]
            probability = marginals.probability
            return [probability(name) for name in names]
        if isinstance(marginals, Mapping):
            missing = [n for n in self.var_names if n not in marginals]
            check(not missing, f"marginals are missing variables {missing!r}")
            return [float(marginals[name]) for name in self.var_names]
        if hasattr(marginals, "__len__") and hasattr(marginals, "__getitem__"):
            check(
                len(marginals) == len(self.var_names),
                f"marginals have {len(marginals)} entries for "
                f"{len(self.var_names)} variables",
            )
            return marginals
        raise ReproError(
            f"unsupported marginals type {type(marginals).__name__}; expected an "
            "EventSpace, a name→probability mapping, or a slot-indexed sequence"
        )

    # ------------------------------------------------------------------ #
    # level-scheduled numpy batch kernels (third lowering stage)

    def batch_plan(self) -> _BatchPlan:
        """The level-scheduled numpy plan, built once."""
        if self._batch_plan is _UNBUILT:
            self._batch_plan = _BatchPlan(
                *self._int32_arrays(), self._levels32, self.output
            )
        return self._batch_plan

    def wire_bytes(self) -> bytes:
        """This circuit's plan in the versioned wire format, packed once.

        The stage-5 export hook: the blob
        (:func:`repro.circuits.distributed.plan_to_bytes`) carries the int32
        CSR buffers, the level schedule and the plan metadata, and round-trips
        through :func:`repro.circuits.distributed.plan_from_bytes` on any
        host.
        """
        from repro.circuits import distributed

        return distributed.plan_to_bytes(self)

    def plan_digest(self) -> str:
        """Content digest of :meth:`wire_bytes`, computed once per circuit.

        The identity the distributed runtime keys its caches on: workers
        cache decoded plans by it and the coordinator's ``PLAN_OFFER``
        handshake sends it instead of the plan, so a plan crosses the wire
        at most once per worker per circuit.
        """
        if self._wire_digest is None:
            from repro.circuits import distributed

            self._wire_digest = distributed.plan_checksum(self.wire_bytes())
        return self._wire_digest

    def _maybe_sharded(self, matrix, as_float: bool):
        """Route a big batch to distributed hosts or the worker pool.

        The knob ladder, top down: distributed hosts (stage 5) when the
        ``distributed_hosts`` knob names workers and the batch is large
        enough; the multi-process pool (stage 4) when ``parallel_workers``
        says so; otherwise ``None`` — the caller's in-process kernels.
        Either backend failing falls through to the next tier (warned once
        per process) rather than losing the batch.
        """
        from repro.circuits import distributed, parallel

        n_rows = matrix.shape[0]
        if distributed.should_distribute(n_rows):
            try:
                return distributed._distributed_matrix_pass(
                    self, matrix, as_float, None
                )
            except (ReproError, OSError):
                parallel.warn_serial_fallback(
                    "distributed batch evaluation failed; falling back to "
                    "the local execution tiers"
                )
        if not parallel.should_shard(n_rows):
            return None
        try:
            return parallel._sharded_matrix_pass(self, matrix, as_float, None)
        except (ReproError, OSError):
            # OSError covers shared-memory allocation (ENOSPC on a small
            # /dev/shm) and process-spawn failures; the in-process kernels
            # below need neither.
            parallel.warn_serial_fallback(
                "sharded batch evaluation failed; falling back to the "
                "single-process kernels"
            )
            return None

    def _as_world_matrix(self, valuations):
        """Normalize worlds to a ``(n_worlds, n_vars)`` bool matrix.

        Accepts a 2-D numpy array of truth values in slot order (any dtype
        with a sensible truthiness: ``bool``, 0/1 ints, ``np.bool_``) or an
        iterable of per-world valuations as taken by :meth:`evaluate`. Rows
        are copied as they are drawn, so generators that refill one shared
        row buffer are safe.
        """
        n_vars = len(self.var_names)
        if isinstance(valuations, _np.ndarray) and valuations.ndim == 2:
            check(
                valuations.shape[1] == n_vars,
                f"world matrix has {valuations.shape[1]} columns for "
                f"{n_vars} variables",
            )
            return valuations.astype(_np.bool_, copy=False)
        rows = [tuple(self.slot_values(v)) for v in valuations]
        if not rows:
            return _np.empty((0, n_vars), dtype=_np.bool_)
        return _np.asarray(rows, dtype=_np.bool_)

    # ------------------------------------------------------------------ #
    # Boolean evaluation

    def evaluate(self, valuation) -> bool:
        """Evaluate the output gate under one valuation.

        One bottom-up pass over the flat arrays; an AND or OR stops at its
        first deciding input.
        """
        slot_values = self.slot_values(valuation)
        kinds = self.kinds
        offsets = self.offsets
        indices = self.indices
        var_slot = self.var_slot
        values = bytearray(self.size)
        for pos in range(self.size):
            kind = kinds[pos]
            if kind == K_VAR:
                value = 1 if slot_values[var_slot[pos]] else 0
            elif kind == K_AND:
                value = 1
                for j in range(offsets[pos], offsets[pos + 1]):
                    if not values[indices[j]]:
                        value = 0
                        break
            elif kind == K_OR:
                value = 0
                for j in range(offsets[pos], offsets[pos + 1]):
                    if values[indices[j]]:
                        value = 1
                        break
            elif kind == K_NOT:
                value = 1 - values[indices[offsets[pos]]]
            else:
                value = kind  # K_TRUE == 1, K_FALSE == 0
            values[pos] = value
        return bool(values[self.output])

    def evaluate_batch(self, valuations: Iterable) -> list[bool]:
        """Evaluate many valuations at once; returns one boolean per world.

        ``valuations`` is an iterable of valuations as accepted by
        :meth:`evaluate`, or a ``(n_worlds, n_vars)`` numpy matrix in slot
        order. The whole batch runs through the level-scheduled vectorized
        kernels (:meth:`batch_plan`), chunked to bound memory — and
        row-sharded across the worker processes of
        :mod:`repro.circuits.parallel` when the ``parallel_workers`` knob
        is set and the batch is big enough, with identical results.
        """
        matrix = self._as_world_matrix(valuations)
        n_worlds = matrix.shape[0]
        if n_worlds == 0:
            return []
        _BATCH_STATS["evaluate_passes"] += 1
        _BATCH_STATS["evaluate_rows"] += n_worlds
        sharded = self._maybe_sharded(matrix, as_float=False)
        if sharded is not None:
            return sharded.tolist()
        out = _np.empty(n_worlds, dtype=_np.bool_)
        self.batch_plan().run_into(matrix, out, as_float=False)
        return out.tolist()

    # ------------------------------------------------------------------ #
    # probability fast paths

    def probability(self, marginals) -> float:
        """Linear-time probability for deterministic decomposable circuits.

        One bottom-up float pass: ``P(OR) = Σ``, ``P(AND) = Π``,
        ``P(NOT) = 1 − P``, each sum and product taken left to right like
        :meth:`probability_batch`'s, so both give the same bits. Correct
        only on d-D circuits over independent variables (Theorem 1); use
        the ``message_passing`` engine otherwise.
        """
        probs = self.slot_marginals(marginals)
        kinds = self.kinds
        offsets = self.offsets
        indices = self.indices
        var_slot = self.var_slot
        values = [0.0] * self.size
        for pos in range(self.size):
            kind = kinds[pos]
            if kind == K_VAR:
                value = probs[var_slot[pos]]
            elif kind == K_AND:
                value = 1.0
                for j in range(offsets[pos], offsets[pos + 1]):
                    value *= values[indices[j]]
            elif kind == K_OR:
                value = -0.0  # adds nothing: 0.0 would turn a -0.0 sum into +0.0
                for j in range(offsets[pos], offsets[pos + 1]):
                    value += values[indices[j]]
            elif kind == K_NOT:
                value = 1.0 - values[indices[offsets[pos]]]
            else:
                value = float(kind)  # K_TRUE == 1, K_FALSE == 0
            values[pos] = value
        # A lone VAR output is the marginal as given (an int, a numpy float).
        return float(values[self.output])

    def probability_batch(self, marginals_batch) -> list[float]:
        """The d-D probability pass of :meth:`probability`, over many rows.

        ``marginals_batch`` is an iterable of marginal assignments as
        accepted by :meth:`probability` (event spaces, mappings, slot
        sequences), or a ``(n_rows, n_vars)`` float matrix in slot order.
        All rows share one level-scheduled float pass (grouped
        ``np.multiply`` at AND, ``np.add`` at OR, left to right),
        row-sharded across worker processes for big batches when the
        ``parallel_workers`` knob is set. Like :meth:`probability`, correct
        only on deterministic decomposable circuits over independent
        variables.
        """
        n_vars = len(self.var_names)
        if isinstance(marginals_batch, _np.ndarray) and marginals_batch.ndim == 2:
            check(
                marginals_batch.shape[1] == n_vars,
                f"marginal matrix has {marginals_batch.shape[1]} columns for "
                f"{n_vars} variables",
            )
            matrix = marginals_batch.astype(_np.float64, copy=False)
        else:
            rows = [tuple(self.slot_marginals(row)) for row in marginals_batch]
            if not rows:
                return []
            matrix = _np.asarray(rows, dtype=_np.float64)
        _BATCH_STATS["probability_passes"] += 1
        _BATCH_STATS["probability_rows"] += matrix.shape[0]
        sharded = self._maybe_sharded(matrix, as_float=True)
        if sharded is not None:
            return sharded.tolist()
        out = _np.empty(matrix.shape[0], dtype=_np.float64)
        self.batch_plan().run_into(matrix, out, as_float=True)
        return out.tolist()

    def probability_enumerate(
        self, marginals, max_vars: int = ENUMERATION_VARIABLE_CAP
    ) -> float:
        """Exact probability by enumerating all variable valuations.

        The ``2^n`` worlds are unpacked from bitmask ranges into world
        matrices and evaluated through the batch kernels, chunk by chunk.
        Exponential; capped at ``max_vars`` (default
        :data:`ENUMERATION_VARIABLE_CAP`) variables.
        """
        n = len(self.var_names)
        if n > max_vars:
            raise ReproError(
                f"enumeration oracle limited to {max_vars} variables "
                f"(circuit has {n}; 2^{n} worlds); use the 'shannon' or "
                "'message_passing' engine instead"
            )
        probs = _np.asarray(self.slot_marginals(marginals), dtype=_np.float64)
        plan = self.batch_plan()
        world_count = 1 << n
        # The world matrix below costs 8 bytes per cell while it is built,
        # so it gets the byte budget too, not only the value buffer.
        step = min(
            world_count,
            plan.chunk_rows(as_float=False),
            max(1, BATCH_BYTE_BUDGET // (8 * max(1, n))),
        )
        bits = _np.arange(n, dtype=_np.uint64)
        total = 0.0
        for start in range(0, world_count, step):
            masks = _np.arange(
                start, min(start + step, world_count), dtype=_np.uint64
            )
            worlds = ((masks[:, None] >> bits) & 1).astype(_np.bool_)
            satisfied = plan.run(worlds, False)
            if satisfied.any():
                weights = _np.where(worlds[satisfied], probs, 1.0 - probs)
                total += float(weights.prod(axis=1).sum())
        return total

    # ------------------------------------------------------------------ #
    # semiring evaluation

    def evaluate_semiring(self, semiring, annotate) -> object:
        """Fold the circuit in a semiring: ``⊕`` at OR, ``⊗`` at AND.

        ``annotate`` maps a variable *name* to its semiring element.
        Negation is rejected — provenance is defined for monotone circuits.
        """
        kinds = self.kinds
        values: list[object] = [None] * self.size
        for pos in range(self.size):
            kind = kinds[pos]
            if kind == K_VAR:
                values[pos] = annotate(self.var_names[self.var_slot[pos]])
            elif kind == K_AND:
                values[pos] = semiring.multiply_all(
                    values[i] for i in self.inputs_of(pos)
                )
            elif kind == K_OR:
                values[pos] = semiring.add_all(values[i] for i in self.inputs_of(pos))
            elif kind == K_NOT:
                raise ReproError("provenance circuits must be monotone (no NOT gates)")
            else:
                values[pos] = semiring.one() if kind == K_TRUE else semiring.zero()
        return values[self.output]

    # ------------------------------------------------------------------ #
    # cached structure for the message-passing engine

    def binarized(self) -> "CompiledCircuit":
        """The compiled form of the fan-in-≤2 rewrite, built once.

        Always lowers ``source.binarized()`` — even when the source is
        already binary — so the compiled positions stay aligned with the
        densely renumbered arena that external decompositions (built over
        ``circuit.binarized()`` gate ids) refer to.
        """
        if self._binarized is None:
            self._binarized = compile_circuit(self.source.binarized())
        return self._binarized

    def moral_graph(self):
        """Moral graph over compiled positions (gate–input cliques)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.size))
        for pos in range(self.size):
            inputs = self.inputs_of(pos)
            for child in inputs:
                graph.add_edge(pos, child)
            for i, a in enumerate(inputs):
                for b in inputs[i + 1 :]:
                    graph.add_edge(a, b)
        return graph

    def decomposition(self, heuristic: str = "min_fill"):
        """A tree decomposition of the moral graph, cached per heuristic."""
        cached = self._decompositions.get(heuristic)
        if cached is None:
            from repro.treewidth import decompose

            cached = decompose(self.moral_graph(), heuristic)
            self._decompositions[heuristic] = cached
        return cached


def _names_of_slots(slot_names, arena_slots):
    """``var_names`` for these arena slots: a tuple, or a fact-id view."""
    if isinstance(slot_names, FactNames):
        return slot_names.take(arena_slots)
    if hasattr(arena_slots, "tolist"):
        arena_slots = arena_slots.tolist()
    return tuple(slot_names[s] for s in arena_slots)


#: Entries kept in the per-arena ``(version, output)`` compile memo; small,
#: because each entry pins a full lowering alive for the arena's lifetime.
ARENA_CACHE_LIMIT = 8


def _arena_memo(circuit: Circuit) -> dict | None:
    """The arena's ``(version, output) -> CompiledCircuit`` memo (LRU)."""
    memo = getattr(circuit, "_compiled_cache", None)
    if not isinstance(memo, dict):
        memo = {}
        try:
            circuit._compiled_cache = memo
        except AttributeError:  # pragma: no cover - exotic circuit subclass
            return None
    return memo


def compile_circuit(circuit: Circuit | CompiledCircuit) -> CompiledCircuit:
    """Lower ``circuit`` to its flat IR, caching the result on the arena.

    Passing an already-compiled circuit returns it unchanged. Compiles are
    memoized per ``(arena version, output)`` — flipping ``set_output``
    between gates returns each output's own lowering, never a stale one,
    and a grown arena is lowered afresh.
    """
    if isinstance(circuit, CompiledCircuit):
        return circuit
    check(circuit.output is not None, "circuit has no output gate")
    key = (circuit.version, circuit.output)
    memo = _arena_memo(circuit)
    if memo is not None:
        hit = memo.get(key)
        if hit is not None:
            _STATS["arena_cache_hits"] += 1
            # Move to the LRU tail so flipping between outputs keeps both.
            del memo[key]
            memo[key] = hit
            return hit
    compiled = CompiledCircuit(circuit)
    if memo is not None:
        memo[key] = compiled
        while len(memo) > ARENA_CACHE_LIMIT:
            memo.pop(next(iter(memo)))
    return compiled
