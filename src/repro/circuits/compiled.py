"""Compile-once/evaluate-many circuit backend: a flat CSR circuit IR.

The hash-consed :class:`repro.circuits.circuit.Circuit` is the right arena
for *building* lineages, but evaluating it repeatedly (per possible world,
per Monte-Carlo sample, per conditioning query) pays per-gate dict lookups
and a fresh valuation dict every time. A :class:`CompiledCircuit` lowers the
gate DAG once, in array passes at any size, into flat, topologically-sorted
``int32`` arrays:

- ``kinds`` — one small int code per gate (``K_FALSE`` … ``K_OR``);
- ``offsets``/``indices`` — gate inputs in CSR form, as *positions* into the
  compiled arrays rather than arena gate ids;
- ``var_slot`` — for variable gates, the index of the interned variable
  name, so a valuation is just a flat sequence of booleans;
- cached variable order, moral graph, tree decompositions (per heuristic)
  and the binarized form, so repeated message-passing runs share all the
  structural preprocessing.

:func:`reference_lowering` is the same lowering gate by gate, kept as the
tests' reference.

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
inputs live in strictly earlier levels. A batch of worlds is a
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

**Distributed execution** is the fifth stage, in
:mod:`repro.circuits.distributed`: :meth:`Plan.wire_bytes` serializes the
plan to a versioned, checksummed wire format, and an asyncio coordinator
streams the same deterministic shards to remote worker processes over
TCP (knob: ``distributed_hosts`` / ``REPRO_DISTRIBUTED_HOSTS``), retrying
on worker loss — again with bit-identical results.

**One plan type.** A :class:`Plan` holds the five int32 arrays stages 3
to 5 read, whether a lowering made them (:attr:`CompiledCircuit.plan`) or
:func:`repro.circuits.distributed.plan_from_bytes` decoded them, and
builds each stage's form of them once: the level plan, the wire bytes
and digest, the shared-memory segment. :meth:`Plan.run` is the one tier
ladder every batch pass takes: a batch of ``parallel.PARALLEL_MIN_ROWS``
rows or more goes to the hosts, then the pool, when the knobs name them,
and everything else runs the in-process kernels; results are
bit-identical on every tier, and a failing tier falls through to the
next with a warning. The full pipeline is documented in
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

#: Process-wide lowering counters: how often a full lowering ran and how
#: many compiles were answered from the arena memo. Read by
#: :func:`compile_stats`; they only count up, so a reader takes deltas.
_STATS = {
    "lowerings": 0,
    "arena_cache_hits": 0,
}


def compile_stats() -> dict:
    """A snapshot of the process-wide compile counters."""
    return dict(_STATS)


#: Process-wide batch-execution counters: how many matrix passes the tier
#: ladder (:meth:`Plan.run`) ran and how many rows they covered. The query
#: service's tests read these to prove coalescing really merged N requests
#: into one pass; ``/stats`` exposes them for operators. They only count up.
_BATCH_STATS = {
    "probability_passes": 0,
    "probability_rows": 0,
    "evaluate_passes": 0,
    "evaluate_rows": 0,
}


def batch_stats() -> dict:
    """A snapshot of the process-wide batch-pass counters.

    One "pass" is one :meth:`Plan.run` call that evaluates rows, whatever
    execution tier it lands on: a :meth:`CompiledCircuit.probability_batch`
    or :meth:`CompiledCircuit.evaluate_batch` call, a served pass, or a
    sharded or distributed entry point's. "rows" counts the matrix rows
    those passes covered. A call with no rows runs no kernel and counts
    no pass.
    """
    return dict(_BATCH_STATS)


def gate_levels(kinds, offsets, indices) -> list[int]:
    """Per-gate level of the schedule: inputs live in strictly lower levels.

    Variables and constants sit at level 0; every other gate one past its
    deepest input. This is the schedule :class:`_BatchPlan` groups by and
    the one :mod:`repro.circuits.distributed` ships in the wire format.
    The lowering gathers it from the arena's incrementally maintained
    levels (``Circuit._gate_levels``) and :func:`levels_consistent`
    verifies a shipped one in array passes, so nothing in the package
    runs this loop: it stays as the definition the tests check both
    against.
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
    akinds = _np.asarray(kinds, dtype=_np.int32)
    aoffsets = _np.asarray(offsets, dtype=_np.int64)
    aindices = _np.asarray(indices, dtype=_np.int64)
    alevels = _np.asarray(levels, dtype=_np.int64)
    # Degenerate zero-input op gates sit at level 1 (the ``default=0`` of
    # :func:`gate_levels`); leaves at 0; everything else is checked
    # against its inputs below.
    expected = _np.ones(size, dtype=_np.int64)
    expected[akinds <= K_VAR] = 0
    nonempty = _np.flatnonzero(aoffsets[1:] > aoffsets[:-1])
    if nonempty.size:
        expected[nonempty] = (
            _np.maximum.reduceat(alevels[aindices], aoffsets[nonempty]) + 1
        )
    return bool(_np.array_equal(expected, alevels))


def check_plan_arrays(*, size, kinds, offsets, indices, var_slot, n_vars,
                      output) -> None:
    """Structural validation of one flat CSR lowering; raises on damage.

    The gatekeeper for plans that arrive from outside this process over
    the wire format (and the service's ``/plans``): consistent lengths, an
    in-range output, monotone offsets, known gate kinds, leaf gates without
    inputs, in-range variable slots, and strictly topological input
    references (every input position below its gate's), each one array
    pass.
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


#: Widest fan-in a fold may give a gate (:func:`_fold_chains`). The served
#: chain lineage needs 4; uncapped, a prefix chain whose every prefix is
#: read elsewhere would give its gates quadratically many inputs.
FOLD_CAP = 8


def _fold_chains(kinds, offsets, indices, depth, output):
    """The level plan's operators after folding same-kind AND/OR chains.

    An AND/OR gate whose input 0 or 1 is a gate of its own kind (its
    *head*) reads the head's folded inputs in the head's place, followed
    by its other inputs in order, unless that would give it more than
    :data:`FOLD_CAP` inputs (input 0 is tried first). Both passes stay
    exact: a float reduce runs left to right from its identity, so
    ``op(h, x1, x2, ...)`` and the folded ``op(*h's inputs, x1, x2, ...)``
    take the same steps, and a head at input 1 only swaps the first step's
    operands, which commute exactly; word AND/OR are associative. A head
    at input 2 or later would reorder the sum, and NOT never folds. A
    gate that no kept gate reads any more (every reader folded it) is
    dropped, and the kept gates are scheduled by the depth of the folded
    DAG.

    Returns ``(positions, starts, fans, depths, indices)``: the kept
    operators in topological order, their CSR segments into ``indices``
    and their depths. Without a fold candidate among the operators at
    level 2 or above (the only ones that can read an operator) these are
    the given arrays, after one vectorized test.
    """
    lengths = offsets[1:] - offsets[:-1]
    ops = _np.flatnonzero(kinds >= K_NOT)
    op_depths = depth[ops]
    gates = ops[op_depths >= 2]  # fan-in >= 1: they read a level 1
    gates = gates[kinds[gates] >= K_AND]
    fan = lengths[gates]
    first = offsets[gates]
    kind = kinds[gates]
    head0 = indices[first]
    head1 = indices[first + (fan >= 2)]
    same0 = kinds[head0] == kind
    same1 = (fan >= 2) & (kinds[head1] == kind)
    candidate = same0 | same1
    if not candidate.any():
        return ops, offsets[ops], lengths[ops], op_depths, indices

    # Which head each candidate folds, in topological order: a head's
    # folded fan-in is known before any reader of it is decided.
    folded_fan: dict[int, int] = {}
    fan_of = folded_fan.get
    folders: list[int] = []
    slots: list[int] = []
    for gate, width, h0, s0, w0, h1, s1, w1 in zip(
        gates[candidate].tolist(), fan[candidate].tolist(),
        head0[candidate].tolist(), same0[candidate].tolist(),
        lengths[head0[candidate]].tolist(), head1[candidate].tolist(),
        same1[candidate].tolist(), lengths[head1[candidate]].tolist(),
    ):
        if s0:
            total = fan_of(h0, w0) + width - 1
            if total <= FOLD_CAP:
                folded_fan[gate] = total
                folders.append(gate)
                slots.append(0)
                continue
        if s1:
            total = fan_of(h1, w1) + width - 1
            if total <= FOLD_CAP:
                folded_fan[gate] = total
                folders.append(gate)
                slots.append(1)
    size = kinds.size
    folders = _np.array(folders, dtype=_np.intp)
    slots = _np.array(slots, dtype=_np.intp)
    slot_of = _np.full(size, -1, dtype=_np.intp)
    slot_of[folders] = slots
    head_of = _np.full(size, -1, dtype=_np.intp)
    head_of[folders] = indices[offsets[folders] + slots]
    # A gate stays when some reader did not fold it: every input of a
    # dropped head is read by the gates that folded it.
    kept = _np.bincount(indices, minlength=size) > _np.bincount(
        head_of[folders], minlength=size
    )
    kept[output] = True
    ops = _np.flatnonzero(kept & (kinds >= K_NOT))

    # Each kept gate's chain: itself, its head, the head's head, ...
    owner_parts = [_np.arange(ops.size)]
    member_parts = [ops]
    owner, member = owner_parts[0], ops
    while True:
        member = head_of[member]
        live = member >= 0
        if not live.any():
            break
        owner, member = owner[live], member[live]
        owner_parts.append(owner)
        member_parts.append(member)
    # Its folded inputs: the chain's segments, deepest member first; a
    # member's segment is its inputs less the head it folded.
    chain = _np.bincount(_np.concatenate(owner_parts), minlength=ops.size)
    last = _np.cumsum(chain) - 1  # where each kept gate itself goes
    member = _np.empty(int(chain.sum()), dtype=_np.intp)
    for step, (owners, members) in enumerate(zip(owner_parts, member_parts)):
        member[last[owners] - step] = members
    width = lengths[member]
    skip = _np.where(slot_of[member] >= 0, slot_of[member], width)
    segment = width - (skip < width)
    base = _np.cumsum(segment) - segment
    entry = _np.repeat(_np.arange(member.size), width)
    slot = _np.arange(entry.size) - _np.repeat(_np.cumsum(width) - width, width)
    read = slot != skip[entry]
    entry, slot = entry[read], slot[read]
    folded = _np.empty(int(segment.sum()), dtype=indices.dtype)
    folded[base[entry] + slot - (slot > skip[entry])] = indices[
        offsets[member[entry]] + slot
    ]
    fans = _np.add.reduceat(segment, last + 1 - chain)
    starts = _np.cumsum(fans) - fans

    # Depths of the folded DAG, one kept gate at a time; a gate without
    # inputs reads the level-0 entry past the gates.
    levels = [0] * (size + 1)
    level_of = levels.__getitem__
    flat = folded.tolist()
    no_inputs = [size]
    for gate, start, end in zip(
        ops.tolist(), starts.tolist(), (starts + fans).tolist()
    ):
        levels[gate] = 1 + max(map(level_of, flat[start:end] or no_inputs))
    return ops, starts, fans, _np.array(levels, dtype=_np.intp)[ops], folded


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

    First, same-kind AND/OR chains fold into n-ary gates
    (:func:`_fold_chains`): an AND/OR whose input 0 or 1 is a gate of its
    own kind reads that gate's inputs instead, up to :data:`FOLD_CAP`
    inputs, and a gate no kept gate reads any more is dropped. On the
    served chain lineage that halves the levels (478 to 240), and the
    answers stay bit for bit those of the unfolded circuit. Then the kept
    gates are grouped into *levels* of the folded DAG — every gate's
    inputs live in strictly earlier levels — and renumbered into a
    gate-major layout: one value row per gate, variables first, then
    constants, then one contiguous row block per (level, kind, fan-in),
    ascending in fan-in, then the dropped gates' rows, which are never
    written. Two more rows follow the gates, the *identity rows*: TRUE
    (the AND identity) and FALSE (the OR identity). Each step covers
    adjacent blocks of one
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
    ``indices``, ``var_slot``), the unfolded level schedule and the output
    position, which every source carries: a lowering
    (:meth:`CompiledCircuit.batch_plan`), a wire plan, or the shared-memory
    segment of
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

        op_positions, op_starts, op_fans, op_depths, indices = _fold_chains(
            kinds, offsets, indices, depth, output
        )
        # Renumber: variables, constants, then level by level, block by
        # block — one stable lexsort; ties keep topological order. The
        # rows of gates the fold dropped follow, and are never written.
        var_positions = _np.flatnonzero(kinds == K_VAR)
        const_positions = _np.flatnonzero(
            (kinds == K_TRUE) | (kinds == K_FALSE)
        )
        order = _np.lexsort((op_fans, kinds[op_positions], op_depths))
        sorted_ops = op_positions[order]
        n_vars = var_positions.size
        n_consts = const_positions.size
        leaf_rows = n_vars + n_consts
        row_of = _np.empty(size, dtype=_np.intp)
        row_of[var_positions] = _np.arange(n_vars)
        row_of[const_positions] = n_vars + _np.arange(n_consts)
        n_ops = sorted_ops.size
        row_of[sorted_ops] = leaf_rows + _np.arange(n_ops)
        if leaf_rows + n_ops < size:
            unused = kinds >= K_NOT
            unused[op_positions] = False
            row_of[unused] = _np.arange(leaf_rows + n_ops, size)
        self.row_of = row_of
        self.var_slots = var_slot[var_positions].astype(_np.intp)
        self.const_rows = (int(n_vars), int(leaf_rows))
        self.const_values = kinds[const_positions] == K_TRUE
        self.identity_rows = (size, size + 1)
        self.output_row = int(row_of[output])
        if not n_ops:
            self.levels = ()
            return

        op_depth = op_depths[order]
        op_kind = kinds[sorted_ops]
        op_fan = op_fans[order]
        starts = _group_starts(op_depth, op_kind, op_fan)
        ends = _np.append(starts[1:], n_ops)
        fans = op_fan[ends - 1]  # the widest: blocks ascend in fan-in
        group_kind = op_kind[starts]
        gathers = _group_gathers(
            row_of, indices, op_starts[order], op_fan, starts, ends, fans,
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


#: A :class:`Plan`'s int32 arrays, in :class:`_BatchPlan` order: the
#: wire format's sections and the shared-memory segment's arrays.
PLAN_ARRAYS = ("kinds", "offsets", "indices", "var_slot", "levels")


class Plan:
    """The compiled plan: what every execution tier evaluates.

    Five int32 arrays, the CSR lowering (``kinds``, ``offsets``,
    ``indices``, ``var_slot``) and its :func:`gate_levels` schedule
    (``levels``), with the gate count ``size``, the ``output`` position
    and the variable count ``n_vars``. A lowering holds one
    (:attr:`CompiledCircuit.plan`), and
    :func:`repro.circuits.distributed.plan_from_bytes` checks and decodes
    one whose arrays are read-only views over its blob. Whichever made it,
    a plan's passes take one path.

    It builds, once each, what the tiers read from the arrays: the level
    plan (:meth:`batch_plan`), the wire bytes and their digest
    (:meth:`wire_bytes`, :meth:`digest`), and the shared-memory segment
    the process pool reads (:meth:`shared_handle`). :meth:`run` is the
    tier ladder.
    """

    __slots__ = (*PLAN_ARRAYS, "size", "output", "n_vars", "_batch",
                 "_wire", "_digest", "_shared", "__weakref__")

    def __init__(self, kinds, offsets, indices, var_slot, levels,
                 output: int, n_vars: int, wire: bytes | None = None):
        """``wire`` is the blob a decoded plan came from."""
        self.kinds = kinds
        self.offsets = offsets
        self.indices = indices
        self.var_slot = var_slot
        self.levels = levels
        self.size = len(kinds)
        self.output = output
        self.n_vars = n_vars
        self._batch = None
        self._wire = wire
        self._digest = None
        self._shared = None

    def arrays(self) -> tuple:
        """The five int32 arrays, in :data:`PLAN_ARRAYS` order."""
        return (self.kinds, self.offsets, self.indices, self.var_slot,
                self.levels)

    def batch_plan(self) -> _BatchPlan:
        """The level-scheduled numpy plan, built once."""
        if self._batch is None:
            self._batch = _BatchPlan(*self.arrays(), self.output)
        return self._batch

    def wire_bytes(self) -> bytes:
        """The plan in the versioned wire format, packed once.

        The blob (:func:`repro.circuits.distributed.plan_to_bytes`) carries
        the five arrays and the metadata, and round-trips through
        :func:`repro.circuits.distributed.plan_from_bytes` on any host. A
        decoded plan's is the blob it came from.
        """
        if self._wire is None:
            from repro.circuits.distributed import plan_to_bytes

            self._wire = plan_to_bytes(self)
        return self._wire

    def digest(self) -> str:
        """Content digest of :meth:`wire_bytes`, computed once.

        The identity plans are keyed by: workers cache decoded plans by
        it, the coordinator's ``PLAN_OFFER`` handshake sends it instead of
        the plan, so a plan crosses the wire at most once per worker, and
        the service registers a plan under it.
        """
        if self._digest is None:
            from repro.circuits.distributed import plan_checksum

            self._digest = plan_checksum(self.wire_bytes())
        return self._digest

    def shared_handle(self):
        """The arrays in one shared-memory segment, published once.

        :func:`repro.circuits.parallel._plan_handle` publishes it, and the
        pool's workers build their level plans from it. It is unlinked
        when this plan is garbage-collected or the pool shuts down; the
        next call then publishes again.
        """
        handle = self._shared
        if handle is None or handle.closed:
            from repro.circuits.parallel import _plan_handle

            handle = self._shared = _plan_handle(self)
        return handle

    def mc_shard_hits(self, probs, seed: int, index: int, count: int) -> int:
        """Hit count of one deterministic ``(seed, index, count)`` shard.

        Exactly :func:`repro.circuits.parallel._mc_shard_hits` on the level
        plan, bit-identical on every tier. The probabilities, seed and
        count may come off the wire, so they are checked first: one
        probability per variable slot, a non-negative int seed, a positive
        int count.
        """
        from repro.circuits import parallel

        probs32 = parallel.mc_marginals(probs, self.n_vars)
        seed = parallel.check_sampling(count, seed)
        return parallel._mc_shard_hits(
            self.batch_plan(), probs32, seed, index, count
        )

    def run(self, matrix, as_float: bool, hosts=None, workers=None):
        """One pass over a ``(n_rows, n_vars)`` matrix, down the tier ladder.

        ``matrix`` holds one world (bool) or one marginal vector (float64)
        per row, columns in variable-slot order; returns the outputs as a
        1-D array. The tiers, top down: the distributed hosts, the process
        pool (two workers or more), this process. With ``hosts`` and
        ``workers`` left ``None`` they come from the knobs, a batch under
        ``parallel.PARALLEL_MIN_ROWS`` rows stays here before any knob is
        read, and a failing tier falls through to the next, warned once
        per process. The entry points that name a tier pass ``hosts`` or
        ``workers`` (``()`` and ``0`` leave a tier out): a batch of any
        size then goes to it, and its failure raises.

        A batch with rows counts one pass in :func:`batch_stats`.
        """
        dtype = _np.float64 if as_float else _np.bool_
        matrix = _np.asarray(matrix, dtype=dtype)
        if matrix.ndim != 2 or matrix.shape[1] != self.n_vars:
            raise ReproError(
                f"{'marginal' if as_float else 'world'} matrix needs "
                f"{self.n_vars} columns, one per variable, got shape "
                f"{matrix.shape}"
            )
        n_rows = matrix.shape[0]
        if not n_rows:
            return _np.empty(0, dtype=dtype)
        counter = "probability" if as_float else "evaluate"
        _BATCH_STATS[counter + "_passes"] += 1
        _BATCH_STATS[counter + "_rows"] += n_rows
        from repro.circuits import parallel

        pinned = hosts is not None or workers is not None
        if pinned or parallel.may_leave_process(n_rows):
            from repro.circuits import distributed

            hosts = distributed.effective_hosts(hosts)
            if hosts:
                try:
                    return distributed._distributed_matrix_pass(
                        self, matrix, as_float, hosts
                    )
                except (ReproError, OSError):
                    if pinned:
                        raise
                    parallel.warn_serial_fallback(
                        "distributed batch evaluation failed; falling back "
                        "to the local execution tiers"
                    )
            workers = parallel._effective_workers(workers)
            if workers >= 2:
                try:
                    return parallel._sharded_matrix_pass(
                        self, matrix, as_float, workers
                    )
                except (ReproError, OSError):
                    # OSError covers shared-memory allocation (ENOSPC on a
                    # small /dev/shm) and process-spawn failures; the
                    # in-process kernels below need neither.
                    if pinned:
                        raise
                    parallel.warn_serial_fallback(
                        "sharded batch evaluation failed; falling back to "
                        "the single-process kernels"
                    )
        out = _np.empty(n_rows, dtype=dtype)
        self.batch_plan().run_into(matrix, out, as_float)
        return out


def plan_of(source) -> Plan:
    """``source`` if it is a :class:`Plan`, else its lowering's plan.

    ``source`` may also be a :class:`CompiledCircuit` or a :class:`Circuit`
    (:func:`compile_circuit`).
    """
    if isinstance(source, Plan):
        return source
    return compile_circuit(source).plan


class CompiledCircuit:
    """An immutable, flat, topologically-sorted lowering of a :class:`Circuit`.

    Positions ``0 .. size-1`` enumerate the gates reachable from the output
    in topological order; ``output`` is the position of the output gate.
    The lowering's arrays are its :attr:`plan`, which every batch entry
    point evaluates. Construct through :func:`compile_circuit`, which
    caches the compiled form on the source circuit.
    """

    __slots__ = (
        "source",
        "plan",
        "size",
        "_kinds",
        "_offsets",
        "_indices",
        "_var_slot",
        "var_names",
        "output",
        "_gate_ids",
        "_position_of",
        "_binarized",
        "_decompositions",
        "__weakref__",
    )

    def __init__(self, circuit: Circuit):
        check(circuit.output is not None, "circuit has no output gate")
        # The CSR lists, materialized from the plan's arrays when a scalar
        # consumer first asks for them.
        self._kinds = None
        self._offsets = None
        self._indices = None
        self._var_slot = None
        self._position_of = None
        self._binarized: CompiledCircuit | None = None
        self._decompositions: dict[str, object] = {}
        self.source = circuit
        self._lower_vector(circuit)
        _STATS["lowerings"] += 1

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
        one gather from the arena's levels. Sets :attr:`plan` (the int32
        ``kinds``, ``offsets``, ``indices``, ``var_slot`` and ``levels``)
        and ``_gate_ids`` (an int64 array): exactly the arrays of
        :func:`reference_lowering`, which the tests and E17 compare it with.
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
            _np.subtract.at(consumers, inputs, 1)
            # Once each: a gate read twice in this round is listed twice.
            dead = _np.unique(inputs[consumers[inputs] == 0])
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
        self.var_names = _names_of_slots(circuit._slot_names, arena_slots)
        self.output = int(pos_of[out])
        self._gate_ids = gate_ids
        self.plan = Plan(
            kinds32, offsets32, indices32, var_slot32,
            _np.frombuffer(circuit._gate_levels, dtype=_np.int32)[gate_ids],
            self.output, len(self.var_names),
        )

    # ------------------------------------------------------------------ #
    # inspection

    @property
    def kinds(self) -> list[int]:
        """Gate kind codes by position (list, materialized on demand)."""
        value = self._kinds
        if value is None:
            value = self._kinds = self.plan.kinds.tolist()
        return value

    @property
    def offsets(self) -> list[int]:
        """CSR input offsets, one past the last gate (materialized lazily)."""
        value = self._offsets
        if value is None:
            value = self._offsets = self.plan.offsets.tolist()
        return value

    @property
    def indices(self) -> list[int]:
        """CSR input positions, flat (materialized lazily)."""
        value = self._indices
        if value is None:
            value = self._indices = self.plan.indices.tolist()
        return value

    @property
    def var_slot(self) -> list[int]:
        """Variable slot per position, ``-1`` off VAR gates (lazy)."""
        value = self._var_slot
        if value is None:
            value = self._var_slot = self.plan.var_slot.tolist()
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
        """The level-scheduled numpy plan of :attr:`plan`, built once."""
        return self.plan.batch_plan()

    def wire_bytes(self) -> bytes:
        """:attr:`plan` in the versioned wire format, packed once.

        The stage-5 export hook: the blob
        (:func:`repro.circuits.distributed.plan_to_bytes`) carries the int32
        CSR buffers, the level schedule and the plan metadata, and round-trips
        through :func:`repro.circuits.distributed.plan_from_bytes` on any
        host.
        """
        return self.plan.wire_bytes()

    def plan_digest(self) -> str:
        """Content digest of :meth:`wire_bytes`, computed once per circuit
        (:meth:`Plan.digest`)."""
        return self.plan.digest()

    def _matrix(self, batch, row_of, dtype):
        """A batch as :meth:`Plan.run` takes it: a 2-D numpy array as it
        is, anything else one row per item through ``row_of``. Rows are
        copied as they are drawn, so generators that refill one shared
        row buffer are safe."""
        if isinstance(batch, _np.ndarray) and batch.ndim == 2:
            return batch
        rows = [tuple(row_of(item)) for item in batch]
        matrix = _np.array(rows, dtype=dtype)
        return matrix.reshape(len(rows), len(self.var_names))

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
        order. The whole batch is one pass down :attr:`plan`'s tier ladder
        (:meth:`Plan.run`): through the level-scheduled vectorized kernels
        (:meth:`batch_plan`), chunked to bound memory, or row-sharded
        across remote hosts or the worker processes of
        :mod:`repro.circuits.parallel` when the knobs name them and the
        batch is big enough, with identical results.
        """
        matrix = self._matrix(valuations, self.slot_values, _np.bool_)
        return self.plan.run(matrix, as_float=False).tolist()

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
        ``np.multiply`` at AND, ``np.add`` at OR, left to right) down
        :attr:`plan`'s tier ladder, as :meth:`evaluate_batch`'s worlds do.
        Like :meth:`probability`, correct
        only on deterministic decomposable circuits over independent
        variables.
        """
        matrix = self._matrix(marginals_batch, self.slot_marginals, _np.float64)
        return self.plan.run(matrix, as_float=True).tolist()

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


def reference_lowering(circuit: Circuit) -> dict:
    """The per-gate lowering of ``circuit``: the arrays it must lower to.

    One loop over the gates the output reaches, in gate-id order, over the
    arena's flat mirrors. Returns the lists ``kinds``, ``offsets``,
    ``indices``, ``var_slot`` and ``levels``, ``var_names``, ``output``
    and the ``gate_ids`` tuple. Nothing in the package calls it: the tests
    and E17 hold :meth:`CompiledCircuit._lower_vector` to it, key for key.
    """
    gate_ids = circuit.reachable_from_output()
    position_of: dict[int, int] = {gid: pos for pos, gid in enumerate(gate_ids)}
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
    levels = circuit._gate_levels
    return {
        "kinds": kinds,
        "offsets": offsets,
        "indices": indices,
        "var_slot": var_slot,
        "var_names": _names_of_slots(circuit._slot_names, list(rank)),
        "output": position_of[circuit.output],
        "gate_ids": tuple(gate_ids),
        "levels": [levels[gid] for gid in gate_ids],
    }


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
