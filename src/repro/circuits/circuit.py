"""Boolean circuits as hash-consed gate DAGs.

The paper's pipeline represents uncertainty annotations and query lineages as
*circuits* rather than formulas: circuits share common subexpressions, and the
treewidth of the circuit (not of an equivalent formula) is what drives the
tractability of probability computation (Theorem 2).

A :class:`Circuit` is a mutable arena of immutable gates. Gates are identified
by integer ids; building the same gate twice returns the same id
(hash-consing), which keeps lineage circuits compact.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.events.space import FactNames
from repro.util import ReproError, check

VAR = "var"
AND = "and"
OR = "or"
NOT = "not"
CONST = "const"

_KINDS = frozenset({VAR, AND, OR, NOT, CONST})

# Gate kind codes of the flat compiled IR (see ``compiled.py``, which
# re-exports them). They are maintained incrementally on the arena so the
# vectorized lowering can read the whole circuit as four flat numeric
# arrays instead of touching every ``Gate`` object again.
K_FALSE = 0
K_TRUE = 1
K_VAR = 2
K_NOT = 3
K_AND = 4
K_OR = 5

_KIND_CODE = {VAR: K_VAR, NOT: K_NOT, AND: K_AND, OR: K_OR}

# The lowering reinterprets these buffers as little-endian int32/int8; all
# supported CPython platforms satisfy this (checked once at import).
check(array("i").itemsize == 4, "platform array('i') is not 32-bit")
check(array("b").itemsize == 1, "platform array('b') is not 8-bit")


def _int64_array(values):
    """``values`` as an int64 array; a range skips the per-item pass."""
    if isinstance(values, range):
        return np.arange(values.start, values.stop, values.step, dtype=np.int64)
    return np.asarray(values, dtype=np.int64)


@dataclass(frozen=True)
class Gate:
    """One circuit gate: a kind, an optional payload, and input gate ids.

    ``payload`` is the variable name for ``VAR`` gates and the Boolean value
    for ``CONST`` gates; it is ``None`` otherwise.
    """

    kind: str
    payload: object
    inputs: tuple[int, ...]


class Circuit:
    """A Boolean circuit: an arena of gates plus a designated output.

    >>> c = Circuit()
    >>> g = c.and_gate([c.variable("x"), c.negation(c.variable("y"))])
    >>> c.set_output(g)
    >>> c.evaluate({"x": True, "y": False})
    True

    The flat mirrors (kind codes, variable slots, CSR inputs, levels) are
    the authoritative arena: :meth:`append_variables` and
    :meth:`append_gates` extend *only* them, so bulk producers (the
    columnar provenance builder) never create per-gate objects. The
    ``Gate`` list and the hash-consing table are materialized lazily the
    first time a per-gate consumer needs them.
    """

    def __init__(self) -> None:
        self._gates: list[Gate] = []
        self._intern: dict[tuple, int] = {}
        self.output: int | None = None
        #: Mutation counter; lets :func:`repro.circuits.compile_circuit`
        #: cache the compiled form and recompile only after changes.
        self.version: int = 0
        #: ``(version, output) -> CompiledCircuit`` memo maintained by
        #: :func:`repro.circuits.compile_circuit` (bounded, insertion-LRU).
        self._compiled_cache: dict = {}
        # Flat mirrors of the gate list, appended in lockstep by ``_add``:
        # one kind code and variable slot per gate, plus the inputs in CSR
        # form. The array lowering reads these directly — no per-gate
        # Python objects on the hot path.
        self._kind_codes = array("b")
        self._var_slots = array("i")
        self._inputs_flat = array("i")
        self._input_offsets = array("i", [0])
        #: Per-gate level of the evaluation schedule, maintained
        #: incrementally: a gate's level depends only on its input cone
        #: (leaves at 0, everything else one past its deepest input), so it
        #: never changes after the append-only arena creates the gate. The
        #: lowering gathers its level schedule from here instead of running
        #: a depth pass over the whole circuit.
        self._gate_levels = array("i")
        #: Variable names by arena slot (creation order, which is also
        #: first-topological-occurrence order for any output). An arena of
        #: fact-id variables keeps a :class:`FactNames` view here instead:
        #: one fact id per slot, named only on demand.
        self._slot_names: list[str] | FactNames = []
        self._slot_of_name: dict[str, int] = {}
        #: Gate id of each slot's VAR gate (slot → gate id), so bulk
        #: variable appends can dedup without the hash-consing table.
        self._var_gates = array("i")

    # ------------------------------------------------------------------ #
    # construction

    def _materialize(self) -> None:
        """Build ``Gate`` objects (and intern keys) for bulk-appended gates.

        Bulk appends extend only the flat mirrors; the first per-gate
        consumer (``gate``, ``evaluate``, ``copy_into``, further
        hash-consed appends, ...) pays one linear pass here. Materialized
        gates intern as usual, though raw bulk appends may have created
        duplicates — later keys win, which only affects compactness, never
        semantics.
        """
        gates = self._gates
        size = len(self._kind_codes)
        if len(gates) == size:
            return
        intern = self._intern
        offsets = self._input_offsets
        flat = self._inputs_flat
        slot_names = self._slot_names
        for gid in range(len(gates), size):
            code = self._kind_codes[gid]
            inputs = tuple(flat[offsets[gid] : offsets[gid + 1]])
            if code == K_VAR:
                kind, payload = VAR, slot_names[self._var_slots[gid]]
            elif code == K_NOT:
                kind, payload = NOT, None
            elif code == K_AND:
                kind, payload = AND, None
            elif code == K_OR:
                kind, payload = OR, None
            else:
                kind, payload = CONST, code == K_TRUE
            gates.append(Gate(kind, payload, inputs))
            intern[(kind, payload, inputs)] = gid

    def _add(self, kind: str, payload: object, inputs: tuple[int, ...]) -> int:
        self._materialize()
        key = (kind, payload, inputs)
        existing = self._intern.get(key)
        if existing is not None:
            return existing
        for g in inputs:
            check(0 <= g < len(self._gates), f"unknown input gate {g}")
        gate_id = len(self._gates)
        self._gates.append(Gate(kind, payload, inputs))
        self._intern[key] = gate_id
        slot = -1
        if kind == VAR:
            # Hash-consing guarantees one VAR gate per name, so the slot is
            # fresh exactly when the gate is.
            self._name_slots()
            slot = len(self._slot_names)
            self._slot_of_name[payload] = slot  # type: ignore[index]
            self._slot_names.append(payload)  # type: ignore[arg-type]
            self._var_gates.append(gate_id)
            code = K_VAR
        elif kind == CONST:
            code = K_TRUE if payload else K_FALSE
        else:
            code = _KIND_CODE[kind]
        self._kind_codes.append(code)
        self._var_slots.append(slot)
        self._inputs_flat.extend(inputs)
        self._input_offsets.append(len(self._inputs_flat))
        levels = self._gate_levels
        if code <= K_VAR:
            levels.append(0)
        else:
            levels.append(
                1 + max((levels[g] for g in inputs), default=0)
            )
        self.version += 1
        return gate_id

    # ------------------------------------------------------------------ #
    # bulk construction (flat mirrors only — no Gate objects)

    def _name_slots(self) -> None:
        """Key the slots by name; an arena of fact ids switches for good."""
        view = self._slot_names
        if isinstance(view, FactNames):
            self._slot_of_name = dict(view.positions())
            self._slot_names = list(view)

    def append_variables(self, names, id_space=None) -> array:
        """Bulk-create VAR gates; returns one gate id per requested variable.

        A name already interned resolves to its existing gate (the dedup
        guarantee of :meth:`variable`, via the slot table rather than the
        hash-consing dict); fresh names append new leaves to the flat
        mirrors only.

        With ``id_space`` (a
        :class:`~repro.instances.columnar.FactIdSpace`), ``names`` are fact
        ids of that space instead, and each fact id *is* its variable: the
        arena stores one id per slot, and its names are a lazy
        :class:`FactNames` view. An arena holds the ids of one id space
        only; ids of another space, or a named variable added later,
        switch it to named slots.
        """
        if id_space is not None:
            view = self._slot_names
            if not view or (
                isinstance(view, FactNames) and view.id_space is id_space
            ):
                return self._append_fact_variables(names, id_space)
            distinct = list(dict.fromkeys(int(fid) for fid in names))
            named = dict(zip(distinct, FactNames(id_space, distinct)))
            names = [named[int(fid)] for fid in names]
        self._name_slots()
        slot_of = self._slot_of_name
        slot_names = self._slot_names
        var_gates = self._var_gates
        kind_codes = self._kind_codes
        var_slots = self._var_slots
        offsets = self._input_offsets
        levels = self._gate_levels
        flat_len = len(self._inputs_flat)
        out = array("i")
        appended = 0
        for name in names:
            slot = slot_of.get(name)
            if slot is not None:
                out.append(var_gates[slot])
                continue
            gid = len(kind_codes)
            slot = len(slot_names)
            slot_of[name] = slot
            slot_names.append(name)
            var_gates.append(gid)
            kind_codes.append(K_VAR)
            var_slots.append(slot)
            offsets.append(flat_len)
            levels.append(0)
            out.append(gid)
            appended += 1
        if appended:
            self.version += 1
        return out

    def _append_fact_variables(self, fids, id_space) -> array:
        """:meth:`append_variables` for fact ids: vectorized, name-free.

        Dedup runs through one dense fact id → slot array; an id repeated
        in the batch keeps its first occurrence's slot.
        """
        fids = _int64_array(fids)
        if not fids.size:
            return array("i")
        n_ids = len(id_space)
        check(
            int(fids.min()) >= 0 and int(fids.max()) < n_ids,
            "fact ids outside the id space",
        )
        view = self._slot_names
        if not isinstance(view, FactNames):
            view = self._slot_names = FactNames(id_space, array("i"))
        column = view.fids
        base_slot = len(column)
        slot_of = np.full(n_ids, -1, dtype=np.int64)
        if base_slot:
            slot_of[np.frombuffer(column, dtype=np.int32)] = np.arange(base_slot)
        fresh = fids[slot_of[fids] < 0]
        fresh_slots = np.arange(base_slot, base_slot + fresh.size)
        slot_of[fresh] = fresh_slots
        if (slot_of[fresh] != fresh_slots).any():
            _, first = np.unique(fresh, return_index=True)
            fresh = fresh[np.sort(first)]
            fresh_slots = fresh_slots[: fresh.size]
            slot_of[fresh] = fresh_slots
        count = fresh.size
        base_gid = len(self._kind_codes)
        column.frombytes(fresh.astype(np.int32).tobytes())
        self._var_gates.frombytes(
            np.arange(base_gid, base_gid + count, dtype=np.int32).tobytes()
        )
        self._var_slots.frombytes(fresh_slots.astype(np.int32).tobytes())
        self._input_offsets.frombytes(
            np.full(count, len(self._inputs_flat), dtype=np.int32).tobytes()
        )
        self._kind_codes.frombytes(bytes([K_VAR]) * count)
        self._gate_levels.frombytes(bytes(self._gate_levels.itemsize * count))
        if count:
            self.version += 1
        gates = np.frombuffer(self._var_gates, dtype=np.int32)[slot_of[fids]]
        out = array("i")
        out.frombytes(gates.tobytes())
        return out

    def append_gates(self, kinds, inputs, offsets) -> range:
        """Bulk-append operator gates in CSR form; returns their gate ids.

        ``kinds`` holds one kind code (``K_NOT``/``K_AND``/``K_OR``) or
        kind string per gate — or a single code/string, broadcast to every
        row; ``inputs``/``offsets`` are the concatenated input gate ids
        and the ``n+1`` row offsets (numpy arrays or any int sequences).
        Inputs may reference earlier gates in the same batch. Unlike :meth:`and_gate`/:meth:`or_gate` this neither
        constant-folds nor hash-conses — producers feed it pre-folded
        rows (each with at least one input); in exchange the arena grows
        by pure array extends and the vectorized lowering can consume the
        result without ever materializing ``Gate`` objects.
        """
        base = len(self._kind_codes)
        if isinstance(kinds, str):
            kinds = _KIND_CODE[kinds]
        if isinstance(kinds, int):
            kind_list = [kinds] * (len(offsets) - 1)
        else:
            kind_list = [
                k if isinstance(k, int) else _KIND_CODE[k] for k in kinds
            ]
        count = len(kind_list)
        if count == 0:
            return range(base, base)
        for code in set(kind_list):
            check(
                code in (K_NOT, K_AND, K_OR),
                "append_gates takes operator gates only "
                "(use append_variables/constant for leaves)",
            )
        check(len(offsets) == count + 1, "offsets must have one entry per gate + 1")
        flat_base = len(self._inputs_flat)
        inputs64 = _int64_array(inputs)
        offsets64 = _int64_array(offsets)
        row_ids = base + np.arange(count, dtype=np.int64)
        counts = np.diff(offsets64)
        check(bool((counts >= 1).all()), "append_gates rows need >= 1 input")
        check(
            int(offsets64[0]) == 0 and int(offsets64[-1]) == len(inputs64),
            "offsets must span the inputs array",
        )
        bound = np.repeat(row_ids, counts)
        check(
            bool((inputs64 >= 0).all() and (inputs64 < bound).all()),
            "append_gates inputs must reference earlier gates",
        )
        self._kind_codes.frombytes(bytes(kind_list))
        self._var_slots.frombytes(np.full(count, -1, dtype=np.int32).tobytes())
        self._inputs_flat.frombytes(inputs64.astype(np.int32).tobytes())
        self._input_offsets.frombytes(
            (flat_base + offsets64[1:]).astype(np.int32).tobytes()
        )
        # Levels: existing inputs resolve in one gather; in-batch
        # references resolve in waves (bulk producers layer their
        # batches, so this converges in one or two rounds).
        # Copy: a frombuffer view would pin the array against the
        # frombytes extend below.
        existing = np.frombuffer(self._gate_levels, dtype=np.int32)[:base].copy()
        batch_levels = np.full(count, -1, dtype=np.int64)
        in_batch = inputs64 >= base
        input_levels = np.where(
            in_batch, -1, existing[np.minimum(inputs64, base - 1)]
            if base
            else -1,
        )
        starts = offsets64[:-1]
        pending = np.arange(count, dtype=np.int64)
        while pending.size:
            input_levels[in_batch] = batch_levels[inputs64[in_batch] - base]
            row_min = np.minimum.reduceat(input_levels, starts)[pending]
            row_max = np.maximum.reduceat(input_levels, starts)[pending]
            ready = row_min >= 0
            check(bool(ready.any()), "append_gates batch has a dependency cycle")
            batch_levels[pending[ready]] = 1 + row_max[ready]
            pending = pending[~ready]
        self._gate_levels.frombytes(batch_levels.astype(np.int32).tobytes())
        self.version += 1
        return range(base, base + count)

    def variable(self, name: str) -> int:
        """Return the gate for input variable ``name`` (created on demand)."""
        return self._add(VAR, name, ())

    def constant(self, value: bool) -> int:
        """Return the constant gate for ``value``."""
        return self._add(CONST, bool(value), ())

    def true(self) -> int:
        """Return the constant-true gate."""
        return self.constant(True)

    def false(self) -> int:
        """Return the constant-false gate."""
        return self.constant(False)

    def and_gate(self, inputs: Iterable[int]) -> int:
        """Return a conjunction gate over ``inputs`` with constant folding."""
        size = len(self._kind_codes)
        codes = self._kind_codes
        kept: list[int] = []
        for g in inputs:
            check(0 <= g < size, f"unknown input gate {g}")
            code = codes[g]
            if code <= K_TRUE:
                if code == K_FALSE:
                    return self.false()
                continue
            kept.append(g)
        if not kept:
            return self.true()
        if len(kept) == 1:
            return kept[0]
        return self._add(AND, None, tuple(kept))

    def or_gate(self, inputs: Iterable[int]) -> int:
        """Return a disjunction gate over ``inputs`` with constant folding."""
        size = len(self._kind_codes)
        codes = self._kind_codes
        kept: list[int] = []
        for g in inputs:
            check(0 <= g < size, f"unknown input gate {g}")
            code = codes[g]
            if code <= K_TRUE:
                if code == K_TRUE:
                    return self.true()
                continue
            kept.append(g)
        if not kept:
            return self.false()
        if len(kept) == 1:
            return kept[0]
        return self._add(OR, None, tuple(kept))

    def negation(self, input_gate: int) -> int:
        """Return the negation of ``input_gate`` (double negations cancel)."""
        check(
            0 <= input_gate < len(self._kind_codes),
            f"unknown input gate {input_gate}",
        )
        code = self._kind_codes[input_gate]
        if code <= K_TRUE:
            return self.constant(code == K_FALSE)
        if code == K_NOT:
            return self._inputs_flat[self._input_offsets[input_gate]]
        return self._add(NOT, None, (input_gate,))

    def set_output(self, gate_id: int) -> None:
        """Designate ``gate_id`` as the circuit output."""
        check(0 <= gate_id < len(self._kind_codes), f"unknown gate {gate_id}")
        self.output = gate_id

    # ------------------------------------------------------------------ #
    # inspection

    def gate(self, gate_id: int) -> Gate:
        """Return the gate object with the given id."""
        if gate_id >= len(self._gates):
            self._materialize()
        return self._gates[gate_id]

    def __len__(self) -> int:
        return len(self._kind_codes)

    def gate_ids(self) -> range:
        """Return all gate ids in creation (hence topological) order."""
        return range(len(self._kind_codes))

    def variables(self) -> frozenset[str]:
        """Return the names of all variable gates reachable from the output."""
        if self.output is None:
            # Every interned slot has exactly one VAR gate.
            return frozenset(self._slot_names)
        codes = self._kind_codes
        slots = self._var_slots
        names = self._slot_names
        return frozenset(
            names[slots[gid]]
            for gid in self.reachable_from_output()
            if codes[gid] == K_VAR
        )

    def reachable_from_output(self) -> list[int]:
        """Return gate ids reachable from the output, in topological order."""
        check(self.output is not None, "circuit has no output gate")
        flat = self._inputs_flat
        offsets = self._input_offsets
        seen: set[int] = set()
        stack = [self.output]
        while stack:
            gid = stack.pop()
            if gid in seen:
                continue
            seen.add(gid)  # type: ignore[arg-type]
            stack.extend(flat[offsets[gid] : offsets[gid + 1]])  # type: ignore[index]
        return sorted(seen)  # creation order is topological

    def max_fan_in(self) -> int:
        """Return the largest number of inputs of any gate."""
        offsets = self._input_offsets
        return max(
            (offsets[i + 1] - offsets[i] for i in range(len(offsets) - 1)),
            default=0,
        )

    # ------------------------------------------------------------------ #
    # evaluation

    def evaluate(self, valuation: Mapping[str, bool], gate_id: int | None = None) -> bool:
        """Evaluate the circuit (or one gate) under a variable ``valuation``."""
        target = self.output if gate_id is None else gate_id
        check(target is not None, "circuit has no output gate")
        self._materialize()
        needed: set[int] = set()
        stack = [target]
        while stack:
            gid = stack.pop()
            if gid in needed:
                continue
            needed.add(gid)  # type: ignore[arg-type]
            stack.extend(self._gates[gid].inputs)  # type: ignore[index]
        values: dict[int, bool] = {}
        for gid in sorted(needed):
            gate = self._gates[gid]
            if gate.kind == VAR:
                if gate.payload not in valuation:
                    raise ReproError(f"valuation is missing variable {gate.payload!r}")
                values[gid] = bool(valuation[gate.payload])  # type: ignore[index]
            elif gate.kind == CONST:
                values[gid] = bool(gate.payload)
            elif gate.kind == NOT:
                values[gid] = not values[gate.inputs[0]]
            elif gate.kind == AND:
                values[gid] = all(values[i] for i in gate.inputs)
            elif gate.kind == OR:
                values[gid] = any(values[i] for i in gate.inputs)
            else:  # pragma: no cover - guarded by construction
                raise ReproError(f"unknown gate kind {gate.kind!r}")
        return values[target]  # type: ignore[index]

    # ------------------------------------------------------------------ #
    # transformation

    def copy_into(self, target: "Circuit", substitution: Mapping[str, int] | None = None,
                  roots: Iterable[int] | None = None) -> dict[int, int]:
        """Copy gates into ``target``, optionally substituting variables.

        ``substitution`` maps variable names to gate ids *of the target
        circuit*; variables not in the mapping are copied as variables. Only
        gates reachable from ``roots`` (default: the output) are copied.
        Returns the id translation map. This implements circuit composition,
        used to plug annotation circuits into lineage circuits (pcc-instances).
        """
        substitution = substitution or {}
        self._materialize()
        if roots is None:
            check(self.output is not None, "circuit has no output gate")
            roots = [self.output]  # type: ignore[list-item]
        needed: set[int] = set()
        stack = list(roots)
        while stack:
            gid = stack.pop()
            if gid in needed:
                continue
            needed.add(gid)
            stack.extend(self._gates[gid].inputs)
        translation: dict[int, int] = {}
        for gid in sorted(needed):
            gate = self._gates[gid]
            if gate.kind == VAR:
                if gate.payload in substitution:
                    translation[gid] = substitution[gate.payload]  # type: ignore[index]
                else:
                    translation[gid] = target.variable(gate.payload)  # type: ignore[arg-type]
            elif gate.kind == CONST:
                translation[gid] = target.constant(bool(gate.payload))
            elif gate.kind == NOT:
                translation[gid] = target.negation(translation[gate.inputs[0]])
            elif gate.kind == AND:
                translation[gid] = target.and_gate([translation[i] for i in gate.inputs])
            else:
                translation[gid] = target.or_gate([translation[i] for i in gate.inputs])
        return translation

    def restricted(self, partial: Mapping[str, bool]) -> "Circuit":
        """Return a simplified copy with variables of ``partial`` fixed.

        Conditioning on an event literal is this operation followed by a
        renormalization; note the width of the circuit never increases.
        """
        result = Circuit()
        substitution = {name: result.constant(value) for name, value in partial.items()}
        translation = self.copy_into(result, substitution)
        if self.output is not None:
            result.set_output(translation[self.output])
        return result

    def binarized(self) -> "Circuit":
        """Return an equivalent circuit in which every gate has fan-in ≤ 2.

        Large AND/OR gates become balanced trees of binary gates. This keeps
        message-passing bags small: a factor's scope is a gate plus its
        inputs, so fan-in directly lower-bounds the junction-tree width.
        """
        result = Circuit()
        self._materialize()
        translation: dict[int, int] = {}
        roots = self.reachable_from_output() if self.output is not None else list(self.gate_ids())
        for gid in roots:
            gate = self._gates[gid]
            if gate.kind == VAR:
                translation[gid] = result.variable(gate.payload)  # type: ignore[arg-type]
            elif gate.kind == CONST:
                translation[gid] = result.constant(bool(gate.payload))
            elif gate.kind == NOT:
                translation[gid] = result.negation(translation[gate.inputs[0]])
            else:
                children = [translation[i] for i in gate.inputs]
                combiner = result.and_gate if gate.kind == AND else result.or_gate
                while len(children) > 2:
                    paired = [
                        combiner(children[i : i + 2]) for i in range(0, len(children), 2)
                    ]
                    children = paired
                translation[gid] = combiner(children)
        if self.output is not None:
            result.set_output(translation[self.output])
        return result

    def pruned(self) -> "Circuit":
        """Return a copy containing only gates reachable from the output."""
        result = Circuit()
        translation = self.copy_into(result)
        result.set_output(translation[self.output])  # type: ignore[index]
        return result

    def __repr__(self) -> str:
        return f"Circuit(gates={len(self)}, output={self.output})"


def from_formula(formula, circuit: Circuit | None = None) -> tuple[Circuit, int]:
    """Convert a :class:`repro.events.Formula` into circuit gates.

    Returns the circuit and the id of the gate representing the formula.
    """
    from repro.events import formulas as f

    circuit = circuit if circuit is not None else Circuit()

    def build(node) -> int:
        if isinstance(node, f.Const):
            return circuit.constant(node.value)
        if isinstance(node, f.Var):
            return circuit.variable(node.name)
        if isinstance(node, f.Not):
            return circuit.negation(build(node.child))
        if isinstance(node, f.And):
            return circuit.and_gate([build(c) for c in node.children])
        if isinstance(node, f.Or):
            return circuit.or_gate([build(c) for c in node.children])
        raise ReproError(f"unknown formula node {node!r}")

    gate = build(formula)
    return circuit, gate
