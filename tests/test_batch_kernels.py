"""Tests for the level-scheduled numpy batch kernels.

The batch passes are pinned to the one-row scalar pass behind
:meth:`CompiledCircuit.evaluate` and :meth:`CompiledCircuit.probability`
(which interprets the flat arrays gate by gate), and the Boolean pass also
to the arena's own :meth:`Circuit.evaluate`.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit, compile_circuit
from repro.circuits import compiled as compiled_module
from repro.circuits.circuit import K_AND, K_NOT, K_OR
from repro.events import EventSpace
from repro.util import ReproError, stable_rng


def random_circuit(seed: int, n_vars: int = 6, steps: int = 16) -> Circuit:
    rng = stable_rng(seed)
    c = Circuit()
    names = [f"v{i}" for i in range(n_vars)]
    gates = [c.variable(n) for n in names] + [c.true(), c.false()]
    for _ in range(rng.randint(2, steps)):
        op = rng.choice(["and", "or", "not"])
        if op == "not":
            gates.append(c.negation(rng.choice(gates)))
        else:
            picked = rng.sample(gates, rng.randint(2, min(4, len(gates))))
            gates.append(c.and_gate(picked) if op == "and" else c.or_gate(picked))
    c.set_output(gates[-1])
    return c


def all_worlds(n_vars: int) -> list[list[int]]:
    return [[(mask >> i) & 1 for i in range(n_vars)] for mask in range(1 << n_vars)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_batch_agrees_with_scalar_kernel_and_interpreter(seed):
    """Property: numpy batch == the scalar pass over the flat arrays == the
    arena's own interpreter (``Circuit.evaluate``, which never compiles)."""
    c = random_circuit(seed)
    compiled = compile_circuit(c)
    names = compiled.variables()
    worlds = all_worlds(len(names))
    batch = compiled.evaluate_batch(worlds)
    assert batch == [compiled.evaluate(w) for w in worlds]
    assert batch == [c.evaluate(dict(zip(names, w))) for w in worlds]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_probability_batch_agrees_with_scalar_passes(seed):
    """Property: probability_batch == the scalar float pass to 1e-12 per row."""
    c = random_circuit(seed)
    compiled = compile_circuit(c)
    spaces = [
        EventSpace({f"v{i}": 0.05 + 0.9 * ((i + k) % 7) / 7 for i in range(6)})
        for k in range(4)
    ]
    batch = compiled.probability_batch(spaces)
    for space, value in zip(spaces, batch):
        assert math.isclose(value, compiled.probability(space), abs_tol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_enumeration_batch_matches_scalar_oracle(seed):
    """Property: the batched enumeration oracle == a brute-force world sum."""
    c = random_circuit(seed)
    compiled = compile_circuit(c)
    probs = [0.1 + 0.13 * i for i in range(6)]
    space = EventSpace({f"v{i}": p for i, p in enumerate(probs)})
    batched = compiled.probability_enumerate(space)
    slot_probs = compiled.slot_marginals(space)
    scalar = sum(
        math.prod(p if bit else 1.0 - p for p, bit in zip(slot_probs, world))
        for world in all_worlds(len(slot_probs))
        if compiled.evaluate(world)
    )
    assert math.isclose(batched, scalar, abs_tol=1e-12)


class TestScalarPass:
    """The one-row pass behind ``evaluate`` and ``probability``."""

    def test_evaluate_batch_agrees_with_scalar_pass(self):
        compiled = compile_circuit(random_circuit(99))
        worlds = all_worlds(len(compiled.variables()))
        assert compiled.evaluate_batch(worlds) == [
            compiled.evaluate(w) for w in worlds
        ]

    def test_probability_batch_agrees_with_scalar_pass(self):
        compiled = compile_circuit(random_circuit(7))
        space = EventSpace({f"v{i}": 0.3 for i in range(6)})
        assert math.isclose(
            compiled.probability_batch([space])[0],
            compiled.probability(space),
            abs_tol=1e-12,
        )

    @pytest.mark.parametrize("width", (1, 3))
    def test_probability_returns_a_python_float(self, width):
        """Whatever type the marginals come in. A lone-variable circuit's
        pass would otherwise return its marginal as given: an int from a
        list of ints, a numpy float from an array."""
        c = Circuit()
        xs = [c.variable(f"x{i}") for i in range(width)]
        c.set_output(xs[0] if width == 1 else c.or_gate(xs))
        compiled = compile_circuit(c)
        names = compiled.variables()
        for marginals in (
            [1] * width,
            np.full(width, 0.25),
            {name: 1 for name in names},
            EventSpace({name: 0.25 for name in names}),
        ):
            assert type(compiled.probability(marginals)) is float


class TestBatchInputs:
    def test_empty_batches(self):
        compiled = compile_circuit(random_circuit(3))
        assert compiled.evaluate_batch([]) == []
        assert compiled.probability_batch([]) == []

    def test_mixed_truth_value_dtypes(self):
        compiled = compile_circuit(random_circuit(17))
        n = len(compiled.variables())
        worlds = all_worlds(n)
        reference = compiled.evaluate_batch(worlds)  # 0/1 int rows
        as_bool = [[bool(v) for v in row] for row in worlds]
        as_np_bool = np.array(worlds, dtype=np.bool_)
        as_np_int = np.array(worlds, dtype=np.int64)
        as_np_scalar_rows = [list(row) for row in np.array(worlds, dtype=np.bool_)]
        assert compiled.evaluate_batch(as_bool) == reference
        assert compiled.evaluate_batch(as_np_bool) == reference
        assert compiled.evaluate_batch(as_np_int) == reference
        assert compiled.evaluate_batch(as_np_scalar_rows) == reference

    def test_mapping_rows_and_results_are_python_bools(self):
        compiled = compile_circuit(random_circuit(23))
        names = compiled.variables()
        rows = [{n: (i + j) % 2 == 0 for j, n in enumerate(names)} for i in range(4)]
        batch = compiled.evaluate_batch(rows)
        assert all(isinstance(b, bool) for b in batch)
        assert batch == [compiled.evaluate(r) for r in rows]

    def test_world_matrix_column_count_checked(self):
        compiled = compile_circuit(random_circuit(5))
        n = len(compiled.variables())
        with pytest.raises(ReproError, match="columns"):
            compiled.evaluate_batch(np.zeros((3, n + 1), dtype=bool))

    def test_generator_reusing_one_row_buffer(self):
        # A generator may yield one mutated list per world; the
        # normalization must copy rows as they are drawn.
        compiled = compile_circuit(random_circuit(29))
        n = len(compiled.variables())
        worlds = all_worlds(n)

        def reuse():
            row = [0] * n
            for world in worlds:
                row[:] = world
                yield row

        assert compiled.evaluate_batch(reuse()) == compiled.evaluate_batch(worlds)

    def test_batches_larger_than_chunk_budget(self, monkeypatch):
        # Shrink the byte budget so a small batch spans several chunks of
        # one 64-world word each, the last one partial.
        monkeypatch.setattr(compiled_module, "BATCH_BYTE_BUDGET", 1)
        compiled = compile_circuit(random_circuit(122, n_vars=8, steps=24))
        worlds = all_worlds(len(compiled.variables()))
        worlds += worlds[:37]
        assert compiled.batch_plan().chunk_rows(as_float=False) == 64
        assert len(worlds) % 64 and len(worlds) > 2 * 64
        assert compiled.evaluate_batch(worlds) == [
            compiled.evaluate(w) for w in worlds
        ]


class TestSlotMarginals:
    def test_event_space_detected_explicitly(self):
        compiled = compile_circuit(random_circuit(2))
        space = EventSpace({f"v{i}": 0.5 for i in range(6)})
        assert compiled.slot_marginals(space) == [0.5] * len(compiled.variables())

    def test_compiled_circuit_rejected_with_clear_error(self):
        compiled = compile_circuit(random_circuit(2))
        with pytest.raises(ReproError, match="unsupported marginals type"):
            compiled.slot_marginals(compiled)

    def test_duck_typed_probability_object_rejected(self):
        class NotASpace:
            def probability(self, name):  # pragma: no cover - must not be called
                raise AssertionError("duck-typed probability must not be used")

        compiled = compile_circuit(random_circuit(2))
        with pytest.raises(ReproError, match="unsupported marginals type"):
            compiled.slot_marginals(NotASpace())


class TestSingleRowReductionOrder:
    def test_single_row_bit_identical_to_wider_batches(self):
        """Regression: a 1-row float pass shares the wide-batch reduction
        order bit-for-bit. numpy's reduce kernels pick a different inner
        loop for single-column value buffers, drifting a few ulps on deep
        plans; the plan now widens single rows to a broadcast pair, so the
        same row must produce the identical double at every batch width."""
        for seed in (101, 202, 303, 404):
            compiled = compile_circuit(random_circuit(seed, n_vars=8, steps=48))
            n = len(compiled.variables())
            rows = np.linspace(0.03, 0.97, 4 * n).reshape(4, n)
            wide = compiled.probability_batch(rows)
            for i in range(4):
                single = compiled.probability_batch(rows[i : i + 1])
                assert single[0] == wide[i]  # bitwise, not isclose

    def test_wide_or_kernel_sums_left_to_right(self):
        """Regression: the scalar pass reduces a wide OR left to right, like
        the level plan. Builtin ``sum`` is compensated since Python 3.12
        and rounds forty 0.025s to 1.0."""
        c = Circuit()
        c.set_output(c.or_gate([c.variable(f"x{i}") for i in range(40)]))
        compiled = compile_circuit(c)
        row = [0.025] * 40
        assert compiled.probability(row) == 1.0000000000000004
        assert compiled.probability(row) == compiled.probability_batch([row, row])[0]

    def test_single_row_plan_pass_shape_and_dtype(self):
        compiled = compile_circuit(random_circuit(11))
        n = len(compiled.variables())
        row = np.linspace(0.1, 0.9, n).reshape(1, n)
        out = compiled.batch_plan().run(row, as_float=True)
        assert out.shape == (1,)
        assert out.dtype == np.float64
        assert out[0] == compiled.probability_batch(np.vstack([row, row]))[0]

    def test_single_row_bool_pass_unchanged(self):
        """The widening applies to float passes only; bool single rows stay
        on the direct path and agree with the scalar pass."""
        compiled = compile_circuit(random_circuit(12))
        n = len(compiled.variables())
        world = np.array([[True, False] * ((n + 1) // 2)][0][:n]).reshape(1, n)
        assert compiled.evaluate_batch(world) == [compiled.evaluate(world[0])]


class TestBatchPlan:
    def test_plan_cached_and_csr_mirrored_as_int32(self):
        compiled = compile_circuit(random_circuit(13))
        plan = compiled.batch_plan()
        assert plan is compiled.batch_plan() is compiled.plan.batch_plan()
        for name in ("kinds", "offsets", "indices", "var_slot"):
            mirror = getattr(compiled.plan, name)
            assert mirror.dtype == np.int32
            assert mirror.tolist() == list(getattr(compiled, name))

    def test_levels_topologically_consistent(self):
        """Every step reads rows written by earlier levels, or leaves.

        The two identity rows count as leaves: they sit past the gates'
        rows, and a mixed fan-in circuit's padded groups do read them.
        """
        compiled = compile_circuit(mixed_fan_circuit(19))
        plan = compiled.batch_plan()
        assert plan.identity_rows == (compiled.size, compiled.size + 1)
        produced = set(range(plan.const_rows[1])) | set(plan.identity_rows)
        read_anywhere = set()
        for level in plan.levels:
            reads = set()
            writes = set()
            for _kind, _fan_in, rows, gather in level:
                reads.update(int(r) for r in gather.ravel())
                writes.update(range(*rows))
            assert reads <= produced  # inputs come from earlier levels only
            assert not writes & produced  # no row is written twice
            produced |= writes
            read_anywhere |= reads
        assert plan.output_row in produced
        assert set(plan.identity_rows) <= read_anywhere


# --------------------------------------------------------------------------- #
# grouped level plan: mixed fan-ins padded from the identity rows

#: Float inputs the passes must carry exactly like the scalar pass.
SPECIAL_VALUES = (-0.0, math.nan, math.inf, -math.inf, 2.0 ** -1074, 1.0)
#: The same, with +0.0 and a larger subnormal, for the fold test's rows.
FOLD_VALUES = SPECIAL_VALUES + (0.0, 2.0 ** -1030)


def mixed_fan_circuit(seed: int, n_vars: int = 8, steps: int = 40,
                      max_fan: int = 12) -> Circuit:
    """A random circuit whose levels mix AND/OR fan-ins of 2 to ``max_fan``."""
    rng = stable_rng(seed)
    c = Circuit()
    gates = [c.variable(f"v{i}") for i in range(n_vars)]
    for _ in range(steps):
        op = rng.choice(["and", "or", "not"])
        if op == "not":
            gates.append(c.negation(rng.choice(gates)))
        else:
            picked = rng.sample(gates, rng.randint(2, min(max_fan, len(gates))))
            gates.append(c.and_gate(picked) if op == "and" else c.or_gate(picked))
    c.set_output(c.or_gate(gates[-6:]))
    return c


def padded_or_circuit() -> Circuit:
    """OR(x0, x1, OR(x2, x3), OR(x4, x5, x6)): the level-1 ORs share one
    group, so ``OR(x2, x3)`` reads one identity row, and -0.0 inputs reach
    the output as -0.0 only if that row adds nothing. Their heads sit at
    inputs 2 and 3, which never fold."""
    c = Circuit()
    xs = [c.variable(f"x{i}") for i in range(7)]
    c.set_output(c.or_gate(xs[:2] + [c.or_gate(xs[2:4]), c.or_gate(xs[4:])]))
    return c


def single_input_circuit() -> Circuit:
    """Bulk-appended single-input AND/OR gates next to fan-in-2 ones: a
    fan-in-2 group pads them, so the binary ufunc reads an identity row."""
    c = Circuit()
    xs = [c.variable(f"x{i}") for i in range(4)]
    rows = [[xs[0]], [xs[1], xs[2]], [xs[3]], [xs[0], xs[3]]]
    ors = c.append_gates(K_OR, [g for row in rows for g in row], [0, 1, 3, 4, 6])
    ands = c.append_gates(K_AND, [ors[0], ors[2], ors[1]], [0, 1, 3])
    c.set_output(c.or_gate(list(ands) + [ors[3]]))
    return c


def wide_or_circuit(width: int = 16) -> Circuit:
    c = Circuit()
    c.set_output(c.or_gate([c.variable(f"x{i}") for i in range(width)]))
    return c


def fold_reference(compiled) -> dict:
    """``position -> (level, inputs)`` of every operator the folded plan
    evaluates, recomputed gate by gate from the rule: an AND/OR whose input
    0, else input 1, is a gate of its own kind reads that gate's folded
    inputs in its place, followed by its other inputs in order, unless
    that passes ``FOLD_CAP`` inputs; a gate no kept gate reads is dropped,
    and levels are the folded DAG's depths."""
    kinds = compiled.kinds
    cap = compiled_module.FOLD_CAP
    folded = []
    for pos, kind in enumerate(kinds):
        inputs = compiled.inputs_of(pos)
        if kind in (K_AND, K_OR):
            for slot in (0, 1):
                if slot < len(inputs) and kinds[inputs[slot]] == kind:
                    merged = (folded[inputs[slot]] + inputs[:slot]
                              + inputs[slot + 1:])
                    if len(merged) <= cap:
                        inputs = merged
                        break
        folded.append(inputs)
    kept = {compiled.output}
    for pos in reversed(range(compiled.size)):
        if pos in kept:
            kept.update(folded[pos])
    levels = [0] * compiled.size
    for pos, kind in enumerate(kinds):
        if kind >= K_NOT:
            levels[pos] = 1 + max((levels[i] for i in folded[pos]), default=0)
    return {pos: (levels[pos], folded[pos]) for pos in sorted(kept)
            if kinds[pos] >= K_NOT}


def fold_circuit(seed: int, output: str, n_vars: int = 6,
                 steps: int = 60) -> Circuit:
    """A random circuit full of fold candidates, appended without the
    arena's constant folding: same-kind heads at inputs 0, 1 and 2, heads
    read by several gates, fan-in-1 gates, constant inputs, NOT gates
    between chains, and an AND and an OR prefix chain of ``2 * FOLD_CAP``
    gates each, whose every prefix is read again. ``output`` picks the
    random gates' last one or the OR chain's (whose all -0.0 row answers
    -0.0 only if its folded ORs start from -0.0)."""
    rng = stable_rng(seed)
    c = Circuit()
    gates = [c.variable(f"v{i}") for i in range(n_vars)] + [c.true(), c.false()]
    last = {K_AND: [], K_OR: []}

    def append(kind, inputs):
        gate = c.append_gates(kind, inputs, [0, len(inputs)])[0]
        gates.append(gate)
        return gate

    for kind in (K_AND, K_OR):
        prefix = gates[0]
        for index in range(1, 2 * compiled_module.FOLD_CAP + 1):
            prefix = append(kind, [prefix, gates[index % n_vars]])
            last[kind].append(prefix)
    chain_top = prefix
    for _ in range(steps):
        kind = rng.choice((K_AND, K_OR, K_AND, K_OR, K_NOT))
        if kind == K_NOT:
            append(K_NOT, [rng.choice(gates[n_vars:])])
            continue
        fan = rng.randint(1, 4)
        others = [rng.choice(gates) for _ in range(fan - 1)]
        if rng.random() < 0.8:
            head = rng.choice(last[kind][-3:])
        else:
            head = rng.choice(gates)
        slot = rng.randint(0, fan - 1)
        last[kind].append(append(kind, others[:slot] + [head] + others[slot:]))
    random_top = append(K_OR, [rng.choice(gates[n_vars:]) for _ in range(5)])
    c.set_output(chain_top if output == "or-chain" else random_top)
    return c


def grouping_reference(compiled) -> dict:
    """``(level, kind) -> sorted (fan_in, count)`` of the plan's groups,
    recomputed gate by gate from the rule over :func:`fold_reference`'s
    folded gates: a (level, kind) is one group padded to its widest fan-in
    when that at most doubles the gathered elements, else one group per
    fan-in."""
    blocks: dict = {}
    for pos, (level, inputs) in fold_reference(compiled).items():
        key = (level, compiled.kinds[pos])
        blocks.setdefault(key, Counter())[len(inputs)] += 1
    expected = {}
    for key, fans in blocks.items():
        gates = sum(fans.values())
        elements = sum(fan * count for fan, count in fans.items())
        if max(fans) * gates <= 2 * elements:
            expected[key] = [(max(fans), gates)]
        else:
            expected[key] = sorted(fans.items())
    return expected


def plan_grouping(plan) -> dict:
    grouping: dict = {}
    for depth, level in enumerate(plan.levels, start=1):
        for kind, fan_in, (start, end), _gather in level:
            grouping.setdefault((depth, kind), []).append((fan_in, end - start))
    return {key: sorted(groups) for key, groups in grouping.items()}


def block_count(compiled) -> int:
    """The folded (level, kind, fan-in) blocks: one step each before
    merging."""
    return len({
        (level, compiled.kinds[pos], len(inputs))
        for pos, (level, inputs) in fold_reference(compiled).items()
    })


def same_floats(got, want) -> bool:
    """Bitwise equality, except that any NaN matches any NaN: IEEE 754
    does not interpret a NaN's sign, and numpy's vector loops and Python's
    scalar arithmetic pick between two NaN operands differently."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    bits = got.view(np.uint64) == want.view(np.uint64)
    return bool((bits | (np.isnan(got) & np.isnan(want))).all())


class TestGroupedPlan:
    def test_served_chain_lineage_counts(self):
        """E19's served plan: its 5187 gates fold into 3480 rows in 240
        levels (478 unfolded), and the folded plan's (level, kind, fan-in)
        blocks merge into 241 steps, one per (level, kind). The plan is
        built on the object backend, as the served benchmark builds it:
        the columnar backend lists the same facts in another order, and
        the lineage's size follows that order (4979 gates there). Its wire
        bytes, which the benchmark registers through ``/plans``, are pinned
        too (seeds 1 and 2 give the same bytes)."""
        from repro.core import build_lineage, instance_decomposition
        from repro.queries import atom, cq, variables
        from repro.workloads import rst_chain_tid

        x, y = variables("x", "y")
        query = cq(atom("R", x), atom("S", x, y), atom("T", y))
        tid = rst_chain_tid(120, probability=0.15, seed=1, backend="object")
        decomposition = instance_decomposition(tid.instance, "min_fill")
        compiled = compile_circuit(
            build_lineage(tid.instance, query, decomposition).circuit
        )
        plan = compiled.batch_plan()
        assert compiled.size == 5187
        assert compiled.plan_digest() == "63f00631cd552418a6d9bc7bdf064265"
        assert len(compiled.wire_bytes()) == 126_732
        assert int(compiled.plan.levels.max()) == 478
        assert len(plan.levels) == 240
        assert plan.const_rows[1] + len(fold_reference(compiled)) == 3480
        assert block_count(compiled) == 477
        assert sum(len(level) for level in plan.levels) == 241
        assert plan_grouping(plan) == grouping_reference(compiled)

    @pytest.mark.parametrize("seed", (3, 19, 41, 77))
    def test_mixed_fan_in_levels_follow_the_rule(self, seed):
        compiled = compile_circuit(mixed_fan_circuit(seed))
        plan = compiled.batch_plan()
        assert plan_grouping(plan) == grouping_reference(compiled)
        assert sum(len(level) for level in plan.levels) < block_count(compiled)

    def test_wide_gate_among_narrow_ones_stays_split(self):
        """Padding 30 fan-in-2 ORs to one fan-in-40 OR's width would read
        1240 slots for 100 inputs, so the level keeps two steps; with a
        fan-in-3 block beside the fan-in-2 one, it keeps one per fan-in."""
        c = Circuit()
        xs = [c.variable(f"x{i}") for i in range(40)]
        pairs = [c.or_gate([xs[i], xs[i + 1]]) for i in range(30)]
        c.set_output(c.and_gate(pairs + [c.or_gate(xs)]))
        plan = compile_circuit(c).batch_plan()
        assert plan_grouping(plan)[(1, K_OR)] == [(2, 30), (40, 1)]

        c = Circuit()
        xs = [c.variable(f"x{i}") for i in range(40)]
        narrow = [c.or_gate([xs[i], xs[i + 1]]) for i in range(10)]
        narrow += [c.or_gate([xs[i], xs[i + 1], xs[i + 2]]) for i in range(20, 25)]
        c.set_output(c.and_gate(narrow + [c.or_gate(xs)]))
        compiled = compile_circuit(c)
        assert plan_grouping(compiled.batch_plan())[(1, K_OR)] == [
            (2, 10), (3, 5), (40, 1)
        ]
        rows = np.random.default_rng(4).random((3, 40))
        assert same_floats(
            compiled.probability_batch(rows),
            [compiled.probability(row.tolist()) for row in rows],
        )

    @pytest.mark.parametrize("width", (1, 2, 3, 63, 64, 65))
    def test_passes_match_scalar_oracle_on_special_values(self, width):
        """Float rows of -0.0, NaN, ±inf, the smallest subnormal and 1.0,
        and Boolean worlds across word boundaries: both passes agree with
        the scalar pass, padded groups included."""
        circuits = [padded_or_circuit(), single_input_circuit(),
                    wide_or_circuit()]
        circuits += [mixed_fan_circuit(seed) for seed in (3, 19, 41)]
        for index, circuit in enumerate(circuits):
            compiled = compile_circuit(circuit)
            n = len(compiled.variables())
            rng = np.random.default_rng([width, index])
            rows = rng.choice(SPECIAL_VALUES, size=(width, n))
            rows[0] = -0.0
            with np.errstate(invalid="ignore"):
                got = compiled.probability_batch(rows)
            want = [compiled.probability(row.tolist()) for row in rows]
            assert same_floats(got, want), (index, got, want)
            worlds = rng.random((width, n)) < 0.5
            assert compiled.evaluate_batch(worlds) == [
                compiled.evaluate(world.tolist()) for world in worlds
            ]

    def test_or_padding_keeps_negative_zero(self):
        """OR(x2, x3) reads the OR identity row, and an all -0.0 row still
        answers -0.0, in the level plan and in :meth:`probability`'s scalar
        pass, whose ORs start from -0.0."""
        compiled = compile_circuit(padded_or_circuit())
        grouping = plan_grouping(compiled.batch_plan())
        assert grouping[(1, K_OR)] == [(3, 2)]  # OR(x2, x3) padded
        rows = np.full((2, 7), -0.0)
        scalar = [compiled.probability(row.tolist()) for row in rows]
        assert same_floats(compiled.probability_batch(rows), scalar)
        assert math.copysign(1.0, scalar[0]) == -1.0

    @pytest.mark.parametrize("output", ("random", "or-chain"))
    @pytest.mark.parametrize("seed", range(6))
    def test_folded_plan_matches_scalar_passes(self, seed, output):
        """Folded chains evaluate bit for bit like the scalar passes, at
        widths across the one-row and word boundaries, on rows mixing
        -0.0, +0.0, 1.0, ±inf, NaN and subnormals into random marginals:
        a fold at input 2 would reorder a sum, and a folded OR started at
        +0.0 would lose a -0.0."""
        compiled = compile_circuit(fold_circuit(seed, output))
        plan = compiled.batch_plan()
        assert plan_grouping(plan) == grouping_reference(compiled)
        assert len(plan.levels) < int(compiled.plan.levels.max())
        n = len(compiled.variables())
        for width in (1, 2, 3, 64, 65):
            rng = np.random.default_rng([seed, width])
            rows = rng.random((width, n))
            special = rng.random((width, n)) < 0.5
            rows[special] = rng.choice(FOLD_VALUES, size=int(special.sum()))
            rows[0] = -0.0
            with np.errstate(invalid="ignore"):
                got = compiled.probability_batch(rows)
            want = [compiled.probability(row.tolist()) for row in rows]
            assert same_floats(got, want), (width, got, want)
            worlds = rng.random((width, n)) < 0.5
            assert compiled.evaluate_batch(worlds) == [
                compiled.evaluate(world.tolist()) for world in worlds
            ]

    def test_single_row_wide_or_sums_left_to_right(self):
        """A one-row float pass over a fan-in-16 OR matches the scalar
        pass bit for bit: the plan runs it as a width-2 pass, because
        numpy sums a lone column pairwise."""
        compiled = compile_circuit(wide_or_circuit())
        rows = np.random.default_rng(16).random((8, 16)) / 7
        for row in rows:
            single = compiled.probability_batch(row[None, :])[0]
            assert single == compiled.probability(row.tolist())  # bitwise
