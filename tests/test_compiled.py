"""Tests for the compiled circuit IR and the unified evaluation layer."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import config
from repro.circuits import (
    ENUMERATION_VARIABLE_CAP,
    Circuit,
    CompiledCircuit,
    available_engines,
    compile_circuit,
    get_engine,
    probability,
    register_engine,
)
from repro.circuits.compiled import (
    K_AND,
    K_NOT,
    K_OR,
    K_TRUE,
    K_VAR,
    reference_lowering,
)
from repro.core import build_lineage
from repro.events import EventSpace
from repro.instances import TIDInstance, fact
from repro.queries import atom, cq, variables
from repro.util import ReproError, stable_rng


def random_circuit(seed: int, n_vars: int = 5, steps: int = 12) -> Circuit:
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


def random_chain_tid(seed: int, length: int = 4) -> TIDInstance:
    rng = stable_rng(seed)
    tid = TIDInstance()
    for i in range(length):
        tid.add(fact("R", i), round(rng.random(), 3))
        tid.add(fact("T", i), round(rng.random(), 3))
        if i + 1 < length:
            tid.add(fact("S", i, i + 1), round(rng.random(), 3))
    return tid


class TestLowering:
    def test_csr_structure_is_topological(self):
        c = random_circuit(7)
        compiled = compile_circuit(c)
        assert compiled.size == len(c.reachable_from_output())
        for pos in range(compiled.size):
            for child in compiled.inputs_of(pos):
                assert child < pos  # inputs precede their gate

    def test_kind_codes_match_arena(self):
        c = Circuit()
        g = c.and_gate([c.variable("a"), c.negation(c.variable("b")), c.true()])
        c.set_output(c.or_gate([g, c.variable("b")]))
        compiled = compile_circuit(c)
        kinds = set(compiled.kinds)
        assert K_VAR in kinds and K_AND in kinds and K_OR in kinds and K_NOT in kinds
        assert K_TRUE not in kinds  # constant-folded away by and_gate

    def test_variables_interned_once(self):
        c = Circuit()
        c.set_output(c.or_gate([c.variable("x"), c.negation(c.variable("x"))]))
        compiled = compile_circuit(c)
        assert compiled.variables() == ("x",)

    def test_compile_requires_output(self):
        with pytest.raises(ReproError, match="no output"):
            compile_circuit(Circuit())

    def test_compile_cache_reused_and_invalidated(self):
        c = random_circuit(3)
        first = compile_circuit(c)
        assert compile_circuit(c) is first
        # Mutating the arena (new gate + new output) must recompile.
        c.set_output(c.and_gate([c.output, c.variable("fresh")]))
        second = compile_circuit(c)
        assert second is not first
        assert "fresh" in second.variables()

    def test_compile_stats_count_lowerings_and_memo_hits(self):
        """A compile either lowers or answers from the arena memo; the
        counters say which, and there is nothing else to count."""
        from repro.circuits import compile_stats

        c = random_circuit(4)
        before = compile_stats()
        assert set(before) == {"lowerings", "arena_cache_hits"}
        first = compile_circuit(c)
        assert compile_circuit(c) is first
        after = compile_stats()
        assert after["lowerings"] == before["lowerings"] + 1
        assert after["arena_cache_hits"] == before["arena_cache_hits"] + 1

    def test_compiled_passthrough(self):
        compiled = compile_circuit(random_circuit(11))
        assert compile_circuit(compiled) is compiled

    def test_missing_valuation_variable(self):
        compiled = compile_circuit(random_circuit(2))
        with pytest.raises(ReproError, match="missing variable"):
            compiled.evaluate({})

    def test_set_output_round_trip_is_not_stale(self):
        """The memo is keyed per (version, output): toggling the output
        back and forth returns each output's own lowering, cached."""
        c = random_circuit(3)
        original_output = c.output
        first = compile_circuit(c)
        other = c.negation(original_output)
        c.set_output(other)
        flipped = compile_circuit(c)
        assert flipped is not first
        assert flipped.output != first.output or flipped.kinds != first.kinds
        c.set_output(original_output)
        assert compile_circuit(c) is first  # same version + output: cached
        c.set_output(other)
        assert compile_circuit(c) is flipped


def _apply_edits(c: Circuit, seed: int, n_edits: int) -> None:
    """Append random gates and re-point the output (arena only grows)."""
    rng = stable_rng(seed)
    gates = list(range(len(c)))
    last = c.output
    for i in range(n_edits):
        op = rng.choice(["and", "or", "not", "var", "extend"])
        if op == "var":
            gate = c.variable(f"edit{seed}_{i}")
        elif op == "not":
            gate = c.negation(rng.choice(gates))
        elif op == "extend" and last is not None:
            # keep the previous output inside the new cone
            gate = c.or_gate([last, rng.choice(gates)])
        else:
            picked = rng.sample(gates, rng.randint(2, min(4, len(gates))))
            gate = c.and_gate(picked) if op == "and" else c.or_gate(picked)
        gates.append(gate)
        last = gate
    c.set_output(last)


def lowering_of(compiled: CompiledCircuit) -> dict:
    """A lowering's arrays, keyed as :func:`reference_lowering` keys them."""
    return {
        "kinds": compiled.kinds,
        "offsets": compiled.offsets,
        "indices": compiled.indices,
        "var_slot": compiled.var_slot,
        "var_names": compiled.var_names,
        "output": compiled.output,
        "gate_ids": compiled.gate_ids,
        "levels": compiled.plan.levels.tolist(),
    }


def assert_same_lowering(left: CompiledCircuit, right: CompiledCircuit) -> None:
    assert lowering_of(left) == lowering_of(right)


def assert_lowers_like_the_reference(compiled: CompiledCircuit, c: Circuit) -> None:
    """``compiled`` holds the arrays of the per-gate reference lowering."""
    assert lowering_of(compiled) == reference_lowering(c)


class TestGrownArena:
    def test_grown_arena_lowers_afresh(self):
        """A grown arena is one new lowering, equal to a cold one."""
        from repro.circuits import compile_stats

        c = random_circuit(17, n_vars=8, steps=40)
        compile_circuit(c)
        before = compile_stats()
        c.set_output(c.or_gate([c.output, c.variable("appended")]))
        updated = compile_circuit(c)
        after = compile_stats()
        assert after["lowerings"] == before["lowerings"] + 1
        assert "appended" in updated.var_names
        assert_same_lowering(updated, CompiledCircuit(c))

    def test_growth_outside_the_cone_keeps_the_arrays(self):
        c = random_circuit(18)
        old = compile_circuit(c)
        c.variable("never_referenced")  # grows the arena, not the cone
        assert_same_lowering(compile_circuit(c), old)

    def test_output_moved_to_a_disjoint_cone(self):
        c = random_circuit(19, n_vars=6, steps=30)
        compile_circuit(c)
        # New output that does NOT contain the old output gate's cone.
        c.set_output(c.and_gate([c.variable("solo"), c.variable("duo")]))
        compiled = CompiledCircuit(c)
        assert_lowers_like_the_reference(compiled, c)
        assert compiled.var_names == ("solo", "duo")


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=25),
)
def test_grown_arena_array_lowering_matches_python_lowering(seed, n_edits):
    """Property: after any append-only edit sequence, which leaves cones
    of gates no longer reachable from the moved output, the array
    lowering peels exactly those and produces the per-gate python
    reference's arrays — same CSR, same interning, same levels, same gate
    map — and evaluates like the arena."""
    c = random_circuit(seed, n_vars=6, steps=20)
    compile_circuit(c)
    _apply_edits(c, seed + 1, n_edits)
    compiled = compile_circuit(c)
    assert_lowers_like_the_reference(compiled, c)
    rng = stable_rng(seed + 2)
    for _ in range(4):
        world = {name: rng.random() < 0.5 for name in compiled.var_names}
        assert compiled.evaluate(world) == c.evaluate(world)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_vectorized_lowering_matches_python_lowering(seed):
    """Property: on random arenas of 512 gates and more, the array-pass
    lowering and the per-gate python reference are indistinguishable."""
    c = random_circuit(seed, n_vars=12, steps=700)
    while len(c) < 512:
        c.set_output(c.or_gate([c.output, c.variable(f"pad{len(c)}")]))
    assert_lowers_like_the_reference(CompiledCircuit(c), c)


def alternating_chain(links: int, dead_tail: int = 0) -> Circuit:
    """An AND/OR chain over fresh variables, one level per link.

    With ``dead_tail``, that many more chain gates are appended and the
    output moves to a 3-gate cone created after them, so the whole chain
    lies below the output, unreachable.
    """
    c = Circuit()
    gate = c.variable("x0")
    for i in range(1, links + 1):
        pair = [gate, c.variable(f"x{i}")]
        gate = c.and_gate(pair) if i % 2 else c.or_gate(pair)
    for i in range(dead_tail):
        gate = c.or_gate([gate, c.variable(f"d{i}")])
    if dead_tail:
        c.set_output(c.and_gate([c.variable("y0"), c.variable("y1")]))
    else:
        c.set_output(gate)
    return c


def test_deep_chain_lowers_on_the_array_path():
    """Depth is no limit: a chain of more than 8192 levels (where a
    level-by-level walk used to give up) lowers on the array path, with
    the per-gate reference's arrays and level schedule."""
    c = alternating_chain(9000)
    compiled = CompiledCircuit(c)
    assert int(compiled.plan.levels.max()) == 9000
    assert_lowers_like_the_reference(compiled, c)
    marginals = [0.5] * len(compiled.var_names)
    assert compiled.probability_batch([marginals])[0] == compiled.probability(
        marginals
    )


def test_dead_chain_under_a_small_output_lowers_exactly():
    """The peeling's worst shape: a long chain of gates no longer
    reachable, one peeled per round, under a 3-gate output."""
    c = alternating_chain(4, dead_tail=3000)
    assert c.output == len(c) - 1
    compiled = CompiledCircuit(c)
    assert compiled.size == 3
    assert_lowers_like_the_reference(compiled, c)


# Edge cases of the peeling, each returning (arena, gates the output
# reaches, counted by hand).

def _shape_nothing_to_peel():
    c = Circuit()
    a, b = c.variable("a"), c.variable("b")
    c.set_output(c.or_gate([c.and_gate([a, b]), c.negation(a)]))
    return c, 5


def _shape_output_is_a_variable():
    c = Circuit()
    c.variable("before")
    c.set_output(c.variable("x"))
    return c, 1


def _shape_output_is_a_constant():
    c = Circuit()
    c.variable("a")
    c.set_output(c.true())
    return c, 1


def _shape_gates_above_the_output():
    # Unreachable by construction: everything created after the output.
    c = Circuit()
    out = c.and_gate([c.variable("a"), c.variable("b")])
    c.or_gate([out, c.variable("late")])
    c.negation(out)
    c.set_output(out)
    return c, 3


def _shape_dead_leaves_below_the_output():
    # One round that removes only leaves: no inputs to gather.
    c = Circuit()
    c.variable("u0")
    c.true()
    a = c.variable("a")
    c.false()
    c.variable("u1")
    c.set_output(c.or_gate([a, c.variable("b")]))
    return c, 3


def _shape_dead_gate_over_live_inputs():
    # Peeling the dead OR leaves its live input; its other input dies.
    c = Circuit()
    a, b, d = c.variable("a"), c.variable("b"), c.variable("d")
    live = c.and_gate([a, b])
    c.or_gate([live, d])
    c.set_output(c.or_gate([live, c.negation(b)]))
    return c, 5


def _shape_dead_diamond():
    # Two dead gates share a dead input: its count drops by two in one
    # round; the input they share with the output stays.
    c = Circuit()
    a, b, x = c.variable("a"), c.variable("b"), c.variable("x")
    base = c.and_gate([a, b])
    c.or_gate([base, x])
    c.negation(base)
    c.set_output(c.or_gate([x, a]))
    return c, 3


def _shape_repeated_inputs():
    # append_gates keeps a repeated input: the dead AND holds two of the
    # shared OR's three counts, and the live output reads it twice.
    c = Circuit()
    a, b = c.variable("a"), c.variable("b")
    shared = len(c)
    gates = c.append_gates(
        ["or", "and", "or"],
        [a, b, shared, shared, shared, a, shared],
        [0, 2, 4, 7],
    )
    c.set_output(gates[-1])
    return c, 4


def _shape_dead_chain():
    return alternating_chain(4, dead_tail=10), 3


def _shape_interleaved():
    # Live and dead gates alternate in creation order.
    c = Circuit()
    acc = c.variable("v0")
    for i in range(1, 9):
        v = c.variable(f"v{i}")
        c.and_gate([acc, c.negation(v)])
        acc = c.or_gate([acc, v])
    c.set_output(acc)
    return c, 17


def _shape_wide_dead_fan_in():
    # A dead OR over twelve variables; the six the output skips die too.
    c = Circuit()
    vs = [c.variable(f"w{i}") for i in range(12)]
    c.or_gate(vs)
    c.set_output(c.and_gate(vs[::2]))
    return c, 7


def _shape_dead_negation_ladder():
    # Five dead NOT gates in a row (append_gates does not cancel them),
    # one peeled per round, over a variable the output also reads.
    c = Circuit()
    a, b = c.variable("a"), c.variable("b")
    base = len(c)
    c.append_gates("not", [a, base, base + 1, base + 2, base + 3], range(6))
    c.set_output(c.and_gate([a, b]))
    return c, 3


PEEL_SHAPES = {
    "nothing-to-peel": _shape_nothing_to_peel,
    "output-is-a-variable": _shape_output_is_a_variable,
    "output-is-a-constant": _shape_output_is_a_constant,
    "gates-above-the-output": _shape_gates_above_the_output,
    "dead-leaves-below-the-output": _shape_dead_leaves_below_the_output,
    "dead-gate-over-live-inputs": _shape_dead_gate_over_live_inputs,
    "dead-diamond": _shape_dead_diamond,
    "repeated-inputs": _shape_repeated_inputs,
    "dead-chain": _shape_dead_chain,
    "interleaved": _shape_interleaved,
    "wide-dead-fan-in": _shape_wide_dead_fan_in,
    "dead-negation-ladder": _shape_dead_negation_ladder,
}


@pytest.mark.parametrize("shape", sorted(PEEL_SHAPES))
def test_peeling_keeps_exactly_the_gates_the_output_reaches(shape):
    """The array lowering keeps the hand-counted gates of each shape,
    equals the per-gate python reference, and evaluates like the arena."""
    c, reached = PEEL_SHAPES[shape]()
    compiled = CompiledCircuit(c)
    assert compiled.size == reached
    assert_lowers_like_the_reference(compiled, c)
    names = compiled.var_names
    for mask in range(1 << len(names)):
        world = {name: bool(mask >> i & 1) for i, name in enumerate(names)}
        assert compiled.evaluate(world) == c.evaluate(world)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=12),
)
def test_gathered_levels_are_the_level_definition(seed, n_edits):
    """The lowering gathers its level schedule from the arena; it is
    :func:`gate_levels` of its own CSR arrays, which is what the batch
    plan, the wire format and the shared segment rely on."""
    from repro.circuits import compiled as compiled_module

    c = random_circuit(seed, n_vars=6, steps=20)
    _apply_edits(c, seed + 1, n_edits)
    lowered = CompiledCircuit(c)
    levels = lowered.plan.levels.tolist()
    assert levels == compiled_module.gate_levels(
        lowered.kinds, lowered.offsets, lowered.indices
    )
    assert compiled_module.levels_consistent(
        lowered.kinds, lowered.offsets, lowered.indices, levels
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=31))
def test_compiled_evaluate_matches_object_graph(seed, mask):
    """Property: CompiledCircuit.evaluate == Circuit.evaluate on random input."""
    c = random_circuit(seed)
    compiled = compile_circuit(c)
    names = sorted({f"v{i}" for i in range(5)})
    valuation = {n: bool(mask >> i & 1) for i, n in enumerate(names)}
    assert compiled.evaluate(valuation) == c.evaluate(valuation)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_compiled_batch_matches_single_evaluation(seed):
    """Property: evaluate_batch agrees with evaluate row by row."""
    c = random_circuit(seed)
    compiled = compile_circuit(c)
    names = [f"v{i}" for i in range(5)]
    rows = [
        {n: bool(mask >> i & 1) for i, n in enumerate(names)} for mask in range(32)
    ]
    batch = compiled.evaluate_batch(rows)
    assert batch == [c.evaluate(row) for row in rows]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_all_engines_agree_on_random_circuits(seed):
    """Property: every registered general engine matches the oracle."""
    c = random_circuit(seed)
    space = EventSpace({f"v{i}": 0.1 + 0.15 * i for i in range(5)})
    reference = probability(c, space, engine="enumerate")
    for engine in ("shannon", "message_passing"):
        assert math.isclose(
            probability(c, space, engine=engine), reference, abs_tol=1e-9
        ), engine


@pytest.mark.parametrize("seed", range(8))
def test_all_engines_agree_on_tid_lineages(seed):
    """All registered engines agree within 1e-9 on shared random TID instances.

    Lineage circuits from the Theorem-1 pipeline are deterministic and
    decomposable, so even the ``dd`` engine is exact here.
    """
    x, y = variables("x", "y")
    query = cq(atom("R", x), atom("S", x, y), atom("T", y))
    tid = random_chain_tid(seed)
    lineage = build_lineage(tid.instance, query)
    space = tid.event_space()
    results = {
        engine: probability(lineage.circuit, space, engine=engine)
        for engine in available_engines()
    }
    reference = results["enumerate"]
    for engine, value in results.items():
        assert math.isclose(value, reference, abs_tol=1e-9), (engine, value, reference)


class TestProbabilityFastPaths:
    def test_dd_pass_on_marginal_sequence(self):
        c = Circuit()
        c.set_output(c.and_gate([c.variable("a"), c.variable("b")]))
        compiled = compile_circuit(c)
        by_slot = [0.25 if n == "a" else 0.5 for n in compiled.variables()]
        assert math.isclose(compiled.probability(by_slot), 0.125)
        assert math.isclose(compiled.probability({"a": 0.25, "b": 0.5}), 0.125)

    def test_enumeration_cap_names_the_limit(self):
        c = Circuit()
        c.set_output(c.or_gate([c.variable(f"v{i}") for i in range(30)]))
        compiled = compile_circuit(c)
        space = EventSpace({f"v{i}": 0.5 for i in range(30)})
        assert ENUMERATION_VARIABLE_CAP == 26
        with pytest.raises(ReproError, match="26 variables"):
            compiled.probability_enumerate(space)

    def test_large_fan_in_uses_reduction_path(self):
        # A 40-input AND is one left-to-right product in the scalar pass,
        # the same reduction the level plan runs.
        c = Circuit()
        inputs = [c.variable(f"x{i}") for i in range(40)]
        c.set_output(c.and_gate(inputs))
        compiled = compile_circuit(c)
        space = EventSpace({f"x{i}": 0.9 for i in range(40)})
        assert math.isclose(compiled.probability(space), 0.9**40)
        assert compiled.probability(space) == compiled.probability_batch(
            [space, space]
        )[0]
        assert compiled.evaluate({f"x{i}": True for i in range(40)})
        assert not compiled.evaluate(
            {f"x{i}": i != 7 for i in range(40)}
        )

    def test_enumeration_reusable_buffer_correct(self):
        # The mask loop reuses one slot array; totals must still be exact.
        c = Circuit()
        a, b = c.variable("a"), c.variable("b")
        c.set_output(
            c.or_gate([c.and_gate([a, c.negation(b)]), c.and_gate([c.negation(a), b])])
        )
        space = EventSpace({"a": 0.3, "b": 0.7})
        expected = 0.3 * 0.3 + 0.7 * 0.7
        assert math.isclose(compile_circuit(c).probability_enumerate(space), expected)


class TestEngineRegistry:
    def test_builtin_engines_registered(self):
        assert {"dd", "enumerate", "message_passing", "shannon"} <= set(
            available_engines()
        )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ReproError, match="unknown evaluation engine"):
            get_engine("does-not-exist")

    def test_custom_engine_roundtrip(self):
        # The autouse conftest fixture restores the registry afterwards.
        register_engine("always_half", lambda compiled, space, **kw: 0.5)
        c = Circuit()
        c.set_output(c.variable("x"))
        assert probability(c, EventSpace({"x": 0.9}), engine="always_half") == 0.5

    def test_forced_engine_overrides_every_dispatch(self):
        # The CLI --engine knob: forcing must reach even consumers that pin
        # an engine explicitly (tid_probability pins "dd").
        from repro.baselines import tid_probability_enumerate
        from repro.core import tid_probability
        from repro.instances import TIDInstance, fact
        from repro.queries import atom, cq, variables

        x, y = variables("x", "y")
        query = cq(atom("R", x), atom("S", x, y), atom("T", y))
        tid = TIDInstance(
            {fact("R", 1): 0.6, fact("S", 1, 2): 0.5, fact("T", 2): 0.8}
        )
        expected = tid_probability_enumerate(query, tid)
        register_engine("sentinel", lambda compiled, space, **kw: -1.0)
        with config.overrides(forced_engine="sentinel"):
            assert config.get("forced_engine") == "sentinel"
            assert tid_probability(query, tid) == -1.0
            with config.overrides(forced_engine="shannon"):
                assert math.isclose(
                    tid_probability(query, tid), expected, abs_tol=1e-9
                )
            assert config.get("forced_engine") == "sentinel"  # nesting restores
        assert config.get("forced_engine") is None
        assert math.isclose(tid_probability(query, tid), expected, abs_tol=1e-9)

    def test_engine_forced_restores_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with config.overrides(forced_engine="shannon"):
                assert config.get("forced_engine") == "shannon"
                raise RuntimeError("boom")
        assert config.get("forced_engine") is None

    def test_default_engine_setting(self):
        before = config.get("engine")
        with config.overrides(engine="shannon"):
            assert config.get("engine") == "shannon"
            with pytest.raises(ReproError, match="unknown engine 'nope'"):
                config.configure(engine="nope")
            assert config.get("engine") == "shannon"
        assert config.get("engine") == before


class TestStructuralCaches:
    def test_decomposition_cached_per_heuristic(self):
        compiled = compile_circuit(random_circuit(5))
        assert compiled.decomposition("min_fill") is compiled.decomposition("min_fill")

    def test_binarized_cached_and_binary(self):
        c = Circuit()
        c.set_output(c.and_gate([c.variable(f"x{i}") for i in range(7)]))
        compiled = compile_circuit(c)
        binc = compiled.binarized()
        assert binc is compiled.binarized()
        assert all(
            binc.offsets[p + 1] - binc.offsets[p] <= 2 for p in range(binc.size)
        )

    def test_external_decomposition_over_binarized_ids(self):
        # Callers build decompositions over circuit.binarized() gate ids
        # (densely renumbered); an unreachable gate in the source arena must
        # not shift the translation to compiled positions.
        from repro.circuits import moral_graph
        from repro.treewidth import decompose

        c = Circuit()
        x = c.variable("x")
        c.variable("dead")  # unreachable: original ids diverge from binarized
        y = c.variable("y")
        c.set_output(c.and_gate([x, y]))
        decomposition = decompose(moral_graph(c.binarized()), "min_fill")
        space = EventSpace({"x": 0.5, "dead": 0.5, "y": 0.5})
        result = probability(
            c, space, engine="message_passing", decomposition=decomposition
        )
        assert math.isclose(result, 0.25)


class TestCompiledConsumers:
    def test_lineage_compiled_is_cached(self):
        x, y = variables("x", "y")
        query = cq(atom("R", x), atom("S", x, y), atom("T", y))
        tid = random_chain_tid(0)
        lineage = build_lineage(tid.instance, query)
        assert lineage.compiled() is lineage.compiled()
        assert isinstance(lineage.compiled(), CompiledCircuit)

    def test_monte_carlo_lineage_batch_close_to_exact(self):
        from repro.baselines import monte_carlo_probability, tid_probability_enumerate

        x, y = variables("x", "y")
        query = cq(atom("R", x), atom("S", x, y), atom("T", y))
        tid = random_chain_tid(1, length=3)
        exact = tid_probability_enumerate(query, tid)
        batched = monte_carlo_probability(query, tid, samples=4000, seed=0)
        legacy = monte_carlo_probability(
            query, tid, samples=4000, seed=0, method="worlds"
        )
        assert abs(batched - exact) < 0.05
        assert abs(legacy - exact) < 0.05


def test_fact_id_arena_through_a_grown_compile_and_named_appends():
    """An arena of fact-id variables dedups ids, keeps its variables a view
    through the compile of the grown arena (still gathering from the event
    space), and switches to named slots, names intact, once a named
    variable joins."""
    from repro.events.space import FactNames

    probs = [0.1, 0.2, 0.3, 0.4]
    tid = TIDInstance(
        [(fact("R", i), p) for i, p in enumerate(probs)], backend="columnar"
    )
    stale = tid.event_space()
    tid.add(fact("R", 4), 0.5)
    ids = tid.instance.id_space
    c = Circuit()
    first = list(c.append_variables([0, 2, 4], ids))
    c.set_output(c.append_gates(K_OR, first, (0, 3))[0])
    compile_circuit(c)
    more = list(c.append_variables([3, 2, 3], ids))
    assert more[1] == first[1] and more[0] == more[2]
    c.set_output(c.append_gates(K_OR, [c.output, more[0]], (0, 2))[0])
    updated = compile_circuit(c)
    assert isinstance(updated.var_names, FactNames)
    names = ("f:R(0)", "f:R(2)", "f:R(4)", "f:R(3)")
    assert updated.var_names == CompiledCircuit(c).var_names == names
    assert list(updated.slot_marginals(tid.event_space())) == [0.1, 0.3, 0.5, 0.4]
    # A space snapshot taken before R(4) existed has no event for it.
    with pytest.raises(ReproError, match="unknown event"):
        updated.slot_marginals(stale)
    c.variable("x")
    assert c._slot_names == [*names, "x"]
    assert c.variable("f:R(2)") == first[1]
    # Fact ids appended to the now name-keyed arena resolve by name.
    again = list(c.append_variables([2, 1], ids))
    assert again[0] == first[1]
    assert c._slot_names == [*names, "x", "f:R(1)"]
