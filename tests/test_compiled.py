"""Tests for the compiled circuit IR and the unified evaluation layer."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (
    ENUMERATION_VARIABLE_CAP,
    Circuit,
    CompiledCircuit,
    available_engines,
    compile_circuit,
    default_engine,
    default_engine_set,
    engine_forced,
    get_engine,
    probability,
    register_engine,
    set_default_engine,
)
from repro.circuits.compiled import K_AND, K_NOT, K_OR, K_TRUE, K_VAR
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
            # keep the previous output inside the new cone (delta-friendly)
            gate = c.or_gate([last, rng.choice(gates)])
        else:
            picked = rng.sample(gates, rng.randint(2, min(4, len(gates))))
            gate = c.and_gate(picked) if op == "and" else c.or_gate(picked)
        gates.append(gate)
        last = gate
    c.set_output(last)


class TestRecompile:
    def test_append_only_edit_takes_the_delta_path(self):
        from repro.circuits import compile_stats, recompile

        c = random_circuit(17, n_vars=8, steps=40)
        old = compile_circuit(c)
        before = compile_stats()
        c.set_output(c.or_gate([c.output, c.variable("appended")]))
        updated = recompile(old, c)
        after = compile_stats()
        assert after["delta_recompiles"] - before["delta_recompiles"] == 1
        assert after["lowerings"] == before["lowerings"]
        assert "appended" in updated.var_names
        fresh = CompiledCircuit(c)
        assert updated.kinds == fresh.kinds
        assert updated.indices == fresh.indices
        assert updated.gate_ids == fresh.gate_ids

    def test_noop_edit_returns_the_same_object(self):
        from repro.circuits import recompile

        c = random_circuit(18)
        old = compile_circuit(c)
        c.variable("never_referenced")  # grows the arena, not the cone
        assert recompile(old, c) is old

    def test_cone_divergence_falls_back_to_full_compile(self):
        from repro.circuits import recompile

        c = random_circuit(19, n_vars=6, steps=30)
        old = compile_circuit(c)
        # New output that does NOT contain the old output gate's cone.
        c.set_output(c.and_gate([c.variable("solo"), c.variable("duo")]))
        updated = recompile(old, c)
        fresh = CompiledCircuit(c)
        assert updated.kinds == fresh.kinds
        assert updated.var_names == fresh.var_names
        assert updated.output == fresh.output

    def test_recompile_requires_a_compiled_old_plan(self):
        from repro.circuits import recompile

        with pytest.raises(ReproError, match="CompiledCircuit"):
            recompile(object(), random_circuit(1))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=25),
)
def test_recompile_is_gate_for_gate_identical_to_fresh_compile(seed, n_edits):
    """Property: after any append-only edit sequence, ``recompile`` against
    the previous lowering produces exactly the arrays a from-scratch
    compile would — same CSR, same interning, same levels, same gate map —
    whether it took the delta fast path or fell back."""
    from repro.circuits import recompile

    c = random_circuit(seed, n_vars=6, steps=20)
    old = compile_circuit(c)
    _apply_edits(c, seed + 1, n_edits)
    updated = recompile(old, c)
    fresh = CompiledCircuit(c)
    assert updated.kinds == fresh.kinds
    assert updated.offsets == fresh.offsets
    assert updated.indices == fresh.indices
    assert updated.var_slot == fresh.var_slot
    assert updated.var_names == fresh.var_names
    assert updated.output == fresh.output
    assert updated.gate_ids == fresh.gate_ids
    assert updated.levels_list() == fresh.levels_list()
    rng = stable_rng(seed + 2)
    for _ in range(4):
        world = {name: rng.random() < 0.5 for name in fresh.var_names}
        assert updated.evaluate(world) == fresh.evaluate(world)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_vectorized_lowering_matches_python_lowering(seed):
    """Property: above ``VECTOR_MIN_GATES`` the array-pass lowering and the
    per-gate python lowering are indistinguishable."""
    from repro.circuits import compiled as compiled_module

    c = random_circuit(seed, n_vars=12, steps=700)
    while len(c) < compiled_module.VECTOR_MIN_GATES:
        c.set_output(c.or_gate([c.output, c.variable(f"pad{len(c)}")]))
    vectorized = CompiledCircuit(c)
    assert vectorized._np32 is not None  # the vector path actually ran
    # Above the circuit's size every pass takes its per-gate python loop:
    # the lowering, and the level schedule computed from its CSR lists.
    saved = compiled_module.VECTOR_MIN_GATES
    try:
        compiled_module.VECTOR_MIN_GATES = len(c) + 1
        scalar = CompiledCircuit(c)
        scalar_levels = scalar.levels_list()
    finally:
        compiled_module.VECTOR_MIN_GATES = saved
    assert scalar._np32 is None  # the python lowering actually ran
    assert vectorized.kinds == scalar.kinds
    assert vectorized.offsets == scalar.offsets
    assert vectorized.indices == scalar.indices
    assert vectorized.var_slot == scalar.var_slot
    assert vectorized.var_names == scalar.var_names
    assert vectorized.output == scalar.output
    assert vectorized.gate_ids == scalar.gate_ids
    assert vectorized.levels_list() == scalar_levels


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
        # Fan-in beyond the infix threshold takes the list-reduction codegen.
        c = Circuit()
        inputs = [c.variable(f"x{i}") for i in range(40)]
        c.set_output(c.and_gate(inputs))
        compiled = compile_circuit(c)
        space = EventSpace({f"x{i}": 0.9 for i in range(40)})
        assert math.isclose(compiled.probability(space), 0.9**40)
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
        from repro.circuits import forced_engine
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
        with engine_forced("sentinel"):
            assert forced_engine() == "sentinel"
            assert tid_probability(query, tid) == -1.0
            with engine_forced("shannon"):
                assert math.isclose(
                    tid_probability(query, tid), expected, abs_tol=1e-9
                )
            assert forced_engine() == "sentinel"  # nesting restores
        assert forced_engine() is None
        assert math.isclose(tid_probability(query, tid), expected, abs_tol=1e-9)

    def test_engine_forced_restores_on_error(self):
        from repro.circuits import forced_engine

        with pytest.raises(RuntimeError, match="boom"):
            with engine_forced("shannon"):
                assert forced_engine() == "shannon"
                raise RuntimeError("boom")
        assert forced_engine() is None

    def test_default_engine_setting(self):
        before = default_engine()
        with default_engine_set("shannon"):
            assert default_engine() == "shannon"
            with pytest.raises(ReproError, match="unknown evaluation engine"):
                set_default_engine("nope")
        assert default_engine() == before


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
        from repro.circuits import moral_graph, wmc_message_passing
        from repro.treewidth import decompose

        c = Circuit()
        x = c.variable("x")
        c.variable("dead")  # unreachable: original ids diverge from binarized
        y = c.variable("y")
        c.set_output(c.and_gate([x, y]))
        decomposition = decompose(moral_graph(c.binarized()), "min_fill")
        space = EventSpace({"x": 0.5, "dead": 0.5, "y": 0.5})
        result = wmc_message_passing(c, space, decomposition=decomposition)
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


def test_fact_id_arena_through_delta_recompile_and_named_appends():
    """An arena of fact-id variables dedups ids, keeps its variables a view
    through a delta recompile (still gathering from the event space), and
    switches to named slots, names intact, once a named variable joins."""
    from repro.circuits import compiled as compiled_module
    from repro.circuits import recompile
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
    old = compile_circuit(c)
    more = list(c.append_variables([3, 2, 3], ids))
    assert more[1] == first[1] and more[0] == more[2]
    c.set_output(c.append_gates(K_OR, [c.output, more[0]], (0, 2))[0])
    before = compiled_module.compile_stats()["delta_recompiles"]
    updated = recompile(old, c)
    assert compiled_module.compile_stats()["delta_recompiles"] == before + 1
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
