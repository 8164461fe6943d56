"""Tests for Boolean circuits and the three WMC engines."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (
    Circuit,
    check_decomposability,
    check_determinism_sampled,
    circuit_width,
    from_formula,
    moral_graph,
    probability,
)
from repro.events import EventSpace, var
from repro.util import ReproError


def xor_circuit() -> Circuit:
    c = Circuit()
    a, b = c.variable("a"), c.variable("b")
    g = c.or_gate(
        [c.and_gate([a, c.negation(b)]), c.and_gate([c.negation(a), b])]
    )
    c.set_output(g)
    return c


class TestConstruction:
    def test_hash_consing(self):
        c = Circuit()
        assert c.variable("x") == c.variable("x")
        g1 = c.and_gate([c.variable("x"), c.variable("y")])
        g2 = c.and_gate([c.variable("x"), c.variable("y")])
        assert g1 == g2

    def test_constant_folding_and(self):
        c = Circuit()
        assert c.and_gate([c.true(), c.variable("x")]) == c.variable("x")
        assert c.and_gate([c.false(), c.variable("x")]) == c.false()

    def test_constant_folding_or(self):
        c = Circuit()
        assert c.or_gate([c.false(), c.variable("x")]) == c.variable("x")
        assert c.or_gate([c.true(), c.variable("x")]) == c.true()

    def test_empty_gates(self):
        c = Circuit()
        assert c.gate(c.and_gate([])).payload is True
        assert c.gate(c.or_gate([])).payload is False

    def test_double_negation(self):
        c = Circuit()
        x = c.variable("x")
        assert c.negation(c.negation(x)) == x

    def test_unknown_input_rejected(self):
        c = Circuit()
        with pytest.raises(ReproError):
            c.and_gate([99])

    def test_variables_reachable_only(self):
        c = Circuit()
        c.variable("unused")
        g = c.variable("used")
        c.set_output(g)
        assert c.variables() == {"used"}


class TestEvaluation:
    def test_xor_truth_table(self):
        c = xor_circuit()
        assert not c.evaluate({"a": False, "b": False})
        assert c.evaluate({"a": True, "b": False})
        assert c.evaluate({"a": False, "b": True})
        assert not c.evaluate({"a": True, "b": True})

    def test_missing_variable(self):
        c = xor_circuit()
        with pytest.raises(ReproError, match="missing variable"):
            c.evaluate({"a": True})

    def test_gate_level_evaluation(self):
        c = Circuit()
        x = c.variable("x")
        g = c.negation(x)
        c.set_output(g)
        assert c.evaluate({"x": False}, gate_id=x) is False
        assert c.evaluate({"x": False}, gate_id=g) is True


class TestTransformations:
    def test_restricted_pins_variable(self):
        c = xor_circuit()
        pinned = c.restricted({"a": True})
        assert pinned.variables() == {"b"}
        assert pinned.evaluate({"b": False}) is True
        assert pinned.evaluate({"b": True}) is False

    def test_binarized_preserves_semantics(self):
        c = Circuit()
        inputs = [c.variable(f"x{i}") for i in range(7)]
        c.set_output(c.and_gate(inputs))
        b = c.binarized()
        assert b.max_fan_in() <= 2
        valuation = {f"x{i}": True for i in range(7)}
        assert b.evaluate(valuation)
        valuation["x3"] = False
        assert not b.evaluate(valuation)

    def test_pruned_drops_unreachable(self):
        c = Circuit()
        c.and_gate([c.variable("dead1"), c.variable("dead2")])
        c.set_output(c.variable("live"))
        assert c.pruned().variables() == {"live"}

    def test_copy_into_with_substitution(self):
        inner = Circuit()
        inner.set_output(c_and := inner.and_gate([inner.variable("p"), inner.variable("q")]))
        outer = Circuit()
        sub = {"p": outer.variable("x"), "q": outer.negation(outer.variable("x"))}
        translation = inner.copy_into(outer, sub)
        outer.set_output(translation[c_and])
        assert not outer.evaluate({"x": True})
        assert not outer.evaluate({"x": False})

    def test_from_formula_roundtrip(self):
        f = (var("a") & ~var("b")) | var("c")
        c, gate = from_formula(f)
        c.set_output(gate)
        for a in (False, True):
            for b in (False, True):
                for cv in (False, True):
                    valuation = {"a": a, "b": b, "c": cv}
                    assert c.evaluate(valuation) == f.evaluate(valuation)


class TestMoralGraph:
    def test_gate_connected_to_inputs(self):
        c = xor_circuit()
        graph = moral_graph(c)
        out = c.output
        for child in c.gate(out).inputs:
            assert graph.has_edge(out, child)

    def test_inputs_pairwise_connected(self):
        c = Circuit()
        g = c.and_gate([c.variable("a"), c.variable("b")])
        c.set_output(g)
        graph = moral_graph(c)
        assert graph.has_edge(c.variable("a"), c.variable("b"))

    def test_circuit_width_small_for_chain(self):
        c = Circuit()
        acc = c.variable("x0")
        for i in range(1, 30):
            acc = c.and_gate([acc, c.variable(f"x{i}")])
        c.set_output(acc)
        assert circuit_width(c) <= 3


SPACE = EventSpace({"a": 0.3, "b": 0.7, "c": 0.5, "d": 0.9})


def random_small_circuit(seed: int) -> Circuit:
    import random

    rng = random.Random(seed)
    c = Circuit()
    gates = [c.variable(n) for n in "abcd"] + [c.true(), c.false()]
    for _ in range(rng.randint(2, 10)):
        op = rng.choice(["and", "or", "not"])
        if op == "not":
            gates.append(c.negation(rng.choice(gates)))
        else:
            picked = rng.sample(gates, rng.randint(2, 3))
            gates.append(c.and_gate(picked) if op == "and" else c.or_gate(picked))
    c.set_output(gates[-1])
    return c


class TestWmcEngines:
    def test_xor_probability(self):
        c = xor_circuit()
        expected = 0.3 * 0.3 + 0.7 * 0.7  # a(1-b) + (1-a)b with pa=.3, pb=.7
        assert math.isclose(probability(c, SPACE, engine="enumerate"), expected)
        assert math.isclose(probability(c, SPACE, engine="shannon"), expected)
        assert math.isclose(
            probability(c, SPACE, engine="message_passing"), expected
        )

    def test_constant_output(self):
        c = Circuit()
        c.set_output(c.true())
        assert probability(c, SPACE, engine="message_passing") == 1.0
        c2 = Circuit()
        c2.set_output(c2.false())
        assert probability(c2, SPACE, engine="message_passing") == 0.0

    @pytest.mark.parametrize("seed", range(25))
    def test_engines_agree_on_random_circuits(self, seed):
        c = random_small_circuit(seed)
        reference = probability(c, SPACE, engine="enumerate")
        assert math.isclose(
            probability(c, SPACE, engine="shannon"), reference, abs_tol=1e-9
        )
        assert math.isclose(
            probability(c, SPACE, engine="message_passing"), reference,
            abs_tol=1e-9,
        )

    def test_message_passing_width_guard(self):
        c = Circuit()
        # A complete "majority-ish" structure over many variables can exceed
        # a tiny width bound.
        layers = [c.variable(f"v{i}") for i in range(8)]
        big = c.or_gate(
            [c.and_gate([layers[i], layers[j]]) for i in range(8) for j in range(i + 1, 8)]
        )
        c.set_output(big)
        space = EventSpace({f"v{i}": 0.5 for i in range(8)})
        with pytest.raises(ReproError, match="exceeds max_width"):
            probability(c, space, engine="message_passing", max_width=1)

    def test_report_contains_width(self):
        c = xor_circuit()
        _p, report = probability(
            c, SPACE, engine="message_passing", return_report=True
        )
        assert report.width >= 1
        assert report.bag_count >= 1


class TestDetDecomposable:
    def test_probability_dd_on_shannon_form(self):
        # Shannon expansion of (a AND b): a·b + (1-a)·0 — det and decomposable.
        c = Circuit()
        a, b = c.variable("a"), c.variable("b")
        g = c.or_gate([c.and_gate([a, b])])
        c.set_output(g)
        assert math.isclose(probability(c, SPACE, engine="dd"), 0.3 * 0.7)

    def test_check_decomposability_flags_shared_vars(self):
        c = Circuit()
        a = c.variable("a")
        g = c.and_gate([a, c.or_gate([a, c.variable("b")])])
        c.set_output(g)
        assert not check_decomposability(c)

    def test_check_decomposability_accepts_disjoint(self):
        c = Circuit()
        g = c.and_gate([c.variable("a"), c.variable("b")])
        c.set_output(g)
        assert check_decomposability(c)

    def test_check_determinism_flags_overlapping_or(self):
        c = Circuit()
        g = c.or_gate([c.variable("a"), c.variable("b")])  # both can be true
        c.set_output(g)
        assert not check_determinism_sampled(c, trials=500)

    def test_check_determinism_accepts_exclusive_or(self):
        c = xor_circuit()
        assert check_determinism_sampled(c, trials=500)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_shannon_equals_enumeration_property(seed):
    c = random_small_circuit(seed)
    assert math.isclose(
        probability(c, SPACE, engine="shannon"),
        probability(c, SPACE, engine="enumerate"),
        abs_tol=1e-9,
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_message_passing_equals_enumeration_property(seed):
    c = random_small_circuit(seed)
    assert math.isclose(
        probability(c, SPACE, engine="message_passing"),
        probability(c, SPACE, engine="enumerate"),
        abs_tol=1e-9,
    )


class TestBulkAppend:
    """The bulk arena APIs behind the witness-DNF provenance builder."""

    def test_append_variables_fast_path_matches_scalar(self):
        bulk, scalar = Circuit(), Circuit()
        names = [f"v{i}" for i in range(6)]
        got = list(bulk.append_variables(names))
        want = [scalar.variable(n) for n in names]
        assert got == want
        assert bulk._kind_codes == scalar._kind_codes
        assert bulk._var_slots == scalar._var_slots
        assert bulk._slot_names == scalar._slot_names

    def test_append_variables_dedups_existing(self):
        c = Circuit()
        a = c.variable("a")
        got = list(c.append_variables(["b", "a", "b", "c"]))
        assert got[1] == a
        assert got[0] == got[2]  # in-batch duplicate resolves to one gate
        assert c._slot_names == ["a", "b", "c"]

    def test_append_gates_matches_scalar_construction(self):
        from repro.circuits.circuit import K_AND, K_NOT, K_OR

        bulk, scalar = Circuit(), Circuit()
        bulk.append_variables(["x", "y"])
        scalar.variable("x")
        scalar.variable("y")
        got = bulk.append_gates(
            [K_AND, K_NOT, K_OR], [0, 1, 2, 0, 3], [0, 2, 3, 5]
        )
        g_and = scalar.and_gate([0, 1])
        g_not = scalar.negation(g_and)
        scalar.or_gate([0, g_not])
        assert list(got) == [2, 3, 4]
        assert bulk._kind_codes == scalar._kind_codes
        assert bulk._inputs_flat == scalar._inputs_flat
        assert bulk._input_offsets == scalar._input_offsets
        assert bulk._gate_levels == scalar._gate_levels

    def test_append_gates_rejects_bad_rows(self):
        from repro.circuits.circuit import K_AND, K_VAR

        c = Circuit()
        c.append_variables(["x", "y"])
        with pytest.raises(ReproError, match="operator gates only"):
            c.append_gates([K_VAR], [0], [0, 1])
        with pytest.raises(ReproError, match=">= 1 input"):
            c.append_gates([K_AND], [], [0, 0])
        with pytest.raises(ReproError, match="one entry per gate"):
            c.append_gates([K_AND], [0, 1], [0])
        with pytest.raises(ReproError, match="earlier gates"):
            c.append_gates([K_AND], [0, 7], [0, 2])
