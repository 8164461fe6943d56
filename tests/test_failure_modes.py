"""Failure-injection tests: every guard fires with a useful message.

A production library must fail loudly and legibly. These tests drive each
subsystem into its documented failure modes and assert the error type and
message content.
"""

import pytest

from repro.circuits import Circuit, probability
from repro.conditioning import ConditionedInstance, SimulatedCrowd
from repro.core import build_lineage, build_provenance_circuit
from repro.core.engine import assign_facts_to_bags
from repro.events import EventSpace, var
from repro.instances import Instance, PCInstance, TIDInstance, fact, pcc_from_pc
from repro.order import LabeledPoset, chain
from repro.prxml import PrXMLDocument, mux, regular
from repro.queries import atom, cq, variables
from repro.rules import chase, probabilistic_chase, rule, ProbabilisticRule
from repro.treewidth import TreeDecomposition, build_nice_tree
from repro.util import ReproError

X, Y = variables("x", "y")


class TestCircuitGuards:
    def test_no_output_gate(self):
        c = Circuit()
        c.variable("x")
        with pytest.raises(ReproError, match="no output"):
            c.evaluate({"x": True})

    def test_missing_valuation_entry(self):
        c = Circuit()
        c.set_output(c.variable("x"))
        with pytest.raises(ReproError, match="missing variable"):
            c.evaluate({})

    def test_enumeration_variable_cap(self):
        c = Circuit()
        c.set_output(c.or_gate([c.variable(f"v{i}") for i in range(30)]))
        space = EventSpace({f"v{i}": 0.5 for i in range(30)})
        with pytest.raises(ReproError, match="26 variables"):
            probability(c, space, engine="enumerate")

    def test_message_passing_unknown_event(self):
        c = Circuit()
        c.set_output(c.variable("mystery"))
        with pytest.raises(ReproError, match="unknown event"):
            probability(c, EventSpace(), engine="message_passing")


class TestDecompositionGuards:
    def test_fact_not_covered_by_any_bag(self):
        instance = Instance([fact("E", 1, 2)])
        bad = TreeDecomposition({0: {1}, 1: {2}}, [(0, 1)])
        with pytest.raises(ReproError, match="no bag contains"):
            assign_facts_to_bags(instance, bad)

    def test_lineage_with_invalid_decomposition(self):
        tid = TIDInstance({fact("E", 1, 2): 0.5})
        bad = TreeDecomposition({0: {1}}, [])
        with pytest.raises(ReproError):
            build_lineage(tid.instance, cq(atom("E", X, Y)), bad)

    def test_nice_tree_from_single_bag(self):
        # Degenerate but legal: one bag holding everything.
        td = TreeDecomposition({0: {1, 2, 3}}, [])
        nice = build_nice_tree(td)
        assert nice.root.bag == frozenset()


class TestInstanceGuards:
    def test_possible_worlds_cap(self):
        tid = TIDInstance({fact("R", i): 0.5 for i in range(25)})
        with pytest.raises(ReproError, match="20 facts"):
            list(tid.possible_worlds())

    def test_pc_event_cap(self):
        pc = PCInstance()
        for i in range(25):
            pc.add_event(f"e{i}", 0.5)
            pc.add(fact("R", i), var(f"e{i}"))
        with pytest.raises(ReproError, match="20 events"):
            list(pc.possible_worlds())

    def test_unknown_fact_probability(self):
        tid = TIDInstance()
        with pytest.raises(ReproError, match="unknown fact"):
            tid.probability(fact("R", 1))


class TestPrXMLGuards:
    def test_mux_overweight(self):
        with pytest.raises(ReproError, match="sum"):
            mux([(regular("a"), 0.8), (regular("b"), 0.5)])

    def test_document_enumeration_caps(self):
        from repro.prxml.semantics import world_distribution
        from repro.prxml import ind

        children = [(regular(f"c{i}"), 0.5) for i in range(20)]
        doc = PrXMLDocument(regular("root", [ind(children)]))
        with pytest.raises(ReproError, match="local choices"):
            list(world_distribution(doc))


class TestOrderGuards:
    def test_order_cycle_rejected(self):
        poset = chain(["a", "b"], "p")
        with pytest.raises(ReproError, match="cycle"):
            poset.add_order("p1", "p0")

    def test_unknown_element(self):
        poset = LabeledPoset({"a": 1})
        with pytest.raises(ReproError, match="unknown element"):
            poset.label("ghost")

    def test_irreflexive(self):
        poset = LabeledPoset({"a": 1})
        with pytest.raises(ReproError, match="irreflexive"):
            poset.add_order("a", "a")


class TestRuleGuards:
    def test_nonterminating_chase_message_mentions_acyclicity(self):
        instance = Instance([fact("R", 1, 2)])
        bad_rule = rule([atom("R", X, Y)], [atom("R", Y, variables("z")[0])])
        with pytest.raises(ReproError, match="weakly acyclic"):
            chase(instance, [bad_rule], max_rounds=4)

    def test_rule_probability_bounds(self):
        with pytest.raises(ReproError):
            ProbabilisticRule(rule([atom("R", X)], [atom("P", X)]), 1.2)

    def test_unknown_semantics(self):
        with pytest.raises(ReproError, match="semantics"):
            probabilistic_chase(
                Instance([fact("R", 1)]),
                [ProbabilisticRule(rule([atom("R", X)], [atom("P", X)]), 0.5)],
                semantics="quantum",
            )


class TestConditioningGuards:
    def test_zero_evidence(self):
        pc = PCInstance()
        pc.add_event("e", 1.0)
        pc.add(fact("R", 1), var("e"))
        pcc = pcc_from_pc(pc)
        conditioned = ConditionedInstance(pcc).observe_event("e", False)
        with pytest.raises(ReproError, match="zero-probability"):
            conditioned.query_probability(cq(atom("R", X)))

    def test_crowd_unknown_event(self):
        crowd = SimulatedCrowd({"known": True})
        with pytest.raises(ReproError, match="cannot answer"):
            crowd.ask("unknown")


class TestProvenanceGuards:
    def test_provenance_rejects_non_cq(self):
        from repro.core import STConnectivityAutomaton

        tid = TIDInstance({fact("E", 1, 2): 0.5})
        with pytest.raises(ReproError, match="CQs and UCQs"):
            build_provenance_circuit(tid.instance, STConnectivityAutomaton(1, 2))


class TestNumericalEdgeCases:
    def test_all_zero_probabilities(self):
        from repro.core import tid_probability

        tid = TIDInstance({fact("R", 1): 0.0, fact("S", 1, 2): 0.0, fact("T", 2): 0.0})
        q = cq(atom("R", X), atom("S", X, Y), atom("T", Y))
        assert tid_probability(q, tid) == 0.0

    def test_all_one_probabilities(self):
        from repro.core import tid_probability

        tid = TIDInstance({fact("R", 1): 1.0, fact("S", 1, 2): 1.0, fact("T", 2): 1.0})
        q = cq(atom("R", X), atom("S", X, Y), atom("T", Y))
        assert tid_probability(q, tid) == 1.0

    def test_disconnected_instance(self):
        from repro.core import tid_probability

        tid = TIDInstance(
            {fact("R", 1): 0.5, fact("S", 2, 3): 0.5, fact("T", 4): 0.5}
        )
        q = cq(atom("R", X), atom("S", X, Y), atom("T", Y))
        assert tid_probability(q, tid) == 0.0  # components never join

    def test_empty_event_space_enumeration(self):
        space = EventSpace()
        assert list(space.valuations()) == [{}]
        assert space.valuation_probability({}) == 1.0
