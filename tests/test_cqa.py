"""The certain-answer engine: trichotomy routing vs the all-repairs oracle."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import compile_stats
from repro.cqa import (
    CONP,
    FO,
    PTIME,
    certain_answers,
    certain_by_circuit,
    certain_oracle,
    classify,
    cqa_stats,
    elimination_order,
    fo_rewriting,
    iter_repairs,
    repair_count,
    repair_lineage,
)
from repro.instances import Instance, fact, make_instance
from repro.queries import ConjunctiveQuery, KeySpec, atom, key_spec, ucq, variables
from repro.util import ReproError
from repro.workloads import cqa_trichotomy_queries, key_violation_instance

x, y, z = variables("x", "y", "z")
KEYS = key_spec(R=(0,), S=(0,))

#: The canonical Koutris–Wijsen examples, one per published class.
Q_FO = ConjunctiveQuery((atom("R", x, y), atom("S", y, z)))
Q_PTIME = ConjunctiveQuery((atom("R", x, y), atom("S", y, x)))
Q_CONP = ConjunctiveQuery((atom("R", x, y), atom("S", z, y)))


class TestKeySpec:
    def test_positions_declared_and_default(self):
        keys = key_spec(R=(0,), S=0)
        assert keys.positions_for("R", 2) == (0,)
        assert keys.positions_for("S", 3) == (0,)
        assert keys.positions_for("T", 2) == (0, 1)  # undeclared: all-key
        assert keys.declares("R") and not keys.declares("T")
        assert keys.relations() == ("R", "S")

    def test_key_of_and_violations(self):
        keys = key_spec(R=(0,))
        inst = Instance([fact("R", 1, "a"), fact("R", 1, "b"), fact("R", 2, "a")])
        assert keys.key_of(fact("R", 1, "a")) == (1,)
        assert keys.violations(inst) == 1
        assert not keys.is_consistent(inst)
        assert keys.is_consistent(Instance([fact("R", 1, "a"), fact("R", 2, "a")]))

    def test_validation(self):
        with pytest.raises(ReproError, match="non-negative"):
            key_spec(R=(-1,))
        with pytest.raises(ReproError, match="duplicate"):
            key_spec(R=(0, 0))
        with pytest.raises(ReproError, match="out of range"):
            key_spec(R=(5,)).positions_for("R", 2)

    def test_equality_and_hash(self):
        assert key_spec(R=(0,)) == key_spec(R=0)
        assert hash(key_spec(R=(1, 0))) == hash(key_spec(R=(0, 1)))
        assert key_spec(R=(0,)) != key_spec(R=(1,))


class TestKeyIndex:
    @pytest.mark.parametrize("backend", ["object", "columnar"])
    def test_blocks_group_by_key(self, backend):
        inst = make_instance(backend)
        for k, v in [(1, 7), (1, 8), (2, 7), (3, 9)]:
            inst.add(fact("R", k, v))
        index = inst.key_index("R", (0,))
        assert {k: len(v) for k, v in index.items()} == {(1,): 2, (2,): 1, (3,): 1}
        assert all(f.args[0] == k[0] for k, block in index.items() for f in block)

    def test_backends_agree_fact_for_fact(self):
        obj, keys = key_violation_instance(9, 0.5, seed=4, backend="object")
        col, _ = key_violation_instance(9, 0.5, seed=4, backend="columnar")
        for relation in ("R", "S"):
            assert obj.key_index(relation, (0,)) == col.key_index(relation, (0,))


class TestClassifier:
    def test_canonical_classes(self):
        assert classify(Q_FO, KEYS).trichotomy == FO
        assert classify(Q_PTIME, KEYS).trichotomy == PTIME
        assert classify(Q_CONP, KEYS).trichotomy == CONP

    def test_stable_under_atom_reordering(self):
        for query, expected in ((Q_FO, FO), (Q_PTIME, PTIME), (Q_CONP, CONP)):
            for perm in itertools.permutations(query.atoms):
                assert classify(ConjunctiveQuery(tuple(perm)), KEYS).trichotomy == expected

    def test_workload_queries_match(self):
        for name, query in cqa_trichotomy_queries().items():
            assert classify(query, KEYS).trichotomy == name

    def test_self_joins_rejected(self):
        q = ConjunctiveQuery((atom("R", x, y), atom("R", y, z)))
        with pytest.raises(ReproError, match="self-join"):
            classify(q, KEYS)

    def test_all_key_relations_are_fo(self):
        # Undeclared keys default to all-positions: every block is a
        # singleton, nothing attacks, the query is trivially FO.
        q = ConjunctiveQuery((atom("T", x, y), atom("U", y, z)))
        assert classify(q, key_spec()).trichotomy == FO

    def test_describe_mentions_class_and_attacks(self):
        text = classify(Q_CONP, KEYS).describe(Q_CONP)
        assert "conp" in text and "strong" in text


class TestFORewriting:
    def test_order_exists_for_fo_only(self):
        assert elimination_order(Q_FO, KEYS) is not None
        assert elimination_order(Q_PTIME, KEYS) is None
        assert elimination_order(Q_CONP, KEYS) is None

    def test_formula_shape(self):
        formula = fo_rewriting(Q_FO, KEYS).formula
        assert "∀" in formula and "∃" in formula and "R(" in formula

    def test_rejects_non_fo(self):
        with pytest.raises(ReproError):
            fo_rewriting(Q_CONP, KEYS)


def _oracle_grid(query):
    """Routed answer vs oracle across a deterministic instance grid."""
    for rate in (0.0, 0.3, 0.6):
        for seed in range(4):
            inst, keys = key_violation_instance(7, rate, seed=seed)
            assert certain_answers(query, inst, keys) == certain_oracle(
                query, inst, keys
            ), (rate, seed)


class TestCertainAnswers:
    def test_fo_matches_oracle(self):
        _oracle_grid(Q_FO)

    def test_ptime_matches_oracle(self):
        _oracle_grid(Q_PTIME)

    def test_conp_matches_oracle(self):
        _oracle_grid(Q_CONP)

    def test_forced_methods_agree(self):
        inst, keys = key_violation_instance(6, 0.5, seed=2)
        for query in (Q_FO, Q_PTIME, Q_CONP):
            expected = certain_oracle(query, inst, keys)
            assert certain_answers(query, inst, keys, method="circuit") == expected
            assert certain_answers(query, inst, keys, method="oracle") == expected

    def test_rewrite_method_requires_fo(self):
        inst, keys = key_violation_instance(4, 0.5, seed=0)
        assert certain_answers(Q_FO, inst, keys, method="rewrite") == certain_oracle(
            Q_FO, inst, keys
        )
        with pytest.raises(ReproError, match="not FO-rewritable"):
            certain_answers(Q_PTIME, inst, keys, method="rewrite")

    def test_unknown_method_rejected(self):
        inst, keys = key_violation_instance(3, 0.0, seed=0)
        with pytest.raises(ReproError, match="unknown CQA method"):
            certain_answers(Q_FO, inst, keys, method="bogus")

    def test_empty_relation_is_not_certain(self):
        inst = Instance([fact("R", 1, 2)])  # no S facts at all
        assert certain_answers(Q_FO, inst, KEYS) is False
        assert certain_oracle(Q_FO, inst, KEYS) is False

    def test_consistent_instance_reduces_to_holds_in(self):
        inst = Instance([fact("R", 1, 2), fact("S", 2, 3)])
        assert certain_answers(Q_FO, inst, KEYS) is True
        assert certain_answers(Q_PTIME, inst, KEYS) is False

    def test_fo_route_compiles_no_circuits(self):
        inst, keys = key_violation_instance(8, 0.5, seed=9)
        before = compile_stats()
        answer = certain_answers(Q_FO, inst, keys)
        assert compile_stats() == before
        assert answer == certain_oracle(Q_FO, inst, keys)

    def test_routing_stats(self):
        inst, keys = key_violation_instance(6, 0.5, seed=1)
        before = cqa_stats()
        certain_answers(Q_FO, inst, keys)
        certain_answers(Q_PTIME, inst, keys)
        certain_answers(Q_CONP, inst, keys)
        certain_answers(Q_FO, inst, keys, method="circuit")
        stats = {k: v - before[k] for k, v in cqa_stats().items()}
        assert stats["fo"] == 1 and stats["ptime"] == 1 and stats["conp"] == 1
        assert stats["pair_solver"] == 1
        assert stats["forced_circuit"] == 1

    def test_ptime_fallback_on_weak_three_cycle(self):
        # A weak 3-cycle is PTIME-class but not the pair shape the
        # propagation solver handles — the engine must fall back to the
        # circuit encoding and still bit-match the oracle.
        keys = key_spec(R=(0,), S=(0,), T=(0,))
        q = ConjunctiveQuery((atom("R", x, y), atom("S", y, z), atom("T", z, x)))
        assert classify(q, keys).trichotomy == PTIME
        inst = Instance(
            [
                fact("R", 0, 1), fact("R", 0, 2),
                fact("S", 1, 2), fact("S", 2, 0), fact("S", 2, 1),
                fact("T", 2, 0), fact("T", 1, 0), fact("T", 1, 2),
            ]
        )
        before = cqa_stats()["circuit_fallbacks"]
        assert certain_answers(q, inst, keys) == certain_oracle(q, inst, keys)
        assert cqa_stats()["circuit_fallbacks"] > before

    def test_ucq_oracle_and_circuit(self):
        # The oracle and the circuit encoding both accept UCQs even
        # though the classifier (self-join-free CQs only) does not.
        inst, keys = key_violation_instance(5, 0.6, seed=3)
        union = ucq(Q_FO, Q_CONP)
        assert certain_by_circuit(union, inst, keys) == certain_oracle(
            union, inst, keys
        )


class TestRepairs:
    def test_count_and_enumeration_agree(self):
        inst, keys = key_violation_instance(5, 0.5, seed=7)
        count = repair_count(inst, keys)
        repairs = list(iter_repairs(inst, keys))
        assert len(repairs) == count
        assert all(keys.is_consistent(r) for r in repairs)

    def test_oracle_refuses_huge_instances(self):
        inst, keys = key_violation_instance(40, 1.0, seed=0)
        with pytest.raises(ReproError, match="oracle cap"):
            certain_oracle(Q_FO, inst, keys)

    def test_repair_lineage_probability_is_repair_fraction(self):
        # One block {R(1,a), R(1,b)}; q = ∃y R(1, y) with S absent from
        # the query: the lineage under the uniform-repair encoding must
        # weigh each repair equally.
        inst = Instance([fact("R", 1, 1), fact("R", 1, 2), fact("S", 1, 1)])
        q = ConjunctiveQuery((atom("R", x, y),))
        keys = key_spec(R=(0,))
        circuit, space = repair_lineage(q, inst, keys)
        from repro.circuits import probability

        assert probability(circuit, space) == pytest.approx(1.0)
        # Now a query satisfied by exactly one of the two repairs.
        q1 = ConjunctiveQuery((atom("R", x, 1),))
        circuit1, space1 = repair_lineage(q1, inst, keys)
        assert probability(circuit1, space1) == pytest.approx(0.5)


relation_strategy = st.sampled_from(["R", "S"])
term_strategy = st.sampled_from([x, y, z, 0, 1])
key_positions_strategy = st.sampled_from([(0,), (1,), (0, 1)])


@st.composite
def sjf_query_and_keys(draw):
    """A random self-join-free 2-atom CQ over R, S with random keys."""
    terms_r = tuple(draw(term_strategy) for _ in range(2))
    terms_s = tuple(draw(term_strategy) for _ in range(2))
    query = ConjunctiveQuery((atom("R", *terms_r), atom("S", *terms_s)))
    keys = KeySpec(
        {"R": draw(key_positions_strategy), "S": draw(key_positions_strategy)}
    )
    return query, keys


@st.composite
def small_instance(draw):
    rows = draw(
        st.lists(
            st.tuples(
                relation_strategy,
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
            ),
            max_size=8,
        )
    )
    return Instance([fact(r, a, b) for r, a, b in rows])


class TestPropertyBased:
    @settings(max_examples=60, deadline=None)
    @given(sjf_query_and_keys(), small_instance())
    def test_classifier_stable_and_engine_matches_oracle(self, qk, inst):
        query, keys = qk
        verdict = classify(query, keys).trichotomy
        reordered = ConjunctiveQuery(tuple(reversed(query.atoms)))
        assert classify(reordered, keys).trichotomy == verdict
        expected = certain_oracle(query, inst, keys)
        assert certain_answers(query, inst, keys) == expected
        assert certain_answers(reordered, inst, keys) == expected


class TestCLI:
    def test_cqa_subcommand(self, capsys):
        from repro.cli import main

        assert main(["cqa", "--keys", "5", "--rate", "0.5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "class: fo" in out
        assert "rewriting:" in out
        assert "oracle" in out and "DISAGREES" not in out

    def test_cqa_forced_method(self, capsys):
        from repro.cli import main

        assert main(
            ["cqa", "--keys", "4", "--query", "conp", "--method", "circuit"]
        ) == 0
        out = capsys.readouterr().out
        assert "certain (circuit):" in out

    def test_e20_listed(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert "E20" in capsys.readouterr().out

    def test_engines_reports_cqa(self, capsys):
        from repro.cli import main

        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "certain-answer engine" in out
        assert "instance backend" in out
