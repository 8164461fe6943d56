"""Tests for non-Boolean answers, possibility/certainty, order probabilities."""

import math
import random

import pytest

from repro.baselines import tid_certain, tid_possible
from repro.core import (
    BipartiteAutomaton,
    answer_lineages,
    answer_probabilities,
    candidate_answers,
    certain,
    possible,
    substitute_answer,
    tid_probability,
)
from repro.instances import TIDInstance, fact
from repro.order import (
    antichain,
    chain,
    count_linear_extensions,
    count_realizations,
    most_probable_worlds,
    pair_order_probability,
    union,
    world_probability,
)
from repro.queries import atom, cq, variables
from repro.util import ReproError

X, Y = variables("x", "y")
Q_RS = cq(atom("R", X), atom("S", X, Y))


def flights_tid() -> TIDInstance:
    return TIDInstance(
        {
            fact("R", "paris"): 0.9,
            fact("S", "paris", "rome"): 0.5,
            fact("S", "paris", "oslo"): 0.25,
            fact("R", "berlin"): 0.1,
            fact("S", "berlin", "rome"): 1.0,
        }
    )


class TestAnswers:
    def test_candidates_cover_all_homomorphisms(self):
        tid = flights_tid()
        candidates = candidate_answers(Q_RS, (X, Y), tid.instance)
        assert ("paris", "rome") in candidates
        assert ("berlin", "rome") in candidates
        assert len(candidates) == 3

    def test_substitution_produces_boolean_query(self):
        q = substitute_answer(Q_RS, (X, Y), ("paris", "rome"))
        assert q.variables() == frozenset()

    def test_answer_probabilities_match_boolean_engine(self):
        tid = flights_tid()
        for answer in answer_probabilities(Q_RS, (X, Y), tid):
            boolean_query = substitute_answer(Q_RS, (X, Y), answer.values)
            assert math.isclose(
                answer.probability, tid_probability(boolean_query, tid), abs_tol=1e-12
            )

    def test_ranking_order(self):
        tid = flights_tid()
        ranked = answer_probabilities(Q_RS, (X, Y), tid)
        probabilities = [a.probability for a in ranked]
        assert probabilities == sorted(probabilities, reverse=True)
        assert ranked[0].values == ("paris", "rome")  # 0.45 beats the rest

    def test_possible_and_certain_flags(self):
        tid = TIDInstance(
            {fact("R", 1): 1.0, fact("S", 1, 2): 1.0, fact("S", 1, 3): 0.0}
        )
        ranked = {a.values: a for a in answer_probabilities(Q_RS, (X, Y), tid)}
        assert ranked[(1, 2)].certain
        assert not ranked[(1, 3)].possible

    def test_projection_to_single_variable(self):
        tid = flights_tid()
        ranked = answer_probabilities(Q_RS, (X,), tid)
        values = {a.values for a in ranked}
        assert values == {("paris",), ("berlin",)}
        by_city = {a.values[0]: a.probability for a in ranked}
        # P(paris answer) = 0.9 * (1 - 0.5*0.75... ) computed by engine:
        expected = 0.9 * (1.0 - 0.5 * 0.75)
        assert math.isclose(by_city["paris"], expected)

    def test_answer_lineages_are_reusable(self):
        tid = flights_tid()
        lineages = answer_lineages(Q_RS, (X, Y), tid.instance)
        space = tid.event_space()
        for values, lineage in lineages.items():
            from repro.circuits import probability

            boolean_query = substitute_answer(Q_RS, (X, Y), values)
            assert math.isclose(
                probability(lineage.circuit, space, engine="dd"),
                tid_probability(boolean_query, tid),
                abs_tol=1e-12,
            )

    def test_free_variable_must_occur(self):
        tid = flights_tid()
        ghost = variables("ghost")[0]
        with pytest.raises(ReproError):
            answer_probabilities(Q_RS, (ghost,), tid)


class TestPossibilityCertainty:
    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_fast_path_matches_enumeration(self, seed):
        rng = random.Random(seed)
        tid = TIDInstance()
        n = rng.randint(2, 4)
        for i in range(n):
            tid.add(fact("R", i), rng.choice([0.0, 0.5, 1.0]))
            for j in range(rng.randint(0, 2)):
                tid.add(fact("S", i, j), rng.choice([0.0, 0.5, 1.0]))
        assert possible(Q_RS, tid) == tid_possible(Q_RS, tid)
        assert certain(Q_RS, tid) == tid_certain(Q_RS, tid)

    def test_non_monotone_automaton(self):
        tid = TIDInstance({fact("E", 1, 2): 0.5, fact("E", 2, 3): 1.0})
        auto = BipartiteAutomaton()
        assert possible(auto, tid)   # any forest world is bipartite
        assert certain(auto, tid)

    def test_certain_requires_probability_one(self):
        tid = TIDInstance({fact("R", 1): 0.999, fact("S", 1, 2): 1.0})
        assert possible(Q_RS, tid)
        assert not certain(Q_RS, tid)


class TestOrderProbability:
    def test_total_order_has_probability_one(self):
        poset = chain(["a", "b", "c"])
        assert world_probability(poset, ("a", "b", "c")) == 1.0
        assert world_probability(poset, ("b", "a", "c")) == 0.0

    def test_uniform_over_antichain(self):
        poset = antichain(["a", "b"])
        assert math.isclose(world_probability(poset, ("a", "b")), 0.5)

    def test_duplicate_labels_aggregate(self):
        poset = antichain(["x", "x"])
        assert world_probability(poset, ("x", "x")) == 1.0

    def test_count_realizations_sums_to_total(self):
        poset = union(chain(["a", "b"], "l"), chain(["c"], "r"))
        total = count_linear_extensions(poset)
        from repro.order import iter_linear_extensions, extension_labels

        distinct = {extension_labels(poset, e) for e in iter_linear_extensions(poset)}
        assert sum(count_realizations(poset, w) for w in distinct) == total

    def test_most_probable_worlds(self):
        poset = union(chain(["x", "x"], "l"), chain(["y"], "r"))
        ranked = most_probable_worlds(poset, k=2)
        assert ranked[0][1] >= ranked[1][1]
        assert math.isclose(sum(p for _w, p in most_probable_worlds(poset, k=10)), 1.0)

    def test_pair_order_probability(self):
        poset = union(chain(["a"], "l"), chain(["b"], "r"))
        assert math.isclose(pair_order_probability(poset, "a", "b"), 0.5)
        ordered = chain(["a", "b"])
        assert pair_order_probability(ordered, "a", "b") == 1.0
