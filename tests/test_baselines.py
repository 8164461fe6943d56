"""Tests for the enumeration, Monte-Carlo and Karp–Luby baselines."""

import math

import pytest

from repro.baselines import (
    karp_luby_probability,
    monte_carlo_probability,
    required_samples,
    tid_certain,
    tid_possible,
    tid_probability_enumerate,
)
from repro.instances import TIDInstance, fact
from repro.queries import atom, cq, variables
from repro.util import ReproError

X, Y = variables("x", "y")
Q = cq(atom("R", X), atom("S", X, Y), atom("T", Y))


def small_tid() -> TIDInstance:
    return TIDInstance(
        {
            fact("R", 1): 0.6,
            fact("S", 1, 2): 0.5,
            fact("T", 2): 0.8,
            fact("R", 3): 0.2,
            fact("S", 3, 2): 0.7,
        }
    )


class TestEnumeration:
    def test_probability_by_hand(self):
        tid = TIDInstance({fact("R", 1): 0.6, fact("S", 1, 2): 0.5, fact("T", 2): 0.8})
        assert math.isclose(tid_probability_enumerate(Q, tid), 0.6 * 0.5 * 0.8)

    def test_possible_and_certain(self):
        tid = small_tid()
        assert tid_possible(Q, tid)
        assert not tid_certain(Q, tid)

    def test_certain_when_all_probability_one(self):
        tid = TIDInstance({fact("R", 1): 1.0, fact("S", 1, 2): 1.0, fact("T", 2): 1.0})
        assert tid_certain(Q, tid)

    def test_impossible_query(self):
        tid = TIDInstance({fact("R", 1): 0.5})
        assert not tid_possible(Q, tid)
        assert tid_probability_enumerate(Q, tid) == 0.0

    def test_zero_probability_facts_ignored_for_possibility(self):
        tid = TIDInstance({fact("R", 1): 0.0, fact("S", 1, 2): 1.0, fact("T", 2): 1.0})
        assert not tid_possible(Q, tid)


class TestMonteCarlo:
    def test_estimate_close_to_exact(self):
        tid = small_tid()
        exact = tid_probability_enumerate(Q, tid)
        estimate = monte_carlo_probability(Q, tid, samples=4000, seed=0)
        assert abs(estimate - exact) < 0.05

    def test_single_witness_estimate_close_to_exact(self):
        tid = TIDInstance({fact("R", 1): 0.6, fact("S", 1, 2): 0.5, fact("T", 2): 0.8})
        exact = tid_probability_enumerate(Q, tid)
        estimate = monte_carlo_probability(Q, tid, samples=4000, seed=0)
        assert abs(estimate - exact) < 0.05

    def test_requires_positive_samples(self):
        with pytest.raises(ReproError):
            monte_carlo_probability(Q, small_tid(), samples=0)

    def test_deterministic_given_seed(self):
        tid = small_tid()
        a = monte_carlo_probability(Q, tid, samples=200, seed=5)
        b = monte_carlo_probability(Q, tid, samples=200, seed=5)
        assert a == b

    def test_required_samples_formula(self):
        assert required_samples(0.1, 0.05) == math.ceil(math.log(40.0) / 0.02)
        with pytest.raises(ReproError):
            required_samples(0.0, 0.5)


class TestKarpLuby:
    def test_estimate_close_to_exact(self):
        tid = small_tid()
        exact = tid_probability_enumerate(Q, tid)
        estimate = karp_luby_probability(Q, tid, samples=4000, seed=0)
        assert abs(estimate - exact) < 0.05

    def test_zero_when_no_witness(self):
        tid = TIDInstance({fact("R", 1): 0.9})
        assert karp_luby_probability(Q, tid, samples=100) == 0.0

    def test_handles_tiny_probabilities_better_than_naive(self):
        # With minuscule fact probabilities, naive MC sees ~no positive
        # samples while Karp–Luby keeps bounded relative error.
        tid = TIDInstance(
            {fact("R", 1): 1e-4, fact("S", 1, 2): 1e-4, fact("T", 2): 1e-4}
        )
        exact = 1e-12
        kl = karp_luby_probability(Q, tid, samples=3000, seed=1)
        assert kl > 0.0
        assert 0.1 < kl / exact < 10.0

    def test_single_witness_exact_weight(self):
        tid = TIDInstance({fact("R", 1): 0.3, fact("S", 1, 2): 0.5, fact("T", 2): 0.2})
        estimate = karp_luby_probability(Q, tid, samples=500, seed=2)
        # One witness: the estimator is exactly the witness weight.
        assert math.isclose(estimate, 0.3 * 0.5 * 0.2, rel_tol=1e-9)
