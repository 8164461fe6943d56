"""Cross-module property-based tests (hypothesis).

These pin down the global invariants that tie the subsystems together:
probability-space axioms, engine-vs-oracle equalities, structural
preservation under transformations.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.baselines import tid_probability_enumerate
from repro.circuits import (
    Circuit,
    check_decomposability,
    check_determinism_sampled,
    probability,
)
from repro.core import (
    ParityAutomaton,
    build_lineage,
    build_provenance_circuit,
    negation,
    tid_probability,
)
from repro.events import EventSpace
from repro.instances import TIDInstance, fact
from repro.order import (
    antichain,
    chain,
    concat,
    count_linear_extensions,
    is_linear_extension,
    iter_linear_extensions,
    sample_linear_extension,
    union,
)
from repro.queries import atom, cq, variables
from repro.treewidth import build_nice_tree, check_nice_tree, decompose

X, Y = variables("x", "y")
Q_RST = cq(atom("R", X), atom("S", X, Y), atom("T", Y))


def random_tid(seed: int, max_n: int = 4) -> TIDInstance:
    rng = random.Random(seed)
    tid = TIDInstance()
    n = rng.randint(2, max_n)
    for i in range(n):
        if rng.random() < 0.8:
            tid.add(fact("R", i), round(rng.random(), 2))
        if rng.random() < 0.8:
            tid.add(fact("T", i), round(rng.random(), 2))
    for _ in range(rng.randint(1, n + 1)):
        tid.add(fact("S", rng.randrange(n), rng.randrange(n)), round(rng.random(), 2))
    return tid


# --------------------------------------------------------------------------- #
# probability axioms


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_query_and_negation_sum_to_one(seed):
    tid = random_tid(seed)
    even = ParityAutomaton("S", 0)
    p = tid_probability(even, tid)
    q = tid_probability(negation(even), tid)
    assert math.isclose(p + q, 1.0, abs_tol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_probability_within_unit_interval(seed):
    tid = random_tid(seed)
    p = tid_probability(Q_RST, tid)
    assert -1e-12 <= p <= 1.0 + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.0, max_value=1.0))
def test_monotone_query_probability_monotone_in_fact_probability(seed, boost):
    """Raising any fact's probability cannot lower a CQ's probability."""
    tid = random_tid(seed)
    facts = tid.facts()
    target = facts[seed % len(facts)]
    base = tid_probability(Q_RST, tid)
    raised = TIDInstance(
        {
            f: (max(tid.probability(f), boost) if f == target else tid.probability(f))
            for f in facts
        }
    )
    assert tid_probability(Q_RST, raised) >= base - 1e-9


# --------------------------------------------------------------------------- #
# structural invariants of lineage circuits


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_deterministic_lineage_structural_properties(seed):
    tid = random_tid(seed)
    lineage = build_lineage(tid.instance, Q_RST)
    assert check_decomposability(lineage.circuit)
    assert check_determinism_sampled(lineage.circuit, trials=100, seed=seed)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_monotone_and_deterministic_lineages_equivalent(seed):
    """The two circuit constructions define the same Boolean function."""
    tid = random_tid(seed, max_n=3)
    deterministic = build_lineage(tid.instance, Q_RST)
    monotone = build_provenance_circuit(tid.instance, Q_RST)
    names = sorted({f.variable_name for f in tid.facts()})
    for mask in range(1 << len(names)):
        valuation = {n: bool(mask >> i & 1) for i, n in enumerate(names)}
        assert deterministic.circuit.evaluate(valuation) == monotone.circuit.evaluate(
            valuation
        )


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_lineage_probability_equals_circuit_wmc(seed):
    tid = random_tid(seed, max_n=3)
    lineage = build_lineage(tid.instance, Q_RST)
    space = tid.event_space()
    assert math.isclose(
        lineage.probability_tid(tid),
        probability(lineage.circuit, space, engine="enumerate"),
        abs_tol=1e-9,
    )


# --------------------------------------------------------------------------- #
# decompositions and nice trees


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_nice_tree_reads_every_fact_once(seed):
    tid = random_tid(seed)
    lineage = build_lineage(tid.instance, Q_RST)
    read_items = [
        node.item for node in lineage.nice_tree.iter_postorder() if node.kind == "read"
    ]
    assert sorted(map(str, read_items)) == sorted(str(f) for f in tid.facts())
    check_nice_tree(lineage.nice_tree)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_decomposition_width_bounds_nice_tree_width(seed):
    import networkx as nx

    rng = random.Random(seed)
    graph = nx.gnp_random_graph(rng.randint(2, 9), 0.4, seed=seed)
    decomposition = decompose(graph)
    nice = build_nice_tree(decomposition)
    assert nice.width() <= decomposition.width()


# --------------------------------------------------------------------------- #
# order invariants


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_every_enumerated_extension_is_valid(seed):
    rng = random.Random(seed)
    poset = union(
        chain(range(rng.randint(1, 3)), "l"), antichain(range(rng.randint(1, 3)), "r")
    )
    extensions = list(iter_linear_extensions(poset))
    assert len(extensions) == count_linear_extensions(poset)
    for extension in extensions:
        assert is_linear_extension(poset, extension)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sampled_extension_is_valid(seed):
    rng = random.Random(seed)
    poset = concat(
        antichain(range(rng.randint(1, 3)), "a"), chain(range(rng.randint(1, 3)), "c")
    )
    extension = sample_linear_extension(poset, seed=seed)
    assert is_linear_extension(poset, extension)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_concat_count_is_product(m, n):
    left = antichain(range(m), "l")
    right = antichain(range(100, 100 + n), "r")
    total = count_linear_extensions(concat(left, right))
    assert total == count_linear_extensions(left) * count_linear_extensions(right)


# --------------------------------------------------------------------------- #
# circuits and spaces


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4)
)
def test_restriction_preserves_probability_decomposition(probabilities):
    """Shannon identity: P(C) = p·P(C|x) + (1−p)·P(C|¬x)."""
    names = [f"v{i}" for i in range(len(probabilities))]
    space = EventSpace(dict(zip(names, probabilities)))
    c = Circuit()
    gates = [c.variable(n) for n in names]
    c.set_output(
        c.or_gate([c.and_gate(gates[: len(gates) // 2 + 1]), c.negation(gates[-1])])
    )
    pivot = names[0]
    p = space.probability(pivot)
    total = probability(c, space, engine="enumerate")
    high = probability(c.restricted({pivot: True}), space, engine="enumerate")
    low = probability(c.restricted({pivot: False}), space, engine="enumerate")
    assert math.isclose(total, p * high + (1 - p) * low, abs_tol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_engine_oracle_agreement_master_property(seed):
    """The master invariant: engine == enumeration on every random instance."""
    tid = random_tid(seed)
    assert math.isclose(
        tid_probability(Q_RST, tid),
        tid_probability_enumerate(Q_RST, tid),
        abs_tol=1e-9,
    )
