"""Cross-engine conformance matrix: one scenario corpus, every execution path.

The pipeline promises that *where* a batch executes never changes *what* it
computes: the one-row scalar pass behind ``evaluate``/``probability`` (the
``interpreter`` path), the level-scheduled numpy kernels, the
multi-process shared-memory pool, and the distributed TCP workers must all
agree with an oracle that never reads the compiled lowering — the arena's
own ``Circuit.evaluate`` for worlds and a d-D pass over the arena's gates,
written here, for marginals — on every circuit shape we support,
including negation, shared subcircuits, and the empty/singleton degenerate
worlds that per-path test files historically each re-asserted in their own
ad-hoc way. This module replaces those scattered agreement asserts with one
parametrized matrix:

    scenario corpus  ×  plan producer  ×  {interpreter, numpy-batch,
                                           multiprocess, distributed,
                                           persistent-pool}

The *producer* axis pins how the compiled plan came to be: a fresh
:func:`compile_circuit`, a :func:`compile_circuit` of the arena grown by
an append edit after a first compile (the edit leaves gates no longer
reachable, which the lowering peels), the same grown arena lowered on
the array path, or an arena rebuilt through the bulk construction APIs. Each producer asserts its arrays are
bit-identical to a from-scratch compile before the execution paths ever
run, so a produced plan can never drift from the oracle unnoticed.

Every path must agree with the oracle **exactly**: Boolean results by
equality, probabilities bit for bit (sign of zero included). The oracle
is a separate float implementation that reduces each gate's inputs left
to right from its kind's identity, as the scalar pass and the level plan
do, so a path that reorders a reduction shows up here even where the
result moves by less than any tolerance would see. Rows of signed zeros
additionally hold the scalar pass and the numpy tier to the oracle.

The distributed columns need real sockets, hence the ``distributed``
marker. The ``persistent-pool`` column repeats its passes over the warm
:class:`~repro.circuits.distributed.HostPool` and additionally asserts the
second round reused the connection and skipped the plan transfer.
"""

import functools
import math
import operator
from unittest import mock

import numpy as np
import pytest

from repro.circuits import Circuit, compile_circuit
from repro.circuits import compiled as compiled_module
from repro.circuits import distributed, parallel
from repro.circuits.circuit import AND, CONST, NOT, VAR
from repro.events import EventSpace


# --------------------------------------------------------------------------- #
# the scenario corpus

def _negation_heavy() -> Circuit:
    c = Circuit()
    a, b, d = c.variable("a"), c.variable("b"), c.variable("d")
    inner = c.or_gate([c.negation(a), c.and_gate([b, c.negation(d)])])
    c.set_output(c.and_gate([c.negation(inner), c.or_gate([a, d])]))
    return c

def _shared_subcircuit() -> Circuit:
    # One AND gate feeding three parents: the DAG (not tree) case where a
    # naive per-path lowering could double-count the shared node.
    c = Circuit()
    x, y, z = c.variable("x"), c.variable("y"), c.variable("z")
    shared = c.and_gate([x, y])
    left = c.or_gate([shared, z])
    right = c.and_gate([shared, c.negation(z)])
    c.set_output(c.or_gate([left, right, shared]))
    return c

def _empty_world() -> Circuit:
    # No variables at all: the output folds entirely from constants.
    c = Circuit()
    c.set_output(c.or_gate([c.and_gate([c.true(), c.true()]), c.false()]))
    return c

def _singleton_world() -> Circuit:
    c = Circuit()
    c.set_output(c.negation(c.variable("only")))
    return c

def _wide_gates() -> Circuit:
    c = Circuit()
    vs = [c.variable(f"w{i}") for i in range(8)]
    c.set_output(c.or_gate([c.and_gate(vs[:5]), c.and_gate(vs[3:]), vs[7]]))
    return c

def _deep_chain() -> Circuit:
    c = Circuit()
    acc = c.variable("c0")
    for i in range(1, 7):
        v = c.variable(f"c{i}")
        acc = c.or_gate([c.and_gate([acc, v]), c.negation(acc)])
    c.set_output(acc)
    return c


def _negated_constants() -> Circuit:
    # ``append_gates`` neither folds nor hash-conses, so TRUE and FALSE stay
    # inputs of NOT/AND/OR gates: all-ones and all-zero words in the
    # bit-sliced Boolean pass, and an output NOT that sets its padding bits.
    c = Circuit()
    a, b = c.variable("a"), c.variable("b")
    t, f = c.true(), c.false()
    base = len(c)
    c.append_gates(
        ["not", "not", "and", "or", "not"],
        [t, a, t, base + 1, b, f, base, base + 2, base + 3],
        [0, 1, 2, 5, 8, 9],
    )
    c.set_output(base + 4)  # NOT(OR(FALSE, NOT TRUE, AND(TRUE, NOT a, b)))
    return c


SCENARIOS = {
    "negation": _negation_heavy,
    "negated-constants": _negated_constants,
    "shared-subcircuit": _shared_subcircuit,
    "empty-world": _empty_world,
    "singleton-world": _singleton_world,
    "wide-gates": _wide_gates,
    "deep-chain": _deep_chain,
}


# --------------------------------------------------------------------------- #
# plan producers: how the compiled object came to be

def _assert_identical_lowering(produced, fresh):
    """Pin a produced plan bit-identical to a from-scratch compile."""
    assert produced.kinds == fresh.kinds
    assert produced.offsets == fresh.offsets
    assert produced.indices == fresh.indices
    assert produced.var_slot == fresh.var_slot
    assert produced.var_names == fresh.var_names
    assert produced.output == fresh.output
    assert produced.levels_list() == fresh.levels_list()


def _produce_fresh(name):
    return compile_circuit(SCENARIOS[name]())


def _grown(name):
    """The scenario arena, compiled once, then grown: a contradiction
    OR-ed into the output, so every gate kind joins the new cone, and,
    unless the output is a constant, an unused gate over the old output
    that the lowering must peel."""
    c = SCENARIOS[name]()
    compile_circuit(c)
    aux = c.variable("aux")
    c.and_gate([c.output, aux])
    c.set_output(c.or_gate([c.output, c.and_gate([aux, c.negation(aux)])]))
    return c


def _lowered(c, array_path):
    """``c`` lowered on the array path, or on the per-gate python one."""
    min_gates = 0 if array_path else len(c) + 1
    with mock.patch.object(compiled_module, "VECTOR_MIN_GATES", min_gates):
        lowered = compiled_module.CompiledCircuit(c)
    assert (lowered._np32 is not None) == array_path
    return lowered


def _produce_grown(name):
    """Compile the grown arena."""
    c = _grown(name)
    produced = compile_circuit(c)
    for array_path in (True, False):
        _assert_identical_lowering(produced, _lowered(c, array_path))
    return produced


def _produce_array_lowered(name):
    """Lower the grown arena on the array path, whatever its size, so
    every execution path runs a plan that peeling produced (the scenarios
    are far below ``VECTOR_MIN_GATES``, where :func:`compile_circuit`
    takes the python lowering): its CSR lists are materialized from the
    int32 arrays, not built gate by gate."""
    c = _grown(name)
    produced = _lowered(c, array_path=True)
    _assert_identical_lowering(produced, _lowered(c, array_path=False))
    return produced


def _rebuild_bulk(circuit):
    """Replay an arena through the bulk construction APIs, gate for gate.

    Walks the source circuit's flat mirrors in gate-id order and re-creates
    maximal runs of VAR leaves via ``append_variables`` and of operator
    gates via ``append_gates`` (constants via the scalar calls). Gate ids
    must come out identical, pinning the bulk APIs to the scalar
    ``variable``/``and_gate``/``or_gate`` construction bit for bit.
    """
    from repro.circuits.circuit import K_AND, K_FALSE, K_NOT, K_OR, K_TRUE, K_VAR

    rebuilt = Circuit()
    codes = circuit._kind_codes
    offs = circuit._input_offsets
    flat = circuit._inputs_flat
    slot_names = circuit._slot_names
    var_slots = circuit._var_slots
    size = len(codes)
    i = 0
    while i < size:
        code = codes[i]
        if code == K_VAR:
            j = i
            names = []
            while j < size and codes[j] == K_VAR:
                names.append(slot_names[var_slots[j]])
                j += 1
            got = rebuilt.append_variables(names)
            assert list(got) == list(range(i, j))
            i = j
        elif code in (K_TRUE, K_FALSE):
            assert rebuilt.constant(code == K_TRUE) == i
            i += 1
        else:
            j = i
            kinds = []
            inputs = []
            offsets = [0]
            while j < size and codes[j] in (K_NOT, K_AND, K_OR):
                kinds.append(codes[j])
                inputs.extend(flat[offs[j] : offs[j + 1]])
                offsets.append(len(inputs))
                j += 1
            got = rebuilt.append_gates(kinds, inputs, offsets)
            assert got == range(i, j)
            i = j
    if circuit.output is not None:
        rebuilt.set_output(circuit.output)
    for name in ("_kind_codes", "_var_slots", "_inputs_flat",
                 "_input_offsets", "_gate_levels"):
        assert getattr(rebuilt, name) == getattr(circuit, name), name
    assert rebuilt._slot_names == circuit._slot_names
    return rebuilt


def _produce_bulk_rebuilt(name):
    """Rebuild the scenario arena through append_variables/append_gates."""
    fresh = SCENARIOS[name]()
    produced = compile_circuit(_rebuild_bulk(fresh))
    _assert_identical_lowering(produced, compile_circuit(fresh))
    return produced


PRODUCERS = {
    "fresh": _produce_fresh,
    "grown": _produce_grown,
    "array-lowered": _produce_array_lowered,
    "bulk-rebuilt": _produce_bulk_rebuilt,
}


def scenario_fixture_data(name, producer="fresh"):
    compiled = PRODUCERS[producer](name)
    n = len(compiled.variables())
    worlds = [
        [(mask >> i) & 1 for i in range(n)] for mask in range(1 << n)
    ]
    marginal_rows = [
        [0.05 + 0.9 * ((i + k) % 7) / 7 for i in range(n)] for k in range(4)
    ]
    return compiled, worlds, marginal_rows


# --------------------------------------------------------------------------- #
# execution paths: each returns (bool results, float results)

def _path_interpreter(compiled, worlds, marginal_rows, _worker):
    """The one-row scalar pass, interpreting the flat arrays gate by gate."""
    evaluated = [compiled.evaluate(w) for w in worlds]
    probabilities = [compiled.probability(row) for row in marginal_rows]
    return evaluated, probabilities

def _path_numpy_batch(compiled, worlds, marginal_rows, _worker):
    return (
        compiled.evaluate_batch(worlds),
        compiled.probability_batch(marginal_rows),
    )

def _path_multiprocess(compiled, worlds, marginal_rows, _worker):
    if not parallel.parallel_available():
        pytest.skip("shared memory unavailable")
    n = len(compiled.variables())
    world_matrix = np.asarray(worlds, dtype=np.bool_).reshape(len(worlds), n)
    marginal_matrix = np.asarray(marginal_rows, dtype=np.float64).reshape(
        len(marginal_rows), n
    )
    evaluated = parallel.evaluate_batch_sharded(compiled, world_matrix, workers=2)
    probabilities = parallel.probability_batch_sharded(
        compiled, marginal_matrix, workers=2
    )
    return evaluated.tolist(), probabilities.tolist()

def _path_distributed(compiled, worlds, marginal_rows, worker):
    n = len(compiled.variables())
    world_matrix = np.asarray(worlds, dtype=np.bool_).reshape(len(worlds), n)
    marginal_matrix = np.asarray(marginal_rows, dtype=np.float64).reshape(
        len(marginal_rows), n
    )
    hosts = (worker.address,)
    evaluated = distributed.evaluate_batch_distributed(
        compiled, world_matrix, hosts=hosts
    )
    probabilities = distributed.probability_batch_distributed(
        compiled, marginal_matrix, hosts=hosts
    )
    return evaluated.tolist(), probabilities.tolist()


def _path_persistent_pool(compiled, worlds, marginal_rows, worker):
    """The fifth path: repeat calls over the warm persistent HostPool.

    Runs both passes twice against the same worker; the second round must
    reuse the pooled connection (no new connect) and skip the plan bytes
    (the digest handshake), while returning exactly the first round's —
    and every other tier's — values.
    """
    n = len(compiled.variables())
    world_matrix = np.asarray(worlds, dtype=np.bool_).reshape(len(worlds), n)
    marginal_matrix = np.asarray(marginal_rows, dtype=np.float64).reshape(
        len(marginal_rows), n
    )
    hosts = (worker.address,)
    first_eval = distributed.evaluate_batch_distributed(
        compiled, world_matrix, hosts=hosts
    )
    first_probs = distributed.probability_batch_distributed(
        compiled, marginal_matrix, hosts=hosts
    )
    stats_before = distributed.pool_stats()
    evaluated = distributed.evaluate_batch_distributed(
        compiled, world_matrix, hosts=hosts
    )
    probabilities = distributed.probability_batch_distributed(
        compiled, marginal_matrix, hosts=hosts
    )
    stats_after = distributed.pool_stats()
    assert stats_after["connects"] == stats_before["connects"]
    assert stats_after["plans_published"] == stats_before["plans_published"]
    assert evaluated.tolist() == first_eval.tolist()
    assert probabilities.tolist() == first_probs.tolist()
    return evaluated.tolist(), probabilities.tolist()


#: path name -> runner
PATHS = {
    "interpreter": _path_interpreter,
    "numpy-batch": _path_numpy_batch,
    "multiprocess": _path_multiprocess,
    "distributed": _path_distributed,
    "persistent-pool": _path_persistent_pool,
}


def _bits(values):
    """Floats as their IEEE-754 bit patterns, so -0.0 differs from +0.0."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _arena_probability(circuit, marginals):
    """The d-D pass over the arena's own gates, in creation order.

    ``P(AND) = Π``, ``P(OR) = Σ``, ``P(NOT) = 1 − P``, each reduced left
    to right from its kind's identity: 1.0, and -0.0 for OR, so that an OR
    of -0.0s stays -0.0. ``marginals`` maps variable names to floats.
    """
    values = {}
    for gid in circuit.reachable_from_output():
        gate = circuit.gate(gid)
        inputs = [values[i] for i in gate.inputs]
        if gate.kind == VAR:
            value = marginals[gate.payload]
        elif gate.kind == CONST:
            value = 1.0 if gate.payload else 0.0
        elif gate.kind == NOT:
            value = 1.0 - inputs[0]
        elif gate.kind == AND:
            value = functools.reduce(operator.mul, inputs, 1.0)
        else:
            value = functools.reduce(operator.add, inputs, -0.0)
        values[gid] = value
    return values[circuit.output]


def _reference(compiled, worlds, marginal_rows):
    """The per-world scalar oracle every path is held to.

    It reads only the arena the plan was lowered from: ``Circuit.evaluate``
    for worlds, :func:`_arena_probability` for marginal rows, and the
    variables in slot order as the arena orders them (reachable VAR gates
    by gate id). A fault in the lowering, which every compiled path shares,
    therefore shows up against it.
    """
    circuit = compiled.source
    names = [
        circuit.gate(gid).payload
        for gid in circuit.reachable_from_output()
        if circuit.gate(gid).kind == VAR
    ]
    assert list(compiled.variables()) == names
    evaluated = [circuit.evaluate(dict(zip(names, w))) for w in worlds]
    probabilities = [
        _arena_probability(circuit, dict(zip(names, row)))
        for row in marginal_rows
    ]
    return evaluated, probabilities


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("producer", sorted(PRODUCERS))
@pytest.mark.parametrize(
    "path",
    [
        "interpreter",
        "numpy-batch",
        "multiprocess",
        pytest.param("distributed", marks=pytest.mark.distributed),
        pytest.param("persistent-pool", marks=pytest.mark.distributed),
    ],
)
def test_path_agrees_with_scalar_oracle(scenario, producer, path, request):
    compiled, worlds, marginal_rows = scenario_fixture_data(scenario, producer)
    worker = (
        request.getfixturevalue("module_worker")
        if path in ("distributed", "persistent-pool")
        else None
    )
    evaluated, probabilities = PATHS[path](compiled, worlds, marginal_rows, worker)
    expected_eval, expected_probs = _reference(compiled, worlds, marginal_rows)
    assert evaluated == expected_eval
    assert _bits(probabilities) == _bits(expected_probs)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_vectorized_tiers_agree_bitwise(scenario, producer, request):
    """numpy / pool / wire run the same kernels: equality, no tolerance."""
    compiled, worlds, marginal_rows = scenario_fixture_data(scenario, producer)
    base_eval, base_probs = _path_numpy_batch(
        compiled, worlds, marginal_rows, None
    )
    n = len(compiled.variables())
    if parallel.parallel_available():
        world_matrix = np.asarray(worlds, dtype=np.bool_).reshape(len(worlds), n)
        for workers in (0, 1, 2, 4):
            sharded = parallel.evaluate_batch_sharded(
                compiled, world_matrix, workers=workers
            )
            assert sharded.dtype == np.bool_
            assert sharded.tolist() == base_eval
        pool_eval, pool_probs = _path_multiprocess(
            compiled, worlds, marginal_rows, None
        )
        assert pool_eval == base_eval
        assert pool_probs == base_probs
    # The wire plan (serialize → deserialize) reruns the same level schedule.
    plan = distributed.plan_from_bytes(compiled.wire_bytes())
    assert plan.run_rows(worlds, as_float=False) == base_eval
    assert plan.run_rows(marginal_rows, as_float=True) == base_probs
    # Batch widths around the 64-world word of the Boolean pass, against
    # the scalar oracle: one row, a word short, a word, one over, two and
    # a bit (row shards of the pool split words too).
    for rows in (1, 63, 64, 65, 129):
        picked = [worlds[(37 * i + 5) % len(worlds)] for i in range(rows)]
        expected, _probs = _reference(compiled, picked, [])
        assert compiled.evaluate_batch(picked) == expected
        if parallel.parallel_available():
            matrix = np.asarray(picked, dtype=np.bool_).reshape(rows, n)
            for workers in (0, 2):
                assert parallel.evaluate_batch_sharded(
                    compiled, matrix, workers=workers
                ).tolist() == expected
        assert plan.run_rows(picked, as_float=False) == expected


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_signed_zeros_agree_bitwise(scenario, producer):
    """Rows of -0.0 and +0.0: the scalar pass and the numpy tier carry the
    sign of zero through every gate like the oracle. (An OR started from
    +0.0 turns an all -0.0 sum into +0.0, which 1e-12 cannot see.)"""
    compiled, _worlds, _rows = scenario_fixture_data(scenario, producer)
    n = len(compiled.variables())
    rows = [[-0.0] * n, [0.0] * n, [(-0.0, 1.0)[i % 2] for i in range(n)]]
    _eval, expected = _reference(compiled, [], rows)
    scalar = [compiled.probability(row) for row in rows]
    assert _bits(scalar) == _bits(expected)
    assert _bits(compiled.probability_batch(rows)) == _bits(expected)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_empty_batches_everywhere(scenario):
    """Zero-row batches are a fixed point of every path."""
    compiled, _worlds, _rows = scenario_fixture_data(scenario)
    assert compiled.evaluate_batch([]) == []
    assert compiled.probability_batch([]) == []


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_probability_engines_agree_on_corpus(scenario):
    """The registered engines agree with brute force on every scenario."""
    from repro.circuits import probability

    compiled, _worlds, _rows = scenario_fixture_data(scenario)
    n = len(compiled.variables())
    space = EventSpace(
        {name: 0.1 + 0.8 * i / max(1, n)
         for i, name in enumerate(compiled.variables())}
    )
    oracle = compiled.probability_enumerate(space)
    for engine in ("enumerate", "shannon", "message_passing"):
        assert math.isclose(
            probability(compiled, space, engine=engine), oracle, abs_tol=1e-9
        ), engine


# --------------------------------------------------------------------------- #
# instance-backend conformance: columnar vs object, property-based

from hypothesis import given, settings, strategies as st

from repro.core.engine import build_provenance_circuit
from repro.instances import ColumnarInstance, Instance, fact
from repro.queries import atom, cq, ucq, variables

_qx, _qy, _qz = variables("x", "y", "z")

#: CQ/UCQ shapes chosen to hit the joins' edge cases: self-joins, repeated
#: variables, constants, duplicate atoms, relations with no facts, and a
#: join on two shared variables (packed, jointly re-encoded keys).
BACKEND_QUERIES = (
    cq(atom("R", _qx)),
    cq(atom("R", _qx), atom("S", _qx, _qy), atom("T", _qy)),
    cq(atom("S", _qx, _qy), atom("S", _qy, _qz)),
    cq(atom("S", _qx, _qy), atom("S", _qy, _qx)),
    cq(atom("S", _qx, _qx)),
    cq(atom("R", 1), atom("S", 1, _qy)),
    cq(atom("U", _qx)),
    cq(atom("R", _qx), atom("R", _qx)),
    ucq(cq(atom("R", _qx), atom("T", _qx)), cq(atom("S", _qx, _qy))),
    ucq(cq(atom("U", _qx)), cq(atom("T", _qx))),
)

_small = st.integers(min_value=0, max_value=3)
_backend_instances = st.tuples(
    st.lists(st.tuples(_small), max_size=6),
    st.lists(st.tuples(_small, _small), max_size=8),
    st.lists(st.tuples(_small), max_size=6),
)


def _both_backends(r_rows, s_rows, t_rows):
    """The same fact sequence (duplicates included) on both backends."""
    obj, col = Instance(), ColumnarInstance()
    for relation, rows in (("R", r_rows), ("S", s_rows), ("T", t_rows)):
        for row in rows:
            obj.add(fact(relation, *row))
            col.add(fact(relation, *row))
    return obj, col


@settings(max_examples=40, deadline=None)
@given(rows=_backend_instances, query_index=st.integers(0, len(BACKEND_QUERIES) - 1))
def test_columnar_backend_matches_object_oracle(rows, query_index):
    """Columnar CQ/UCQ evaluation and provenance pin to the object backend.

    Homomorphisms must agree *in enumeration order* (the vectorized join
    reproduces backtracking order), the witness-DNF provenance circuits
    must be bit-identical down to the arena's flat arrays, and the circuit
    must decide the query on sampled sub-worlds exactly like re-evaluating
    the query on the corresponding sub-instance.
    """
    obj, col = _both_backends(*rows)
    query = BACKEND_QUERIES[query_index]
    if hasattr(query, "atoms"):  # homomorphism order is a CQ-level contract
        assert list(query.homomorphisms(obj)) == list(query.homomorphisms(col))
    lineage_obj = build_provenance_circuit(obj, query)
    lineage_col = build_provenance_circuit(col, query)
    for name in ("_kind_codes", "_var_slots", "_inputs_flat",
                 "_input_offsets", "_gate_levels"):
        assert getattr(lineage_obj.circuit, name) == getattr(
            lineage_col.circuit, name
        ), name
    assert lineage_obj.circuit._slot_names == lineage_col.circuit._slot_names
    assert lineage_obj.circuit.output == lineage_col.circuit.output
    # Semantic spot check: the circuit decides the query on sub-worlds.
    facts_in = obj.facts()
    for mask in (0, (1 << len(facts_in)) - 1, 0b1011010 % (1 << max(1, len(facts_in)))):
        kept = [f for i, f in enumerate(facts_in) if mask >> i & 1]
        valuation = {
            f.variable_name: bool(mask >> i & 1) for i, f in enumerate(facts_in)
        }
        assert lineage_col.circuit.evaluate(valuation) == query.holds_in(
            Instance(kept)
        )


# --------------------------------------------------------------------------- #
# fact-id identity: on the columnar backend the fact id is the variable

from repro.instances import TIDInstance
from repro.util import ReproError

#: The backend pool plus a UCQ whose disjuncts share their S facts.
FACT_ID_QUERIES = BACKEND_QUERIES + (
    ucq(cq(atom("R", _qx), atom("S", _qx, _qy)),
        cq(atom("S", _qx, _qy), atom("T", _qy))),
)

_p = st.sampled_from((0.0, 0.125, 0.3, 0.5, 0.7, 1.0))
_tid_rows = st.tuples(
    st.lists(st.tuples(_small, _p), max_size=6),
    st.lists(st.tuples(_small, _small, _p), max_size=8),
    st.lists(st.tuples(_small, _p), max_size=6),
)


def _by_name(compiled, tid):
    """Slot marginals looked up by name in a space built off Fact objects."""
    space = EventSpace({f.variable_name: tid.probability(f) for f in tid.facts()})
    return compiled.slot_marginals(space)


def _bits(marginals):
    return np.asarray(marginals, dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    rows=_tid_rows,
    query_index=st.integers(0, len(FACT_ID_QUERIES) - 1),
    edit=st.sampled_from(("none", "discard", "overwrite")),
    pick=st.integers(0, 1 << 16),
    vector=st.booleans(),
)
def test_fact_ids_are_the_lineage_variables(rows, query_index, edit, pick, vector):
    """Columnar lineage variables are fact ids, named only on demand.

    The marginals gathered by fact id are bitwise the name path's; the
    variables' names equal the object backend's circuit's, one slot per
    fact even across UCQ disjuncts; reading ``len()`` names nothing. After
    a ``discard`` renumbers the ids, the circuit still names the facts it
    was built over and no gather reads the new numbering; after a ``tid.add``
    overwrites a probability, an earlier event space keeps its snapshot.
    """
    tid = TIDInstance(backend="columnar")
    obj = Instance()
    for relation, rel_rows in zip("RST", rows):
        for *args, p in rel_rows:
            tid.add(fact(relation, *args), p)
            obj.add(fact(relation, *args))
    query = FACT_ID_QUERIES[query_index]
    namer = mock.patch.object(
        ColumnarInstance, "variable_names_for", side_effect=AssertionError
    )
    min_gates = 0 if vector else compiled_module.VECTOR_MIN_GATES
    lowering = mock.patch.object(compiled_module, "VECTOR_MIN_GATES", min_gates)
    with namer, lowering:
        lineage = build_provenance_circuit(tid.instance, query)
        compiled = compile_circuit(lineage.circuit)
        space = tid.event_space()
        n_vars = len(compiled.variables())
        assert len(lineage.circuit._slot_names) == n_vars
        assert len(space) == len(tid)
        gathered = compiled.slot_marginals(space)
    assert tid.instance.facts_materialized == 0
    expected = compile_circuit(build_provenance_circuit(obj, query).circuit)
    assert compiled.variables() == expected.variables()
    assert len(set(expected.variables())) == n_vars  # one slot per fact
    assert _bits(gathered) == _bits(_by_name(compiled, tid))

    facts = tid.facts()
    if edit == "discard" and facts:
        victim = facts[pick % len(facts)]
        tid.discard(victim)
        after = tid.event_space()
        assert compiled.variables() == expected.variables()  # build-time names
        if victim.variable_name in expected.variables():
            with pytest.raises(ReproError, match="unknown event"):
                compiled.slot_marginals(after)
        else:
            assert _bits(compiled.slot_marginals(after)) == _bits(
                _by_name(compiled, tid)
            )
    elif edit == "overwrite" and facts:
        target = facts[pick % len(facts)]
        before = _bits(_by_name(compiled, tid))
        tid.add(target, 1.0 - tid.probability(target))
        assert _bits(compiled.slot_marginals(space)) == before
