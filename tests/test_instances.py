"""Tests for the relational substrate: instances, TID, c/pc/pcc-instances."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import config
from repro.events import TRUE, var
from repro.instances import (
    CInstance,
    ColumnarInstance,
    Fact,
    Instance,
    PCCInstance,
    PCInstance,
    TIDInstance,
    fact,
    make_instance,
    pc_from_tid,
    pcc_from_pc,
    pcc_from_tid,
)
from repro.util import ReproError


class TestFact:
    def test_repr(self):
        assert repr(fact("From", "CDG", "MEL")) == "From(CDG, MEL)"

    def test_variable_name_unique(self):
        assert fact("R", 1).variable_name != fact("R", 2).variable_name
        assert fact("R", 1).variable_name != fact("S", 1).variable_name

    def test_equality_and_hash(self):
        assert fact("R", 1, 2) == Fact("R", (1, 2))
        assert hash(fact("R", 1, 2)) == hash(Fact("R", (1, 2)))


class TestInstance:
    def test_add_and_contains(self):
        inst = Instance([fact("R", 1)])
        assert fact("R", 1) in inst
        assert fact("R", 2) not in inst

    def test_set_semantics(self):
        inst = Instance([fact("R", 1), fact("R", 1)])
        assert len(inst) == 1

    def test_domain(self):
        inst = Instance([fact("R", 1, 2), fact("S", 2, 3)])
        assert inst.domain() == {1, 2, 3}

    def test_relations_schema(self):
        inst = Instance([fact("R", 1), fact("S", 1, 2)])
        assert inst.relations() == {"R": 1, "S": 2}

    def test_mixed_arity_rejected(self):
        inst = Instance([fact("R", 1), fact("R", 1, 2)])
        with pytest.raises(ReproError, match="two arities"):
            inst.relations()

    def test_gaifman_graph_edges(self):
        inst = Instance([fact("E", "a", "b"), fact("E", "b", "c")])
        graph = inst.gaifman_graph()
        assert graph.has_edge("a", "b")
        assert graph.has_edge("b", "c")
        assert not graph.has_edge("a", "c")

    def test_gaifman_ternary_clique(self):
        inst = Instance([fact("T", 1, 2, 3)])
        graph = inst.gaifman_graph()
        assert graph.has_edge(1, 2) and graph.has_edge(2, 3) and graph.has_edge(1, 3)

    def test_treewidth_of_path_instance(self):
        inst = Instance([fact("E", i, i + 1) for i in range(9)])
        assert inst.treewidth_upper_bound() == 1

    def test_union_and_restrict(self):
        a = Instance([fact("R", 1)])
        b = Instance([fact("R", 2)])
        merged = a.union(b)
        assert len(merged) == 2
        assert len(merged.restricted_to([fact("R", 1)])) == 1


class TestTIDInstance:
    def test_probability_bounds(self):
        tid = TIDInstance()
        with pytest.raises(ReproError):
            tid.add(fact("R", 1), 1.4)

    def test_world_count(self):
        tid = TIDInstance({fact("R", 1): 0.5, fact("R", 2): 0.5})
        worlds = list(tid.possible_worlds())
        assert len(worlds) == 4
        assert math.isclose(sum(w for _, w in worlds), 1.0)

    def test_world_probability(self):
        tid = TIDInstance({fact("R", 1): 0.3, fact("R", 2): 0.8})
        world = Instance([fact("R", 2)])
        assert math.isclose(tid.world_probability(world), 0.7 * 0.8)

    def test_event_space_names(self):
        tid = TIDInstance({fact("R", 1): 0.3})
        assert tid.event_space().probability(fact("R", 1).variable_name) == 0.3

    @pytest.mark.parametrize("backend", ("object", "columnar"))
    def test_discard_keeps_probabilities_aligned(self, backend):
        tid = TIDInstance(
            {fact("R", 1): 0.1, fact("R", 2): 0.2, fact("S", 1, 2): 0.3},
            backend=backend,
        )
        tid.discard(fact("R", 2))
        tid.discard(fact("R", 9))  # absent: no-op
        assert tid.facts() == [fact("R", 1), fact("S", 1, 2)]
        assert tid.probability(fact("S", 1, 2)) == 0.3
        space = tid.event_space()
        assert len(space) == 2
        assert space.probability(fact("S", 1, 2).variable_name) == 0.3

    @pytest.mark.parametrize(
        "probabilities",
        (
            [0.5, 1.5, 0.2],
            [0.5, float("nan"), 0.2],
            [-0.1, 0.5, 0.2],
            [0.5, 0.2],
            [0.5, 0.2, 0.3, 0.4],
        ),
    )
    def test_extend_encoded_refuses_bad_probabilities(self, probabilities):
        tid = TIDInstance(backend="columnar")
        tid.instance.intern_int_range(4)
        tid.add(fact("E", 0, 1), 0.25)
        with pytest.raises(ReproError):
            tid.extend_encoded("E", [[1, 2, 3], [2, 3, 0]], probabilities)
        assert len(tid) == 1
        assert tid.facts() == [fact("E", 0, 1)]
        assert tid.probability(fact("E", 0, 1)) == 0.25
        tid.extend_encoded("E", [[1, 2, 3], [2, 3, 0]], [0.0, 0.5, 1.0])
        assert [tid.probability(f) for f in tid.facts()] == [0.25, 0.0, 0.5, 1.0]

    def test_sampler_marginals(self):
        tid = TIDInstance({fact("R", 1): 0.7})
        draw = tid.world_sampler(seed=0)
        hits = sum(fact("R", 1) in draw() for _ in range(2000))
        assert abs(hits / 2000 - 0.7) < 0.05


class TestNameCollisions:
    """``R(1)`` and ``R("1")`` are distinct facts with the same name ``f:R(1)``."""

    ROWS = ((fact("R", 1), 0.3), (fact("R", "1"), 0.9))

    def test_object_event_space_names_both_facts(self):
        tid = TIDInstance(self.ROWS, backend="object")
        with pytest.raises(ReproError, match=r"R\(1\) and R\('1'\)"):
            tid.event_space()

    def test_fact_ids_keep_them_distinct(self):
        from repro.circuits import compile_circuit, probability
        from repro.core import build_provenance_circuit
        from repro.queries import atom, cq, variables

        (x,) = variables("x")
        tid = TIDInstance(self.ROWS, backend="columnar")
        lineage = build_provenance_circuit(tid.instance, cq(atom("R", x)))
        compiled = compile_circuit(lineage.circuit)
        space = tid.event_space()
        assert len(compiled.variables()) == 2
        # P(exists x R(x)) = 1 - 0.7 * 0.1, not the merged 0.9.
        value = probability(compiled, space, engine="enumerate")
        assert math.isclose(value, 0.93, abs_tol=1e-12)
        # Name-keyed views cannot tell the two apart, so they refuse.
        with pytest.raises(ReproError, match=r"R\(1\) and R\('1'\)"):
            list(compiled.variables())
        with pytest.raises(ReproError, match=r"R\(1\) and R\('1'\)"):
            space.probability("f:R(1)")


class TestCInstance:
    def build_trips(self) -> CInstance:
        """Table 1 of the paper: trips annotated over events pods, stoc."""
        ci = CInstance()
        pods, stoc = var("pods"), var("stoc")
        ci.add(fact("Trip", "CDG", "MEL"), pods)
        ci.add(fact("Trip", "MEL", "CDG"), pods & ~stoc)
        ci.add(fact("Trip", "MEL", "PDX"), pods & stoc)
        ci.add(fact("Trip", "CDG", "PDX"), ~pods & stoc)
        ci.add(fact("Trip", "PDX", "CDG"), stoc)
        return ci

    def test_world_selection(self):
        ci = self.build_trips()
        world = ci.world({"pods": True, "stoc": False})
        assert fact("Trip", "CDG", "MEL") in world
        assert fact("Trip", "MEL", "CDG") in world
        assert fact("Trip", "MEL", "PDX") not in world

    def test_world_count_matches_events(self):
        ci = self.build_trips()
        assert len(list(ci.possible_worlds())) == 4

    def test_possibility_and_certainty(self):
        ci = self.build_trips()
        assert ci.is_possible(fact("Trip", "CDG", "MEL"))
        assert not ci.is_certain(fact("Trip", "CDG", "MEL"))
        certain = CInstance({fact("R", 1): TRUE})
        assert certain.is_certain(fact("R", 1))

    def test_conditioning_on_literal(self):
        ci = self.build_trips()
        pinned = ci.conditioned_on_literal("pods", True)
        assert pinned.is_certain(fact("Trip", "CDG", "MEL"))
        assert not pinned.is_possible(fact("Trip", "CDG", "PDX"))

    def test_distinct_worlds_deduplicated(self):
        ci = CInstance({fact("R", 1): var("e") | ~var("e")})
        assert len(ci.distinct_worlds()) == 1


class TestPCInstance:
    def build(self) -> PCInstance:
        pc = PCInstance()
        pc.add_event("pods", 0.7)
        pc.add_event("stoc", 0.4)
        pc.add(fact("Trip", "CDG", "MEL"), var("pods"))
        pc.add(fact("Trip", "PDX", "CDG"), var("stoc"))
        pc.add(fact("Trip", "MEL", "PDX"), var("pods") & var("stoc"))
        return pc

    def test_unregistered_event_rejected(self):
        pc = PCInstance()
        with pytest.raises(ReproError, match="not registered"):
            pc.add(fact("R", 1), var("mystery"))

    def test_fact_probability(self):
        pc = self.build()
        assert math.isclose(pc.fact_probability(fact("Trip", "MEL", "PDX")), 0.28)

    def test_world_distribution_sums_to_one(self):
        pc = self.build()
        assert math.isclose(sum(pc.world_distribution().values()), 1.0)

    def test_conditioning_renormalizes(self):
        pc = self.build().conditioned_on_literal("pods", True)
        assert math.isclose(pc.fact_probability(fact("Trip", "CDG", "MEL")), 1.0)
        assert math.isclose(pc.fact_probability(fact("Trip", "MEL", "PDX")), 0.4)

    def test_from_tid_view(self):
        tid = TIDInstance({fact("R", 1): 0.25})
        pc = pc_from_tid(tid)
        assert math.isclose(pc.fact_probability(fact("R", 1)), 0.25)


class TestPCCInstance:
    def build(self) -> PCCInstance:
        pcc = PCCInstance()
        pcc.add_event("e1", 0.5)
        pcc.add_event("e2", 0.5)
        g = pcc.circuit.and_gate(
            [pcc.circuit.variable("e1"), pcc.circuit.variable("e2")]
        )
        pcc.add(fact("R", 1), g)
        pcc.add(fact("R", 2), pcc.circuit.negation(g))
        return pcc

    def test_world_selection(self):
        pcc = self.build()
        world = pcc.world({"e1": True, "e2": True})
        assert fact("R", 1) in world and fact("R", 2) not in world

    def test_fact_probability_enumerate(self):
        pcc = self.build()
        assert math.isclose(pcc.fact_probability_enumerate(fact("R", 1)), 0.25)
        assert math.isclose(pcc.fact_probability_enumerate(fact("R", 2)), 0.75)

    def test_joint_graph_links_facts_to_gates(self):
        pcc = self.build()
        graph = pcc.joint_graph()
        assert ("d", 1) in graph.nodes
        assert ("g", pcc.gate_of(fact("R", 1))) in graph.nodes
        assert graph.has_edge(("d", 1), ("g", pcc.gate_of(fact("R", 1))))

    def test_joint_width_small_for_local_annotations(self):
        pcc = pcc_from_tid(TIDInstance({fact("E", i, i + 1): 0.5 for i in range(8)}))
        assert pcc.joint_width() <= 3

    def test_conversion_preserves_distribution(self):
        pc = PCInstance()
        pc.add_event("a", 0.3)
        pc.add_event("b", 0.6)
        pc.add(fact("R", 1), var("a") & ~var("b"))
        pcc = pcc_from_pc(pc)
        expected = pc.fact_probability(fact("R", 1))
        assert math.isclose(pcc.fact_probability_enumerate(fact("R", 1)), expected)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pc_and_pcc_world_distributions_agree(seed):
    import random

    rng = random.Random(seed)
    pc = PCInstance()
    events = [f"e{i}" for i in range(rng.randint(1, 3))]
    for e in events:
        pc.add_event(e, round(rng.uniform(0.1, 0.9), 2))
    for i in range(rng.randint(1, 4)):
        annotation = var(rng.choice(events))
        if rng.random() < 0.5:
            annotation = annotation & ~var(rng.choice(events))
        pc.add(fact("R", i), annotation)
    pcc = pcc_from_pc(pc)
    for f in pc.facts():
        assert math.isclose(
            pc.fact_probability(f),
            pcc.fact_probability_enumerate(f),
            abs_tol=1e-9,
        )


class TestColumnarInstance:
    def build(self) -> "ColumnarInstance":
        col = ColumnarInstance()
        col.add(fact("R", 1))
        col.add(fact("S", 1, "a"))
        col.add(fact("S", 2, "b"))
        return col

    def test_protocol_basics(self):
        col = self.build()
        assert len(col) == 3
        assert fact("S", 1, "a") in col
        assert fact("S", 9, "a") not in col
        assert col.relations() == {"R": 1, "S": 2}
        assert col.domain() == frozenset({1, 2, "a", "b"})

    def test_set_semantics(self):
        col = self.build()
        fid = col.add_fact("R", (1,))
        assert fid == col.fact_id_of(fact("R", 1))
        assert len(col) == 3

    def test_roundtrip_object_instance(self):
        col = self.build()
        obj = col.to_instance()
        assert isinstance(obj, Instance)
        assert set(obj.facts()) == set(col.facts())
        back = ColumnarInstance.from_instance(obj)
        assert set(back.facts()) == set(col.facts())
        assert back.relations() == col.relations()

    def test_variable_names_match_fact_objects(self):
        col = self.build()
        fids = [col.fact_id_of(f) for f in col.facts()]
        names = col.variable_names_for(fids)
        assert names == [f.variable_name for f in col.facts()]

    def test_variable_names_take_one_path_for_every_int_sequence(self):
        from array import array
        from unittest import mock

        import numpy as np

        col = ColumnarInstance()
        col.intern_int_range(50)
        col.extend_encoded("E", [list(range(49)), list(range(1, 50))])
        col.extend_encoded("V", [list(range(50))])
        fids = [5, 70, 0, 98, 5]
        want = [f.variable_name for f in (col.fact_at(fid) for fid in fids)]
        with mock.patch.object(
            ColumnarInstance, "_names_per_fact", side_effect=AssertionError
        ):
            for given_ids in (fids, tuple(fids), array("i", fids),
                              np.asarray(fids, dtype=np.int32)):
                assert col.variable_names_for(given_ids) == want
            assert col.variable_names_for(range(95, 99)) == [
                col.fact_at(fid).variable_name for fid in range(95, 99)
            ]

    def test_discard_renumbers_into_a_fresh_id_space(self):
        col = self.build()
        old_space = col.id_space
        col.discard(fact("R", 1))
        assert col.id_space is not old_space
        assert len(old_space) == 3 and len(col.id_space) == 2
        # The old space still names the facts its ids meant.
        assert old_space.names([0, 2]) == ["f:R(1)", "f:S(2,b)"]
        assert col.id_space.names([0, 1]) == ["f:S(1,a)", "f:S(2,b)"]

    def test_extend_encoded_dedups_against_add(self):
        col = ColumnarInstance()
        existing = col.add_fact("E", (0, 1))
        codes = [col.intern(v) for v in range(4)]
        left = [codes[0], codes[1], codes[0]]
        right = [codes[1], codes[2], codes[1]]
        fids = list(col.extend_encoded("E", [left, right]))
        # Row 0 and row 2 are the pre-existing (and intra-batch duplicate)
        # fact; only E(1, 2) is fresh.
        assert fids[0] == existing and fids[2] == existing
        assert fids[1] != existing
        assert len(col) == 2

    def test_bulk_load_then_keyed_lookup(self):
        # Bulk loads drop the key→fid dict; the first keyed lookup must
        # rebuild it coherently (same fids, duplicates still detected).
        col = ColumnarInstance()
        col.intern_int_range(5)
        fids = list(col.extend_encoded("E", [[0, 1, 2], [1, 2, 3]]))
        assert col.fact_id_of(fact("E", 1, 2)) == fids[1]
        assert col.add_fact("E", (0, 1)) == fids[0]
        assert col.add_fact("E", (3, 4)) not in fids
        assert len(col) == 4

    def test_bulk_load_materializes_no_facts(self):
        col = ColumnarInstance()
        col.intern_int_range(100)
        col.extend_encoded("E", [list(range(99)), list(range(1, 100))])
        assert col.facts_materialized == 0
        col.fact_at(0)
        assert col.facts_materialized == 1

    def test_extend_encoded_rejects_uninterned_codes(self):
        col = self.build()
        assert col.n_codes() == 4
        for bad in ([7], [-1]):
            with pytest.raises(ReproError, match="outside the dictionary"):
                col.extend_encoded("S", [[0] + bad, [2, 3]])
        with pytest.raises(ReproError, match="outside the dictionary"):
            col.extend_encoded("V", [[0, 7]])
        assert len(col) == 3
        assert col.relations() == {"R": 1, "S": 2}
        assert col.facts() == [fact("R", 1), fact("S", 1, "a"), fact("S", 2, "b")]

    def test_mixed_arity_rejected(self):
        col = self.build()
        with pytest.raises(ReproError, match="two arities"):
            col.add(fact("R", 1, 2))


class TestInstanceBackendKnob:
    def test_make_instance_dispatches(self):
        assert isinstance(make_instance("object"), Instance)
        assert isinstance(make_instance("columnar"), ColumnarInstance)
        with pytest.raises(ReproError, match="unknown instance backend"):
            make_instance("arrow")

    def test_set_instance_backend_scopes(self):
        # The suite may itself run under REPRO_INSTANCE_BACKEND=columnar
        # (the CI columnar job does) — scope back to the ambient default.
        ambient = config.get("instance_backend")
        with config.overrides(instance_backend="columnar"):
            assert config.get("instance_backend") == "columnar"
            assert isinstance(make_instance(), ColumnarInstance)
        with config.overrides(instance_backend="object"):
            assert isinstance(make_instance(), Instance)
        assert config.get("instance_backend") == ambient
        with pytest.raises(ReproError, match="instance_backend='arrow'"):
            config.configure(instance_backend="arrow")

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTANCE_BACKEND", "columnar")
        with config.overrides(instance_backend=None):
            assert config.get("instance_backend") == "columnar"
        monkeypatch.setenv("REPRO_INSTANCE_BACKEND", "parquet")
        with config.overrides(instance_backend=None):
            with pytest.raises(ReproError, match="REPRO_INSTANCE_BACKEND"):
                config.get("instance_backend")

    def test_tid_takes_backend(self):
        tid = TIDInstance(backend="columnar")
        assert isinstance(tid.instance, ColumnarInstance)
