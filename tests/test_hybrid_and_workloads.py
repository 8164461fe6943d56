"""Tests for the partial-decomposition hybrid (E12) and workload generators."""

import math

import networkx as nx
import numpy as np
import pytest
from types import SimpleNamespace

from repro.baselines import tid_probability_enumerate
from repro.core.hybrid import (
    hybrid_stconn,
    monte_carlo_stconn,
    peel,
    reduce_for_stconn,
)
from repro.workloads import (
    core_and_tentacles_tid,
    cycle_tid,
    grid_tid,
    partial_ktree_tid,
    path_tid,
    rst_bipartite_tid,
    rst_chain_tid,
    table1_cinstance,
    table1_pc_instance,
)
from repro.util import stable_rng
from repro.workloads.generators import _jitter, _jitter_list


def conn_oracle(s, t):
    def fn(world):
        graph = nx.Graph()
        graph.add_nodes_from([s, t])
        for f in world.facts():
            if f.relation == "E":
                graph.add_edge(*f.args)
        return nx.has_path(graph, s, t)

    return SimpleNamespace(holds_in=fn)


class TestGenerators:
    def test_path_width_one(self):
        tid = path_tid(20, seed=0)
        assert tid.treewidth_upper_bound() == 1

    def test_cycle_width_two(self):
        tid = cycle_tid(12, seed=0)
        assert tid.treewidth_upper_bound() == 2

    def test_grid_width_grows(self):
        small = grid_tid(2, 6, seed=0).treewidth_upper_bound()
        large = grid_tid(4, 6, seed=0).treewidth_upper_bound()
        assert small <= 2 and large >= 4

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_partial_ktree_certified_decomposition(self, k):
        generated = partial_ktree_tid(16, k, seed=3)
        generated.decomposition.validate(generated.tid.instance.gaifman_graph())
        assert generated.decomposition.width() <= k

    def test_generators_are_deterministic(self):
        a = path_tid(10, seed=4)
        b = path_tid(10, seed=4)
        assert [(f, a.probability(f)) for f in a.facts()] == [
            (f, b.probability(f)) for f in b.facts()
        ]

    def test_rst_chain_low_width(self):
        tid = rst_chain_tid(15, seed=0)
        assert tid.treewidth_upper_bound() <= 2

    def test_rst_bipartite_high_width(self):
        tid = rst_bipartite_tid(5, 5, seed=0)
        assert tid.treewidth_upper_bound() >= 4

    def test_table1_matches_paper_rows(self):
        ci = table1_cinstance()
        assert len(ci) == 5
        # pods-only world books CDG→MEL and MEL→CDG.
        world = ci.world({"pods": True, "stoc": False})
        assert len(world) == 2

    def test_table1_pc_distribution(self):
        pc = table1_pc_instance(0.7, 0.5)
        assert math.isclose(sum(pc.world_distribution().values()), 1.0)


def _probability_bits(tid) -> dict:
    """``{fact: probability}`` of a TID, probabilities as exact hex strings."""
    return {f: tid.probability(f).hex() for f in tid.facts()}


class TestBackendsAgree:
    """The columnar bulk loads replay the object path's draws bit for bit.

    The sizes put the draws on both sides of the Mersenne Twister's refill
    every 312 doubles: a path of n vertices draws n - 1 doubles, a cycle n,
    a chain 3n - 1.
    """

    @pytest.mark.parametrize("seed", (0, 1, 7))
    @pytest.mark.parametrize("n", (1, 2, 3, 104, 105, 209, 313, 625, 1000))
    @pytest.mark.parametrize(
        "generator",
        (path_tid, cycle_tid, rst_chain_tid),
        ids=("path", "cycle", "rst_chain"),
    )
    def test_linear_generators(self, generator, n, seed):
        columnar = generator(n, seed=seed, backend="columnar")
        scalar = generator(n, seed=seed, backend="object")
        assert _probability_bits(columnar) == _probability_bits(scalar)

    @pytest.mark.parametrize("seed", (0, 1, 7))
    @pytest.mark.parametrize("density", (1.0, 0.5, 0.3))
    def test_rst_bipartite(self, density, seed):
        # 320 R and T draws cross a refill; the S draws continue the stream.
        columnar = rst_bipartite_tid(
            20, 300, seed=seed, density=density, backend="columnar"
        )
        scalar = rst_bipartite_tid(
            20, 300, seed=seed, density=density, backend="object"
        )
        assert _probability_bits(columnar) == _probability_bits(scalar)

    @pytest.mark.parametrize("start", ("fresh", "after_random", "after_gauss"))
    @pytest.mark.parametrize("count", (0, 1, 311, 312, 623, 624, 625, 100_001))
    def test_jitter_list_matches_the_scalar_loop(self, count, start):
        # 0.1 and 0.9 hit the lower and the upper clamp.
        for probability in (0.1, 0.5, 0.9):
            scalar, bulk = stable_rng(5), stable_rng(5)
            for rng in (scalar, bulk):
                if start == "after_random":
                    rng.random()
                elif start == "after_gauss":
                    rng.gauss(0.0, 1.0)
            want = np.array(
                [_jitter(probability, scalar) for _ in range(count)],
                dtype=np.float64,
            )
            got = _jitter_list(probability, bulk, count)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
            assert bulk.getstate() == scalar.getstate()


class TestPeeling:
    def test_peel_removes_tentacles_only(self):
        tid = core_and_tentacles_tid(4, 2, 3, seed=0)
        graph = nx.Graph()
        for f in tid.facts():
            graph.add_edge(*f.args)
        periphery = peel(graph, frozenset({"core0"}), max_degree=2)
        assert all(v.startswith("t") or v.startswith("core") for v in periphery)
        # The 4-clique core cannot be peeled at degree 2.
        assert not any(
            v in periphery for v in ("core0", "core1", "core2", "core3")
        )


class TestHybridReduction:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("terminals", [("core0", "t0_2"), ("core1", "core3")])
    def test_reduction_preserves_distribution(self, seed, terminals):
        tid = core_and_tentacles_tid(4, 2, 3, seed=seed)
        s, t = terminals
        reduction = reduce_for_stconn(tid, s, t)
        exact_full = tid_probability_enumerate(conn_oracle(s, t), tid)
        exact_reduced = tid_probability_enumerate(conn_oracle(s, t), reduction.reduced)
        assert math.isclose(exact_full, exact_reduced, abs_tol=1e-9)

    def test_reduction_shrinks_instance(self):
        tid = core_and_tentacles_tid(4, 3, 4, seed=1)
        reduction = reduce_for_stconn(tid, "core0", "core2")
        assert len(reduction.reduced) < len(tid)
        assert reduction.fragments_summarized >= 1

    def test_hybrid_estimate_close_to_exact(self):
        tid = core_and_tentacles_tid(4, 2, 3, seed=2)
        s, t = "core0", "t1_2"
        exact = tid_probability_enumerate(conn_oracle(s, t), tid)
        estimate, _reduction = hybrid_stconn(tid, s, t, samples=4000, seed=0)
        assert abs(estimate - exact) < 0.05

    def test_monte_carlo_baseline_close_to_exact(self):
        tid = core_and_tentacles_tid(4, 2, 3, seed=2)
        s, t = "core0", "core3"
        exact = tid_probability_enumerate(conn_oracle(s, t), tid)
        estimate = monte_carlo_stconn(tid, s, t, samples=4000, seed=1)
        assert abs(estimate - exact) < 0.05

    def test_series_factoring_reduces_variance(self):
        # With a terminal at a tentacle tip, the chain reliability factors
        # out exactly: the hybrid integrates that randomness analytically,
        # so its estimator variance drops below naive MC's.
        tid = core_and_tentacles_tid(4, 3, 4, seed=3)
        s, t = "core0", "t2_3"
        exact = tid_probability_enumerate(conn_oracle(s, t), tid)
        hybrid_estimates = []
        naive_estimates = []
        for seed in range(30):
            estimate, _reduction = hybrid_stconn(tid, s, t, samples=60, seed=seed)
            hybrid_estimates.append(estimate)
            naive_estimates.append(monte_carlo_stconn(tid, s, t, samples=60, seed=seed))

        def mse(xs):
            return sum((x - exact) ** 2 for x in xs) / len(xs)

        assert mse(hybrid_estimates) < mse(naive_estimates)

    def test_series_factoring_exact_on_pure_chain(self):
        from repro.core.hybrid import series_factor_terminals
        from repro.workloads import path_tid

        tid = path_tid(6, seed=7)
        factor, s, t, remaining = series_factor_terminals(tid, 0, 5)
        expected = 1.0
        for f in tid.facts():
            expected *= tid.probability(f)
        assert s == t
        assert math.isclose(factor, expected)
        assert len(remaining) == 0


class TestStreamingLogMonitor:
    """The streaming update scenario: append batches, requery through
    ``recompile``, and stay bit-identical to a from-scratch compile."""

    @staticmethod
    def same_lowering(left, right):
        return (
            left.kinds == right.kinds
            and left.offsets == right.offsets
            and left.indices == right.indices
            and left.var_slot == right.var_slot
            and left.var_names == right.var_names
            and left.output == right.output
            and left.gate_ids == right.gate_ids
            and left.levels_list() == right.levels_list()
        )

    def test_batches_only_append_and_keep_old_output_in_cone(self):
        from repro.workloads import StreamingLogMonitor

        monitor = StreamingLogMonitor(machines=3, seed=1)
        monitor.append(20)
        first_output = monitor.circuit.output
        size_after_first = len(monitor.circuit)
        monitor.append(20)
        assert len(monitor.circuit) > size_after_first
        assert first_output in monitor.circuit.reachable_from_output()

    def test_requery_uses_the_delta_path_and_matches_fresh(self):
        from repro.circuits import CompiledCircuit
        from repro.circuits import compiled as compiled_module
        from repro.workloads import StreamingLogMonitor

        monitor = StreamingLogMonitor(machines=4, seed=2)
        monitor.append(60)
        monitor.requery()  # cold compile
        deltas = compiled_module.compile_stats()["delta_recompiles"]
        for _ in range(3):
            monitor.append(25)
            compiled = monitor.requery()
            assert self.same_lowering(compiled, CompiledCircuit(monitor.circuit))
        assert compiled_module.compile_stats()["delta_recompiles"] == deltas + 3

    def test_recompiled_monitor_evaluates_like_a_fresh_compile(self):
        from repro.circuits import CompiledCircuit
        from repro.workloads import StreamingLogMonitor

        monitor = StreamingLogMonitor(machines=2, seed=5)
        monitor.append(30)
        monitor.requery()
        monitor.append(30)
        compiled = monitor.requery()
        fresh = CompiledCircuit(monitor.circuit)
        worlds = [monitor.sample_world(seed=s) for s in range(16)]
        assert compiled.evaluate_batch(worlds) == fresh.evaluate_batch(worlds)
        marginals = {name: 0.5 for name in compiled.var_names}
        assert compiled.probability(marginals) == fresh.probability(marginals)
