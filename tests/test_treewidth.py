"""Tests for tree decompositions, heuristics, exact treewidth, nice trees."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.treewidth import (
    HEURISTICS,
    TreeDecomposition,
    build_nice_tree,
    check_nice_tree,
    decompose,
    exact_decomposition,
    exact_treewidth,
    from_elimination_order,
    min_degree_order,
    min_fill_order,
)
from repro.util import ReproError


class TestTreeDecomposition:
    def test_width(self):
        td = TreeDecomposition({0: {"a", "b"}, 1: {"b", "c"}}, [(0, 1)])
        assert td.width() == 1

    def test_validate_accepts_valid(self):
        graph = nx.path_graph(3)
        td = TreeDecomposition({0: {0, 1}, 1: {1, 2}}, [(0, 1)])
        td.validate(graph)

    def test_validate_rejects_missing_vertex(self):
        graph = nx.path_graph(3)
        td = TreeDecomposition({0: {0, 1}}, [])
        with pytest.raises(ReproError, match="not covered"):
            td.validate(graph)

    def test_validate_rejects_missing_edge(self):
        graph = nx.path_graph(3)
        td = TreeDecomposition({0: {0, 1}, 1: {2}}, [(0, 1)])
        with pytest.raises(ReproError, match="edge"):
            td.validate(graph)

    def test_validate_rejects_disconnected_occurrence(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2])
        graph.add_edges_from([(0, 1), (1, 2)])
        td = TreeDecomposition(
            {0: {0, 1}, 1: {1}, 2: {1, 2}}, [(0, 1), (1, 2)]
        )
        td.validate(graph)  # valid: vertex 1 occurrence is connected
        bad = TreeDecomposition({0: {0, 1}, 1: {2}, 2: {1, 2}}, [(0, 1), (1, 2)])
        with pytest.raises(ReproError, match="not connected"):
            bad.validate(graph)

    def test_non_tree_rejected(self):
        with pytest.raises(ReproError, match="tree"):
            TreeDecomposition(
                {0: {1}, 1: {1}, 2: {1}}, [(0, 1), (1, 2), (2, 0)]
            )

    def test_bag_containing_clique(self):
        graph = nx.complete_graph(4)
        td = decompose(graph)
        assert td.bag_containing(range(4)) is not None

    def test_relabeled_preserves_width(self):
        td = decompose(nx.cycle_graph(6))
        relabeled = td.relabeled()
        assert relabeled.width() == td.width()
        relabeled.validate(nx.cycle_graph(6))


class TestEliminationOrders:
    def test_path_orders_have_width_one(self):
        graph = nx.path_graph(10)
        assert from_elimination_order(graph, min_degree_order(graph)).width() == 1
        assert from_elimination_order(graph, min_fill_order(graph)).width() == 1

    def test_cycle_width_two(self):
        graph = nx.cycle_graph(8)
        assert from_elimination_order(graph, min_fill_order(graph)).width() == 2

    def test_invalid_order_rejected(self):
        graph = nx.path_graph(3)
        with pytest.raises(ReproError):
            from_elimination_order(graph, [0, 1])  # missing vertex 2

    def test_disconnected_graph_gives_tree(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        graph.add_node(4)
        td = decompose(graph)
        td.validate(graph)
        assert td.width() == 1


class TestHeuristics:
    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_all_heuristics_produce_valid_decompositions(self, heuristic):
        graph = nx.random_regular_graph(3, 12, seed=1)
        td = decompose(graph, heuristic)
        td.validate(graph)

    def test_empty_graph(self):
        td = decompose(nx.Graph())
        assert td.width() <= 0

    def test_unknown_heuristic(self):
        with pytest.raises(ReproError, match="unknown heuristic"):
            decompose(nx.path_graph(3), "magic")


class TestExactTreewidth:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (nx.empty_graph(4), 0),
            (nx.path_graph(6), 1),
            (nx.cycle_graph(6), 2),
            (nx.complete_graph(5), 4),
            (nx.grid_2d_graph(3, 3), 3),
            (nx.star_graph(5), 1),
        ],
    )
    def test_known_treewidths(self, graph, expected):
        assert exact_treewidth(graph) == expected

    def test_exact_decomposition_achieves_optimum(self):
        graph = nx.cycle_graph(6)
        td = exact_decomposition(graph)
        td.validate(graph)
        assert td.width() == exact_treewidth(graph)

    def test_heuristics_never_beat_exact(self):
        for seed in range(5):
            graph = nx.gnp_random_graph(8, 0.4, seed=seed)
            exact = exact_treewidth(graph)
            for heuristic in ("min_degree", "min_fill"):
                assert decompose(graph, heuristic).width() >= exact

    def test_size_cap(self):
        with pytest.raises(ReproError, match="18 vertices"):
            exact_treewidth(nx.path_graph(25))


class TestNiceTree:
    def test_path_nice_tree_valid(self):
        graph = nx.path_graph(6)
        td = decompose(graph)
        nice = build_nice_tree(td)
        check_nice_tree(nice)
        assert nice.width() == td.width()

    def test_read_nodes_inserted(self):
        graph = nx.path_graph(4)
        td = decompose(graph)
        node = next(iter(td.bags))
        nice = build_nice_tree(td, {node: ["item1", "item2"]})
        check_nice_tree(nice)
        assert nice.count("read") == 2
        assert nice.items == ("item1", "item2")

    def test_join_nodes_for_branching(self):
        graph = nx.star_graph(4)
        td = decompose(graph)
        nice = build_nice_tree(td)
        check_nice_tree(nice)

    def test_root_bag_empty(self):
        td = decompose(nx.cycle_graph(5))
        nice = build_nice_tree(td)
        assert nice.root.bag == frozenset()

    def test_every_vertex_introduced_and_forgotten(self):
        graph = nx.cycle_graph(5)
        nice = build_nice_tree(decompose(graph))
        introduced = [n.vertex for n in nice.iter_postorder() if n.kind == "introduce"]
        forgotten = [n.vertex for n in nice.iter_postorder() if n.kind == "forget"]
        assert set(introduced) == set(graph.nodes)
        assert set(forgotten) == set(graph.nodes)

    def test_deep_path_builds_without_recursion(self):
        """Regression: one nesting level per bag used to hit the recursion
        limit (a 5000-bag path, ``build_lineage`` on a 600-element chain)."""
        n = 5000
        td = TreeDecomposition(
            {i: {i, i + 1} for i in range(n)}, [(i, i + 1) for i in range(n - 1)]
        )
        nice = build_nice_tree(td, {n - 1: ["last"]})
        check_nice_tree(nice)
        assert nice.width() == 1
        assert nice.count("read") == 1
        assert nice.count("introduce") == nice.count("forget") == n + 1


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_heuristic_decompositions_always_valid(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 12)
    graph = nx.gnp_random_graph(n, rng.uniform(0.1, 0.7), seed=seed)
    for heuristic in ("min_degree", "min_fill"):
        td = decompose(graph, heuristic)
        td.validate(graph)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_nice_tree_structurally_valid_on_random_graphs(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 10)
    graph = nx.gnp_random_graph(n, 0.4, seed=seed)
    td = decompose(graph)
    nice = build_nice_tree(td)
    check_nice_tree(nice)
    assert nice.width() <= td.width()
