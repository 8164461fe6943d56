"""Partial tree decompositions: exact tentacles + sampled core (E12).

The paper's perspective: "structure uncertain instances as a high-treewidth
core and low-treewidth tentacles, and evaluate queries by combining
[the exact method] on the tentacles and sampling-based approximate methods on
the core" — the ProbTree idea ([38]) in the s–t connectivity setting.

We implement it for s–t reachability over an uncertain edge relation:

1. *peel* the graph: repeatedly remove low-degree vertices (never the
   terminals); removed vertices form the periphery, the rest the core;
2. each periphery fragment touching the core at ≤ 2 boundary vertices is
   *summarized exactly*: its two-terminal reliability is computed with the
   treewidth-based engine (fragments peeled at degree ≤ 2 have treewidth
   ≤ 2) and the fragment is replaced by one equivalent uncertain edge;
3. Monte-Carlo estimation runs on the *reduced* instance.

The replacement is exact in distribution, so the estimator stays unbiased
while each sample touches far fewer uncertain facts (cheaper samples, hence
better time-to-accuracy). When a terminal sits at the tip of a summarized
chain, the chain's reliability additionally factors out of the estimator
(*series reduction*), which is a genuine Rao–Blackwellization: part of the
randomness is integrated exactly, lowering the variance per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.engine import tid_probability
from repro.core.graph_automata import STConnectivityAutomaton
from repro.instances.base import Fact, fact
from repro.instances.tid import TIDInstance
from repro.util import check, stable_rng

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class HybridReduction:
    """Outcome of the core/tentacle reduction."""

    reduced: TIDInstance
    core_vertices: frozenset
    periphery_vertices: frozenset
    fragments_summarized: int
    fragments_kept: int


def _edge_graph(tid: TIDInstance) -> nx.Graph:
    import networkx as nx

    graph = nx.Graph()
    for f in tid.facts():
        if f.relation == "E" and f.arity == 2:
            graph.add_edge(*f.args)
    return graph


def peel(graph: nx.Graph, keep: frozenset, max_degree: int = 2) -> frozenset:
    """Iteratively remove vertices of degree ≤ ``max_degree`` (except ``keep``).

    Returns the set of *removed* (periphery) vertices.
    """
    import networkx as nx

    work = nx.Graph(graph)
    removed: set = set()
    changed = True
    while changed:
        changed = False
        for v in sorted(work.nodes, key=str):
            if v in keep:
                continue
            if work.degree(v) <= max_degree:
                work.remove_node(v)
                removed.add(v)
                changed = True
    return frozenset(removed)


def reduce_for_stconn(
    tid: TIDInstance, source, target, peel_degree: int = 2
) -> HybridReduction:
    """Summarize ≤2-boundary periphery fragments into equivalent edges."""
    import networkx as nx

    graph = _edge_graph(tid)
    check(graph.number_of_nodes() > 0, "no E-edges in the instance")
    keep = frozenset({source, target})
    periphery = peel(graph, keep, peel_degree)
    core = frozenset(graph.nodes) - periphery

    fragment_graph = graph.subgraph(periphery)
    reduced = TIDInstance()
    gadget_probabilities: dict[tuple, list[float]] = {}
    summarized = 0
    kept = 0

    consumed_facts: set[Fact] = set()
    for component in nx.connected_components(fragment_graph):
        boundary = sorted(
            {n for v in component for n in graph.neighbors(v) if n in core}, key=str
        )
        fragment_facts = [
            f
            for f in tid.facts()
            if f.relation == "E"
            and (f.args[0] in component or f.args[1] in component)
        ]
        if len(boundary) == 2:
            u, v = boundary
            fragment_tid = TIDInstance(
                {f: tid.probability(f) for f in fragment_facts}
            )
            reliability = tid_probability(
                STConnectivityAutomaton(u, v), fragment_tid
            )
            key = (u, v) if str(u) <= str(v) else (v, u)
            gadget_probabilities.setdefault(key, []).append(reliability)
            consumed_facts.update(fragment_facts)
            summarized += 1
        elif len(boundary) <= 1:
            # A dangling fragment cannot lie on any s–t path: drop it.
            consumed_facts.update(fragment_facts)
            summarized += 1
        else:
            kept += 1  # fragment stays as-is

    for f in tid.facts():
        if f in consumed_facts:
            continue
        if f.relation == "E" and f.arity == 2:
            a, b = f.args
            key = (a, b) if str(a) <= str(b) else (b, a)
            gadget_probabilities.setdefault(key, []).append(tid.probability(f))
        else:
            reduced.add(f, tid.probability(f))
    for (a, b), probabilities in sorted(gadget_probabilities.items(), key=str):
        miss = 1.0
        for p in probabilities:
            miss *= 1.0 - p
        reduced.add(fact("E", a, b), 1.0 - miss)

    return HybridReduction(
        reduced=reduced,
        core_vertices=core,
        periphery_vertices=periphery,
        fragments_summarized=summarized,
        fragments_kept=kept,
    )


def monte_carlo_stconn(
    tid: TIDInstance, source, target, samples: int, seed: int = 0
) -> float:
    """Naive Monte-Carlo estimate of P(source ~ target) (union-find)."""
    check(samples > 0, "need at least one sample")
    rng = stable_rng(seed)
    edges = [
        (f.args[0], f.args[1], tid.probability(f))
        for f in tid.facts()
        if f.relation == "E" and f.arity == 2
    ]
    hits = 0
    for _ in range(samples):
        parent: dict = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b, p in edges:
            if rng.random() < p:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        if find(source) == find(target):
            hits += 1
    return hits / samples


def series_factor_terminals(
    tid: TIDInstance, source, target
) -> tuple[float, object, object, TIDInstance]:
    """Factor out pendant chains at the terminals (series reduction).

    While a terminal has exactly one incident uncertain edge, that edge must
    lie on every source–target path: its probability multiplies out of the
    estimator and the terminal moves to the edge's other endpoint. Returns
    ``(factor, new_source, new_target, reduced_tid)``; if the terminals meet,
    the probability is exactly ``factor`` and the remaining instance is empty.
    """
    factor = 1.0
    edges = {
        f: tid.probability(f)
        for f in tid.facts()
        if f.relation == "E" and f.arity == 2
    }
    s, t = source, target
    changed = True
    while changed and s != t:
        changed = False
        for terminal in (s, t):
            incident = [f for f in edges if terminal in f.args]
            if len(incident) != 1:
                continue
            edge = incident[0]
            other = edge.args[0] if edge.args[1] == terminal else edge.args[1]
            factor *= edges.pop(edge)
            if terminal == s:
                s = other
            else:
                t = other
            changed = True
            break
    reduced = TIDInstance(edges)
    return factor, s, t, reduced


def hybrid_stconn(
    tid: TIDInstance, source, target, samples: int, seed: int = 0, peel_degree: int = 2
) -> tuple[float, HybridReduction]:
    """Hybrid estimate: exact summarization + series factoring + Monte Carlo."""
    reduction = reduce_for_stconn(tid, source, target, peel_degree)
    factor, s, t, remaining = series_factor_terminals(
        reduction.reduced, source, target
    )
    if s == t:
        return factor, reduction
    if not any(f.relation == "E" for f in remaining.facts()):
        return 0.0, reduction
    estimate = factor * monte_carlo_stconn(remaining, s, t, samples, seed)
    return estimate, reduction
