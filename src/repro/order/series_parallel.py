"""Series-parallel posets: recognition and polynomial extension counting.

Counting linear extensions is #P-complete in general but polynomial on
series-parallel posets — the class generated from singletons by series
(concat) and parallel (union) composition, i.e. by the po-relation algebra
without products. The paper points to such "specific structures of partial
orders" as the tractable cases; experiment E8 measures the gap.

Recognition is by recursive decomposition: a poset splits in *parallel* when
its comparability graph is disconnected, and in *series* when its elements
partition into consecutive layers (every element of one part below every
element of the next). Posets admitting neither split (and size > 1) contain
an N-shape and are not series-parallel.
"""

from __future__ import annotations

import math

from repro.order.posets import LabeledPoset
from repro.util import ReproError


class NotSeriesParallel(ReproError):
    """Raised when a poset is not series-parallel."""


def _comparability_components(poset: LabeledPoset) -> list[set]:
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(poset.elements())
    for a, b in poset.closure_pairs():
        graph.add_edge(a, b)
    return [set(c) for c in nx.connected_components(graph)]


def _series_split(poset: LabeledPoset) -> tuple[set, set] | None:
    """Find a split (bottom, top) with bottom × top fully ordered, if any."""
    elements = poset.elements()
    closure = poset.closure_pairs()
    below_count = {e: 0 for e in elements}
    for a, b in closure:
        below_count[b] += 1
    # Try splits along the "level" structure: candidates are sets closed
    # downward. A valid series split must be a downset D such that every
    # element of D is below every element outside D.
    order_by_rank = sorted(elements, key=lambda e: (below_count[e], str(e)))
    for size in range(1, len(elements)):
        bottom = set(order_by_rank[:size])
        top = set(order_by_rank[size:])
        if all((a, b) in closure for a in bottom for b in top):
            return bottom, top
    return None


def is_series_parallel(poset: LabeledPoset) -> bool:
    """Whether the poset is series-parallel (N-free)."""
    try:
        count_linear_extensions_sp(poset)
    except NotSeriesParallel:
        return False
    return True


def count_linear_extensions_sp(poset: LabeledPoset) -> int:
    """Count linear extensions of a series-parallel poset in polynomial time.

    Parallel composition of posets with ``m`` and ``n`` elements multiplies
    the counts by the binomial interleaving factor ``C(m+n, m)``; series
    composition multiplies the counts directly.

    Raises :class:`NotSeriesParallel` when the poset is not series-parallel.
    """
    n = len(poset)
    if n <= 1:
        return 1
    components = _comparability_components(poset)
    if len(components) > 1:
        total = 1
        placed = 0
        for component in components:
            sub = poset.restricted_to(component)
            total *= count_linear_extensions_sp(sub)
            total *= math.comb(placed + len(component), len(component))
            placed += len(component)
        return total
    split = _series_split(poset)
    if split is not None:
        bottom, top = split
        return count_linear_extensions_sp(
            poset.restricted_to(bottom)
        ) * count_linear_extensions_sp(poset.restricted_to(top))
    raise NotSeriesParallel(
        f"poset with {n} elements is connected with no series split (contains an N)"
    )
