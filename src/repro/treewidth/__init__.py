"""Tree decompositions, width heuristics, exact treewidth, nice trees (S3)."""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".decomposition": ("TreeDecomposition", "from_elimination_order"),
    ".exact": ("exact_decomposition", "exact_treewidth"),
    ".heuristics": (
        "HEURISTICS",
        "MIN_DEGREE",
        "MIN_FILL",
        "NETWORKX_MIN_DEGREE",
        "NETWORKX_MIN_FILL",
        "decompose",
        "greedy_width",
        "min_degree_order",
        "min_fill_order",
    ),
    ".nice": (
        "FORGET",
        "INTRODUCE",
        "JOIN",
        "LEAF",
        "READ",
        "NiceNode",
        "NiceTree",
        "build_nice_tree",
        "check_nice_tree",
    ),
})
