"""Order uncertainty: po-relations, algebra, linear extensions (S10)."""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".algebra": (
        "concat",
        "interleavings",
        "product_direct",
        "product_lex",
        "projection",
        "selection",
        "union",
    ),
    ".linear_extensions": (
        "count_linear_extensions",
        "extension_labels",
        "is_linear_extension",
        "iter_linear_extensions",
        "possible_worlds",
        "sample_linear_extension",
    ),
    ".membership": ("certain_pairs", "is_possible_world", "membership_backtracking"),
    ".numeric": (
        "is_realizable_order",
        "order_probability",
        "poset_from_intervals",
        "sample_order",
    ),
    ".posets": ("LabeledPoset", "antichain", "chain"),
    ".probability": (
        "count_realizations",
        "most_probable_worlds",
        "pair_order_probability",
        "world_probability",
    ),
    ".series_parallel": (
        "NotSeriesParallel",
        "count_linear_extensions_sp",
        "is_series_parallel",
    ),
})
