"""Probabilistic XML: documents, patterns, scopes, tractable evaluation (S8)."""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".evaluation": (
        "AUTO",
        "DIRECT",
        "MESSAGE_PASSING",
        "SHANNON",
        "PrXMLLineage",
        "build_pattern_lineage",
        "query_probability",
    ),
    ".model": (
        "CIE",
        "DET",
        "IND",
        "MUX",
        "REGULAR",
        "PNode",
        "PrXMLDocument",
        "World",
        "cie",
        "det",
        "ind",
        "make_world",
        "mux",
        "regular",
        "world_children",
        "world_label",
    ),
    ".patterns": (
        "CHILD",
        "DESCENDANT",
        "WILDCARD",
        "PatternNode",
        "TreePattern",
        "path_pattern",
        "pattern",
    ),
    ".scopes": ("event_scopes", "events_used", "node_scopes", "scope_width"),
    ".semantics": (
        "query_probability_enumerate",
        "sample_world",
        "world_distribution",
    ),
})
