"""Bottom-up tree automata and the query-to-automaton bridge (S7)."""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".bridge": ("PatternAutomaton",),
    ".bta": ("TreeAutomaton",),
    ".trees": ("LEAF", "BinaryTree", "decode_world", "encode_world", "leaf", "node"),
})
