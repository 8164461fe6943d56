"""Boolean events, propositional formulas, and independent probability spaces.

This is substrate S1 of DESIGN.md: the annotation language of c-instances and
pc-instances, and the event vocabulary shared by PrXML documents, conditioning
and the probabilistic chase.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".formulas": (
        "FALSE",
        "TRUE",
        "And",
        "Const",
        "Formula",
        "Not",
        "Or",
        "Valuation",
        "Var",
        "conj",
        "disj",
        "literal",
        "var",
    ),
    ".space": ("EventSpace",),
})
