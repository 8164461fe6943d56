"""Probabilistic rules: tgds, chase, probabilistic chase (S12)."""

# ``chase`` also names a submodule, so it is bound eagerly: importing the
# submodule later then cannot rebind ``repro.rules.chase`` to the module.
from repro.rules.chase import chase  # noqa: F401
from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".chase": ("Null", "certain_answer", "chase"),
    ".probabilistic": (
        "RULE_LEVEL",
        "TRIGGER_LEVEL",
        "ProbabilisticRule",
        "derived_fact_probability",
        "probabilistic_chase",
    ),
    ".tgds": ("ExistentialRule", "is_weakly_acyclic", "rule"),
})
