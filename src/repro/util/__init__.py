"""Shared utilities: deterministic RNG helpers, iteration helpers, validation."""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".helpers": (
        "ReproError",
        "check",
        "fresh_name_factory",
        "pairs",
        "powerset",
        "stable_rng",
    ),
})
