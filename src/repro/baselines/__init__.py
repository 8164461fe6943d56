"""Baselines the structural approach is compared against (S13)."""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".enumeration": (
        "pc_probability_enumerate",
        "pcc_probability_enumerate",
        "tid_certain",
        "tid_possible",
        "tid_probability_enumerate",
    ),
    ".sampling": (
        "karp_luby_probability",
        "monte_carlo_probability",
        "required_samples",
    ),
})
