"""Semiring provenance (S9)."""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": (
        "ABSORPTIVE_SEMIRINGS",
        "CLEARANCES",
        "CONFIDENTIAL",
        "NEVER",
        "NON_ABSORPTIVE_SEMIRINGS",
        "PUBLIC",
        "SECRET",
        "TOP_SECRET",
        "BooleanSemiring",
        "Clearance",
        "CountingSemiring",
        "FuzzySemiring",
        "PolynomialSemiring",
        "PosBoolSemiring",
        "SecuritySemiring",
        "Semiring",
        "TropicalSemiring",
        "ViterbiSemiring",
        "WhySemiring",
    ),
    ".krelations": ("KRelation", "evaluate_cq_algebraically", "from_instance"),
    ".provenance": (
        "circuit_provenance",
        "default_tokens",
        "evaluate_circuit",
        "reference_provenance",
    ),
})
