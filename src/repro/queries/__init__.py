"""Query languages: CQs, UCQs, safe plans, Datalog (S5)."""

# ``cq`` also names a submodule, so it is bound eagerly: importing the
# submodule later then cannot rebind ``repro.queries.cq`` to the module.
from repro.queries.cq import cq  # noqa: F401
from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".cq": (
        "Atom",
        "ConjunctiveQuery",
        "UnionOfConjunctiveQueries",
        "Variable",
        "atom",
        "cq",
        "homomorphisms",
        "ucq",
        "variables",
    ),
    ".datalog": ("DatalogProgram", "DatalogRule"),
    ".keys": ("KeySpec", "key_spec"),
    ".safe": (
        "UnsafeQueryError",
        "is_hierarchical",
        "is_safe",
        "safe_plan_probability",
    ),
})
