"""Certain query answering over key-violating databases (CQA).

The second query-evaluation engine of the library, beside the
probabilistic one.  A database may violate its primary keys
(:class:`repro.queries.keys.KeySpec`); its *repairs* keep exactly one
fact per block, and a Boolean query is **certain** when it holds in
every repair.  For self-join-free conjunctive queries the complexity of
that decision follows the Koutris–Wijsen trichotomy, and this package
routes each query accordingly:

- :func:`classify` — the attack-graph test placing a query in
  ``"fo"`` / ``"ptime"`` / ``"conp"``;
- :func:`certain_answers` — the routed decision procedure (first-order
  rewriting, polynomial propagation, or circuit encoding);
- :func:`fo_rewriting` — the printable FO rewriting artifact;
- :func:`certain_oracle` — brute-force all-repairs ground truth;
- :func:`repair_lineage` / :func:`certain_by_circuit` — the lowering of
  "q holds in a uniformly random repair" onto the compiled circuit
  pipeline;
- :func:`cqa_stats` — routing counters (also surfaced by
  ``repro.capabilities()``).

See ARCHITECTURE.md § "Certain answers" for the design and
``repro cqa`` / E20 for the executable tour.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".attacks": (
        "CONP",
        "FO",
        "PTIME",
        "Attack",
        "Classification",
        "attack_graph",
        "classify",
    ),
    ".circuit": ("certain_by_circuit", "repair_lineage"),
    ".engine": ("METHODS", "certain_answers", "cqa_stats"),
    ".repairs": ("blocks", "certain_oracle", "iter_repairs", "repair_count"),
    ".rewrite": ("FORewriting", "elimination_order", "fo_rewriting"),
})
