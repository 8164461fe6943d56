"""Workload generators: certified graphs, Figure 1 / Table 1, logs, KBs (S14)."""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".generators": (
        "GeneratedGraph",
        "core_and_tentacles_tid",
        "cycle_tid",
        "grid_tid",
        "partial_ktree_tid",
        "path_tid",
        "rst_bipartite_tid",
        "rst_chain_tid",
    ),
    ".kb": ("ADVISOR_RULES", "CITIZEN_RULES", "KBWorkload", "advisor_kb", "citizenship_kb"),
    ".logs": ("LogWorkload", "StreamingLogMonitor", "generate_logs", "true_interleaving"),
    ".trips": (
        "ALL_TRIPS",
        "PODS",
        "STOC",
        "TRIP_CDG_MEL",
        "TRIP_CDG_PDX",
        "TRIP_MEL_CDG",
        "TRIP_MEL_PDX",
        "TRIP_PDX_CDG",
        "table1_cinstance",
        "table1_pc_instance",
    ),
    ".violations": (
        "CQAWorkload",
        "cqa_trichotomy_queries",
        "cqa_workload",
        "key_violation_instance",
    ),
    ".wikidata": (
        "FIGURE1_EVENT_JANE",
        "adversarial_scope_document",
        "figure1_document",
        "wikidata_like_document",
    ),
})
