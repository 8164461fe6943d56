"""The core lineage engine: Theorems 1 and 2 executable (S6)."""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".answers": (
        "RankedAnswer",
        "answer_lineages",
        "answer_probabilities",
        "candidate_answers",
        "substitute_answer",
    ),
    ".automaton": (
        "DecompositionAutomaton",
        "NegationAutomaton",
        "ProductAutomaton",
        "conjunction",
        "disjunction",
        "negation",
    ),
    ".cq_automaton": ("CQAutomaton", "automaton_for"),
    ".engine": (
        "Lineage",
        "assign_facts_to_bags",
        "build_lineage",
        "build_provenance_circuit",
        "combine_with_annotations",
        "compile_query_plan",
        "instance_decomposition",
        "pc_probability",
        "pcc_probability",
        "tid_probability",
    ),
    ".graph_automata": (
        "AllDegreesEvenAutomaton",
        "BipartiteAutomaton",
        "EdgeConnectedAutomaton",
        "ParityAutomaton",
        "STConnectivityAutomaton",
    ),
    ".hybrid": (
        "HybridReduction",
        "hybrid_stconn",
        "monte_carlo_stconn",
        "reduce_for_stconn",
        "series_factor_terminals",
    ),
    ".possibility": ("certain", "possible"),
})
