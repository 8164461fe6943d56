"""repro — Structurally Tractable Uncertain Data.

A complete implementation of the systems described in Antoine Amarilli's
SIGMOD 2015 PhD-symposium paper "Structurally Tractable Uncertain Data":

- uncertain relational data (TID, c-/pc-/pcc-instances) with exact query
  evaluation that is linear-time on bounded-treewidth instances (Theorems
  1–2), via deterministic decomposition automata, lineage circuits, and
  junction-tree message passing;
- probabilistic XML with local (ind/mux) and scoped global (cie) uncertainty;
- semiring provenance through provenance circuits;
- order-incomplete data (po-relations) with a bag-semantics positive
  relational algebra;
- conditioning on observations and crowd question selection;
- probabilistic rules via the trigger-level probabilistic chase;
- baselines: possible-world enumeration, Monte Carlo, Karp–Luby, Shannon
  expansion, Dalvi–Suciu safe plans.

Quickstart::

    from repro import TIDInstance, fact, cq, atom, variables, tid_probability
    x, y = variables("x", "y")
    q = cq(atom("R", x), atom("S", x, y), atom("T", y))
    tid = TIDInstance({fact("R", 1): 0.6, fact("S", 1, 2): 0.5, fact("T", 2): 0.8})
    print(tid_probability(q, tid))   # exact, via the treewidth-based engine

This package root is the blessed public surface: the core verbs
(:func:`make_instance`, :func:`homomorphisms`,
:func:`build_provenance_circuit`, :func:`compile_circuit`,
:func:`probability_batch`, :func:`certain_answers`), introspection
(:func:`capabilities`), and configuration (:func:`configure` /
:func:`overrides` over the knob registry in :mod:`repro.config`).
Submodules remain importable for specialized entry points, but everything
``examples/quickstart.py`` needs comes from ``repro`` directly. Each name
resolves on first use (:mod:`repro.util.lazy`), so ``import repro`` loads
no subsystem until one is asked for.

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.util.lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".baselines": (
        "karp_luby_probability",
        "monte_carlo_probability",
        "pc_probability_enumerate",
        "pcc_probability_enumerate",
        "tid_certain",
        "tid_possible",
        "tid_probability_enumerate",
    ),
    ".circuits": (
        "Circuit",
        "CompiledCircuit",
        "available_engines",
        "capabilities",
        "compile_circuit",
        "plan_from_bytes",
        "pool_stats",
        ("probability", "circuit_probability"),
        "probability_batch",
    ),
    ".conditioning": ("ConditionedInstance", "SimulatedCrowd", "run_crowd_session"),
    ".config": ("configure", "overrides"),
    ".core": (
        "BipartiteAutomaton",
        "CQAutomaton",
        "DecompositionAutomaton",
        "Lineage",
        "ParityAutomaton",
        "STConnectivityAutomaton",
        "build_lineage",
        "build_provenance_circuit",
        "pc_probability",
        "pcc_probability",
        "tid_probability",
    ),
    ".cqa": (
        "certain_answers",
        "certain_oracle",
        "classify",
        "cqa_stats",
        "fo_rewriting",
    ),
    ".events": ("EventSpace", "Formula", "var"),
    ".instances": (
        "AbstractInstance",
        "CInstance",
        "ColumnarInstance",
        "Fact",
        "Instance",
        "PCCInstance",
        "PCInstance",
        "TIDInstance",
        "fact",
        "make_instance",
        "pc_from_tid",
        "pcc_from_pc",
        "pcc_from_tid",
    ),
    ".order": ("LabeledPoset", "antichain", "chain"),
    ".prxml": ("PrXMLDocument", "TreePattern", "path_pattern", "query_probability"),
    ".queries": (
        "ConjunctiveQuery",
        "KeySpec",
        "UnionOfConjunctiveQueries",
        "atom",
        "cq",
        "homomorphisms",
        "is_safe",
        "key_spec",
        "safe_plan_probability",
        "ucq",
        "variables",
    ),
    ".rules": ("ProbabilisticRule", "chase", "probabilistic_chase", "rule"),
    ".semirings": ("Semiring", "circuit_provenance", "reference_provenance"),
    ".service": ("ServiceClient", "spawn_service"),
    ".treewidth": ("TreeDecomposition", "decompose", "exact_treewidth"),
    ".workloads": (
        "ALL_TRIPS",
        "cqa_trichotomy_queries",
        "key_violation_instance",
        "rst_chain_tid",
        "table1_cinstance",
        "table1_pc_instance",
    ),
})
