"""Conditioning on observations and crowd question selection (S11)."""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".condition": ("ConditionedInstance", "condition_pc_on_literal"),
    ".crowd": (
        "CrowdSession",
        "CrowdSessionStep",
        "SimulatedCrowd",
        "binary_entropy",
        "choose_question_greedy",
        "expected_entropy_after_asking",
        "run_crowd_session",
    ),
})
