"""Relational substrate: instances, TIDs, c-/pc-/pcc-instances (S4)."""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": (
        "AbstractInstance",
        "Constant",
        "Fact",
        "Instance",
        "fact",
        "variable_name_of",
    ),
    ".cinstance": ("CInstance", "PCInstance", ("from_tid", "pc_from_tid")),
    ".columnar": (
        "ColumnarInstance",
        "instance_backend",
        "instance_backend_set",
        "make_instance",
        "set_instance_backend",
    ),
    ".pcc": (
        "PCCInstance",
        ("from_pc_instance", "pcc_from_pc"),
        ("from_tid", "pcc_from_tid"),
    ),
    ".tid": ("TIDInstance",),
})
