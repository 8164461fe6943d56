"""Unified evaluation layer: compile once, pick an engine, evaluate many.

Every probability computation on circuits in this codebase goes through this
module: a circuit is lowered once to the flat IR
(:func:`repro.circuits.compiled.compile_circuit`, cached on the arena) and
then handed to one of the registered *engines*:

- ``enumerate`` — brute force over all variable valuations (the oracle);
- ``shannon`` — Shannon expansion with residual-circuit memoization;
- ``message_passing`` — the paper's junction-tree sum-product over a tree
  decomposition of the binarized circuit's moral graph (Theorems 1–2);
- ``dd`` — the linear-time bottom-up pass, correct on deterministic
  decomposable circuits over independent variables (Theorem 1).

Engines are plain callables ``engine(compiled, space, **kwargs)`` registered
with :func:`register_engine`, so new strategies (knowledge compilation,
sampling back-ends, vectorized kernels) plug in without touching consumers.
:func:`probability` is the front door; ``repro.circuits.wmc`` and
``repro.circuits.dd`` re-export the historical entry points as thin wrappers
over this layer.

Orthogonal to the engine choice is the **execution backend** the batch
entry points run on: scalar generated kernels (always), level-scheduled
numpy kernels (when numpy imports), and the sharded multi-process pool of
:mod:`repro.circuits.parallel` (when the ``parallel_workers`` knob, which
:func:`capabilities` reports, is set to two or more).
Engines pick *what* to compute; the backend stack picks *how fast*; see
``ARCHITECTURE.md`` for the full lowering pipeline.
"""

from __future__ import annotations

import os
from collections.abc import Callable

from repro.circuits.circuit import Circuit
from repro.circuits.compiled import (
    ENUMERATION_VARIABLE_CAP,
    K_AND,
    K_FALSE,
    K_NOT,
    K_OR,
    K_TRUE,
    K_VAR,
    CompiledCircuit,
    batch_stats,
    compile_circuit,
    compile_stats,
)
from repro.events import EventSpace
from repro.util import ReproError, check

Engine = Callable[..., float]


def capabilities() -> dict:
    """Execution capabilities of this install, for CLI/test introspection.

    Reports whether the sharded multi-process backend is available, the
    engine and instance-backend knobs, the
    ``parallel_workers`` and ``distributed_hosts`` knobs, whether worker
    authentication is armed, the full plan-cache state, the CQA engine's
    trichotomy classes and routing counters, a snapshot of the persistent
    host pool's counters, and the visible CPU count — one call reports the
    whole configuration (engines are listed by :func:`available_engines`).
    """
    from repro.circuits import distributed, parallel, plancache
    from repro.cqa import CONP, FO, PTIME, cqa_stats
    from repro.instances.columnar import instance_backend

    return {
        "engine": default_engine(),
        "forced_engine": forced_engine(),
        "instance_backend": instance_backend(),
        "parallel": parallel.parallel_available(),
        "parallel_workers": parallel.parallel_workers(),
        "distributed_hosts": list(distributed.distributed_hosts()),
        "distributed_auth": distributed.distributed_secret() is not None,
        "distributed_transport": distributed.auth_provider().name,
        "distributed_pipeline": distributed.pipeline_depth(),
        "distributed_registered": list(distributed.registered_hosts()),
        "distributed_pool": distributed.pool_stats(),
        "plan_cache_dir": plancache.plan_cache_dir(),
        "plan_cache_enabled": plancache.enabled(),
        "plan_cache_limit_bytes": plancache.plan_cache_limit_bytes(),
        "plan_cache_min_gates": plancache.min_gates(),
        "plan_cache": plancache.plan_cache_stats(),
        "cqa_classes": [FO, PTIME, CONP],
        "cqa": cqa_stats(),
        "compile": compile_stats(),
        "batch": batch_stats(),
        "cpu_count": os.cpu_count() or 1,
    }

_ENGINES: dict[str, Engine] = {}
_DEFAULT_ENGINE = "message_passing"
_FORCED_ENGINE: str | None = None


def register_engine(name: str, engine: Engine) -> None:
    """Register (or replace) a probability engine under ``name``."""
    check(bool(name), "engine name must be non-empty")
    _ENGINES[name] = engine


def available_engines() -> tuple[str, ...]:
    """Names of all registered engines, sorted."""
    return tuple(sorted(_ENGINES))


def get_engine(name: str) -> Engine:
    """Look up a registered engine; raises with the known names otherwise."""
    engine = _ENGINES.get(name)
    if engine is None:
        raise ReproError(
            f"unknown evaluation engine {name!r}; available: "
            f"{', '.join(available_engines())}"
        )
    return engine


def default_engine() -> str:
    """The engine used when :func:`probability` is called without one."""
    return _DEFAULT_ENGINE


def set_default_engine(name: str) -> None:
    """Set the process-wide default engine (validated against the registry)."""
    global _DEFAULT_ENGINE
    get_engine(name)
    _DEFAULT_ENGINE = name


def forced_engine() -> str | None:
    """The engine override applied to every dispatch, or ``None``."""
    return _FORCED_ENGINE


def force_engine(name: str | None) -> None:
    """Force *every* :func:`probability` call onto one engine.

    Overrides even explicit per-call ``engine=`` choices — this is the
    expert knob behind the CLI's ``--engine`` flag, for comparing engines
    on whole workloads. ``None`` clears the override. Note ``dd`` is only
    correct on deterministic decomposable circuits and ``enumerate`` is
    capped at :data:`~repro.circuits.compiled.ENUMERATION_VARIABLE_CAP`
    variables; forcing them where they do not apply is on the caller.
    """
    global _FORCED_ENGINE
    if name is not None:
        get_engine(name)
    _FORCED_ENGINE = name


def engine_forced(name: str | None):
    """Scope a :func:`force_engine` override, restoring the previous one.

    ``force_engine``/``set_default_engine`` are process-wide; tests and
    experiment drivers that flip them should do so through scoped context
    managers so an exception (or an early return) cannot leak the override
    into unrelated code.  Thin shim over :func:`repro.config.overrides`.
    """
    from repro import config

    return config.overrides(forced_engine=name)


def default_engine_set(name: str):
    """Scope a :func:`set_default_engine` change, restoring the previous one.

    Thin shim over :func:`repro.config.overrides`.
    """
    from repro import config

    return config.overrides(engine=name)


def probability(
    circuit: Circuit | CompiledCircuit,
    space: EventSpace,
    engine: str | None = None,
    **kwargs,
):
    """Probability that the circuit's output is true under ``space``.

    ``circuit`` may be a gate arena (compiled on first use, cached) or an
    already-compiled circuit. ``engine`` picks a registered strategy; when
    omitted, the process default (:func:`default_engine`) applies, and a
    :func:`force_engine` override beats both. Extra keyword arguments are
    forwarded to the engine.
    """
    compiled = compile_circuit(circuit)
    selected = _FORCED_ENGINE or engine or _DEFAULT_ENGINE
    result = get_engine(selected)(compiled, space, **kwargs)
    if kwargs.get("return_report") and not isinstance(result, tuple):
        # A forced engine without report support still honours the caller's
        # (value, report) contract, with placeholder diagnostics.
        return result, MessagePassingReport(-1, 0, compiled.size)
    return result


def probability_batch(
    circuit: Circuit | CompiledCircuit, marginals_batch
) -> list[float]:
    """Batched Theorem-1 probabilities, one per row of per-variable marginals.

    Module-level form of :meth:`CompiledCircuit.probability_batch` for the
    blessed ``repro`` facade: compiles (or reuses the cached lowering of)
    ``circuit`` and runs the leveled batch pass — numpy kernels, the
    sharded pool, or distributed hosts, per the configured knobs.
    """
    return compile_circuit(circuit).probability_batch(marginals_batch)


# --------------------------------------------------------------------------- #
# enumerate / dd engines — direct fast paths on the flat IR


def _engine_enumerate(
    compiled: CompiledCircuit,
    space: EventSpace,
    max_vars: int = ENUMERATION_VARIABLE_CAP,
    **_kwargs,
) -> float:
    return compiled.probability_enumerate(space, max_vars=max_vars)


def _engine_dd(compiled: CompiledCircuit, space: EventSpace, **_kwargs) -> float:
    return compiled.probability(space)


# --------------------------------------------------------------------------- #
# Shannon expansion on the flat IR

_UNKNOWN = 2
_DEAD = 3


def _engine_shannon(compiled: CompiledCircuit, space: EventSpace, **_kwargs) -> float:
    """Shannon expansion with memoization on the residual three-valued state.

    Branches variables in slot order; after each partial assignment one
    three-valued bottom-up pass (0 / 1 / unknown) both constant-folds the
    circuit and yields a memo key over the gates still reachable from the
    output — the flat-IR analogue of rebuilding a hash-consed restricted
    circuit. Runs on an explicit work stack, so variable count is not
    bounded by the interpreter recursion limit. Exponential in the worst
    case; the baseline the structural engines are compared against.
    """
    probs = compiled.slot_marginals(space)
    size = compiled.size
    kinds = compiled.kinds
    offsets = compiled.offsets
    indices = compiled.indices
    var_slot = compiled.var_slot
    output = compiled.output
    cache: dict[bytes, float] = {}

    def analyze(assignment: tuple[int, ...]):
        """Three-valued pass: resolved value, or (memo key, pivot slot)."""
        values = bytearray(size)
        for pos in range(size):
            kind = kinds[pos]
            if kind == K_VAR:
                value = assignment[var_slot[pos]]
            elif kind == K_AND:
                value = 1
                for j in range(offsets[pos], offsets[pos + 1]):
                    child = values[indices[j]]
                    if child == 0:
                        value = 0
                        break
                    if child == _UNKNOWN:
                        value = _UNKNOWN
            elif kind == K_OR:
                value = 0
                for j in range(offsets[pos], offsets[pos + 1]):
                    child = values[indices[j]]
                    if child == 1:
                        value = 1
                        break
                    if child == _UNKNOWN:
                        value = _UNKNOWN
            elif kind == K_NOT:
                child = values[indices[offsets[pos]]]
                value = child if child == _UNKNOWN else 1 - child
            else:
                value = 1 if kind == K_TRUE else 0
            values[pos] = value
        if values[output] != _UNKNOWN:
            return float(values[output]), None, -1
        # The residual function is determined by the unresolved gates still
        # reachable from the output; masking everything else canonicalizes
        # the memo key and exposes the next live pivot variable.
        live = bytearray(size)
        stack = [output]
        pivot = -1
        while stack:
            pos = stack.pop()
            if live[pos]:
                continue
            live[pos] = 1
            if kinds[pos] == K_VAR:
                slot = var_slot[pos]
                if pivot < 0 or slot < pivot:
                    pivot = slot
                continue
            for j in range(offsets[pos], offsets[pos + 1]):
                child = indices[j]
                if values[child] == _UNKNOWN:
                    stack.append(child)
        key = bytes(values[pos] if live[pos] else _DEAD for pos in range(size))
        return None, key, pivot

    def branch_value(assignment: tuple[int, ...]):
        """Resolved/cached value of a branch, or ``None`` if work remains."""
        resolved, key, _pivot = analyze(assignment)
        if resolved is not None:
            return resolved
        return cache.get(key)

    root = (_UNKNOWN,) * len(compiled.var_names)
    work = [root]
    while work:
        assignment = work[-1]
        resolved, key, pivot = analyze(assignment)
        if resolved is not None or key in cache:
            work.pop()
            continue
        p = probs[pivot]
        high_assignment = assignment[:pivot] + (1,) + assignment[pivot + 1 :]
        low_assignment = assignment[:pivot] + (0,) + assignment[pivot + 1 :]
        high = branch_value(high_assignment) if p > 0.0 else 0.0
        low = branch_value(low_assignment) if p < 1.0 else 0.0
        if high is None or low is None:
            if high is None:
                work.append(high_assignment)
            if low is None:
                work.append(low_assignment)
            continue
        cache[key] = p * high + (1.0 - p) * low
        work.pop()

    resolved, key, _pivot = analyze(root)
    return resolved if resolved is not None else cache[key]


# --------------------------------------------------------------------------- #
# Junction-tree message passing on the flat IR


class MessagePassingReport:
    """Diagnostics of a message-passing run (width actually used, bag count)."""

    def __init__(self, width: int, bag_count: int, gate_count: int):
        self.width = width
        self.bag_count = bag_count
        self.gate_count = gate_count

    def __repr__(self) -> str:
        return (
            f"MessagePassingReport(width={self.width}, bags={self.bag_count},"
            f" gates={self.gate_count})"
        )


def _engine_message_passing(
    compiled: CompiledCircuit,
    space: EventSpace,
    decomposition=None,
    heuristic: str = "min_fill",
    max_width: int = 24,
    return_report: bool = False,
    **_kwargs,
):
    """Exact probability via junction-tree sum-product (Lauritzen–Spiegelhalter).

    Works on the compiled *binarized* form (fan-in ≤ 2 keeps factor scopes,
    hence bags, small). The tree decomposition of its moral graph is cached
    on the compiled circuit per heuristic, so repeated runs — conditioning
    ratios, per-query evaluation on a shared instance — pay for the
    decomposition once. A supplied ``decomposition`` must cover the
    binarized circuit's gate ids (as produced by
    ``circuit.binarized()`` + :func:`repro.circuits.graph.moral_graph`).

    Raises :class:`ReproError` if the width exceeds ``max_width`` — the run
    would be intractable, which is the point of the paper's structural
    restriction.
    """
    from repro.treewidth import TreeDecomposition

    binc = compiled.binarized()
    out_kind = binc.kinds[binc.output]
    if out_kind in (K_TRUE, K_FALSE):
        result = float(out_kind == K_TRUE)
        if return_report:
            return result, MessagePassingReport(0, 0, 1)
        return result

    if decomposition is None:
        decomposition = binc.decomposition(heuristic)
    else:
        # External decompositions speak the binarized arena's gate ids;
        # translate the bags to compiled positions (unreachable or folded
        # gates simply drop out, which cannot uncover a moral edge).
        position_of = binc.position_of
        decomposition = TreeDecomposition(
            {
                node: {position_of[g] for g in bag if g in position_of}
                for node, bag in decomposition.bags.items()
            },
            list(decomposition.tree.edges),
        )
    width = decomposition.width()
    if width > max_width:
        raise ReproError(
            f"decomposition width {width} exceeds max_width={max_width}; "
            "the circuit is not tree-like enough for exact message passing"
        )

    kinds = binc.kinds
    offsets = binc.offsets
    indices = binc.indices
    var_slot = binc.var_slot
    probs = binc.slot_marginals(space)

    root, children = decomposition.rooted_children()
    bags = decomposition.bags
    order = _postorder(root, children)
    rank = {node: i for i, node in enumerate(order)}

    # Assign each gate's consistency factor (and each variable's weight
    # factor) to the first bag, in postorder, containing its scope — found
    # through a position→bags inverted index rather than a full scan.
    bags_containing: dict[int, set[int]] = {}
    for node, bag in bags.items():
        for pos in bag:
            bags_containing.setdefault(pos, set()).add(node)
    consistency_at: dict[int, list[int]] = {node: [] for node in bags}
    weight_at: dict[int, list[int]] = {node: [] for node in bags}
    output_home = None
    for pos in range(binc.size):
        scope_bags = bags_containing.get(pos)
        for j in range(offsets[pos], offsets[pos + 1]):
            child_bags = bags_containing.get(indices[j])
            scope_bags = (
                scope_bags & child_bags
                if scope_bags is not None and child_bags is not None
                else None
            )
            if not scope_bags:
                scope_bags = None
                break
        if not scope_bags:
            raise ReproError(
                f"no bag contains gate {pos} with its inputs; invalid decomposition"
            )
        home = min(scope_bags, key=rank.__getitem__)
        consistency_at[home].append(pos)
        if kinds[pos] == K_VAR:
            weight_at[home].append(pos)
        if pos == binc.output:
            output_home = home

    parent_of: dict[int, int | None] = {root: None}
    for node in order:
        for child in children[node]:
            parent_of[child] = node

    assignment = bytearray(binc.size)
    output_position = binc.output

    def factor_value(pos: int) -> float:
        kind = kinds[pos]
        value = assignment[pos]
        if kind == K_VAR:
            return 1.0  # weight applied once, via weight_at, below
        if kind == K_TRUE or kind == K_FALSE:
            return 1.0 if value == (kind == K_TRUE) else 0.0
        start, end = offsets[pos], offsets[pos + 1]
        if kind == K_NOT:
            expected = 1 - assignment[indices[start]]
        elif kind == K_AND:
            expected = 1
            for j in range(start, end):
                if not assignment[indices[j]]:
                    expected = 0
                    break
        else:  # K_OR
            expected = 0
            for j in range(start, end):
                if assignment[indices[j]]:
                    expected = 1
                    break
        return 1.0 if value == expected else 0.0

    messages: dict[int, dict[tuple, float]] = {}
    for node in order:
        members = sorted(bags[node])
        child_nodes = children[node]
        separators = {
            child: sorted(bags[node] & bags[child]) for child in child_nodes
        }
        child_messages = [(messages[c], separators[c]) for c in child_nodes]
        table: dict[tuple, float] = {}
        parent = parent_of[node]
        parent_sep = sorted(bags[node] & bags[parent]) if parent is not None else None
        for mask in range(1 << len(members)):
            for i, member in enumerate(members):
                assignment[member] = (mask >> i) & 1
            weight = 1.0
            for pos in consistency_at[node]:
                weight *= factor_value(pos)
                if weight == 0.0:
                    break
            if weight == 0.0:
                continue
            for pos in weight_at[node]:
                p = probs[var_slot[pos]]
                weight *= p if assignment[pos] else 1.0 - p
            if node == output_home and not assignment[output_position]:
                continue
            for message, separator in child_messages:
                key = tuple(assignment[m] for m in separator)
                weight *= message.get(key, 0.0)
                if weight == 0.0:
                    break
            if weight == 0.0:
                continue
            key = (
                tuple(assignment[m] for m in parent_sep)
                if parent_sep is not None
                else ()
            )
            table[key] = table.get(key, 0.0) + weight
        messages[node] = table

    result = sum(messages[root].values())
    if return_report:
        return result, MessagePassingReport(width, len(bags), binc.size)
    return result


def _postorder(root: int, children: dict[int, list[int]]) -> list[int]:
    order: list[int] = []
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        else:
            stack.append((node, True))
            for child in children[node]:
                stack.append((child, False))
    return order


register_engine("enumerate", _engine_enumerate)
register_engine("shannon", _engine_shannon)
register_engine("message_passing", _engine_message_passing)
register_engine("dd", _engine_dd)
