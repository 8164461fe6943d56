"""Log-integration workloads for order uncertainty (paper Section 3).

The paper motivates order uncertainty with "integrating logged events from
different machines or files, where the log entries are sequentially ordered
but do not mention a global timestamp" (fetchmail, dmesg). We generate k
totally ordered logs over a shared event vocabulary; their union is a
po-relation whose possible worlds are the admissible global interleavings.

:class:`StreamingLogMonitor` is the *incremental* face of the same story:
log facts arrive in batches on one shared circuit arena and the standing
alarm query is re-compiled after every batch with
:func:`repro.circuits.compile_circuit`, which lowers the grown arena
afresh (the E17 compile-path benchmark grows its workload through this
class).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits import Circuit, CompiledCircuit, compile_circuit
from repro.order.algebra import union
from repro.order.posets import LabeledPoset, chain
from repro.util import check, stable_rng

EVENT_KINDS = (
    "connect",
    "auth",
    "fetch",
    "write",
    "flush",
    "disconnect",
    "retry",
    "error",
)


@dataclass
class LogWorkload:
    """Generated logs plus their merged po-relation."""

    logs: list[list[str]]
    merged: LabeledPoset


def generate_logs(
    machines: int, events_per_log: int, seed: int = 0, shared_vocabulary: bool = True
) -> LogWorkload:
    """Generate per-machine ordered logs and their parallel merge.

    With ``shared_vocabulary`` the same event kind can appear in several logs
    (duplicate labels — the hard membership regime); otherwise labels are
    made machine-unique (the tractable distinct-label regime).
    """
    check(machines >= 1 and events_per_log >= 1, "need at least one log entry")
    rng = stable_rng(seed)
    logs: list[list[str]] = []
    for m in range(machines):
        entries = []
        for i in range(events_per_log):
            kind = EVENT_KINDS[rng.randrange(len(EVENT_KINDS))]
            entries.append(kind if shared_vocabulary else f"m{m}:{kind}:{i}")
        logs.append(entries)
    merged = chain(logs[0], prefix="m0_")
    for m, entries in enumerate(logs[1:], start=1):
        merged = union(merged, chain(entries, prefix=f"m{m}_"))
    return LogWorkload(logs=logs, merged=merged)


class StreamingLogMonitor:
    """A standing alarm query over log facts streamed onto one shared arena.

    Each appended fact is an uncertain log event (a circuit variable): the
    event may or may not have really happened on its machine. The monitor
    keeps a cumulative alarm — "some batch contained an ``error`` event on a
    machine that logged no ``flush`` in that batch" — as a circuit output
    that is *extended*, never rewritten, when a batch arrives:

        output_t = OR(output_{t-1}, batch_alert_t)

    :meth:`requery` lowers the grown arena afresh with
    :func:`repro.circuits.compile_circuit`. The chain of ORs makes the
    circuit deep, but the lowering's passes do not follow circuit depth.
    """

    def __init__(self, machines: int = 8, seed: int = 0) -> None:
        check(machines >= 1, "need at least one machine")
        self.machines = machines
        self.circuit = Circuit()
        self.event_names: list[str] = []
        self._rng = stable_rng(seed)
        self._next_event = 0
        self._compiled: CompiledCircuit | None = None

    def append(self, count: int) -> int:
        """Append ``count`` new log-event facts as one batch; returns them.

        Events are dealt round-robin across machines with kinds drawn from
        :data:`EVENT_KINDS`; the batch's alert condition is OR-ed into the
        standing output. The arena only grows.
        """
        check(count >= 1, "need at least one event per batch")
        circuit = self.circuit
        batch: list[tuple[int, str]] = []
        names: list[str] = []
        for offset in range(count):
            machine = (self._next_event + offset) % self.machines
            kind = EVENT_KINDS[self._rng.randrange(len(EVENT_KINDS))]
            names.append(f"m{machine}:e{self._next_event + offset}:{kind}")
            batch.append((machine, kind))
        # One bulk leaf append for the whole batch (names are fresh by
        # construction, so this never consults the hash-consing table).
        batch_vars = circuit.append_variables(names)
        self.event_names.extend(names)
        new_vars: dict[int, list[int]] = {}
        error_vars: dict[int, list[int]] = {}
        flush_vars: dict[int, list[int]] = {}
        for var, (machine, kind) in zip(batch_vars, batch):
            new_vars.setdefault(machine, []).append(var)
            if kind == "error":
                error_vars.setdefault(machine, []).append(var)
            elif kind == "flush":
                flush_vars.setdefault(machine, []).append(var)
        self._next_event += count
        alerts: list[int] = []
        for machine, errors in sorted(error_vars.items()):
            unflushed = circuit.negation(
                circuit.or_gate(flush_vars.get(machine, []))
            ) if flush_vars.get(machine) else circuit.true()
            alerts.append(
                circuit.and_gate([
                    circuit.or_gate(new_vars[machine]),
                    circuit.or_gate(errors),
                    unflushed,
                ])
            )
        batch_alert = circuit.or_gate(alerts) if alerts else circuit.false()
        if circuit.output is None:
            circuit.set_output(batch_alert)
        else:
            circuit.set_output(circuit.or_gate([circuit.output, batch_alert]))
        return count

    def requery(self) -> CompiledCircuit:
        """Lower the standing query over every batch appended so far."""
        check(self.circuit.output is not None, "append at least one batch first")
        self._compiled = compile_circuit(self.circuit)
        return self._compiled

    @property
    def compiled(self) -> CompiledCircuit | None:
        """The most recent :meth:`requery` result (``None`` before the first)."""
        return self._compiled

    def sample_world(self, probability: float = 0.5, seed: int = 0) -> dict[str, bool]:
        """One random truth assignment for every event fact appended so far."""
        rng = stable_rng(seed)
        return {name: rng.random() < probability for name in self.event_names}


def true_interleaving(workload: LogWorkload, seed: int = 0) -> tuple[str, ...]:
    """A ground-truth global order consistent with all logs (for testing)."""
    rng = stable_rng(seed)
    positions = [0] * len(workload.logs)
    result: list[str] = []
    total = sum(len(log) for log in workload.logs)
    while len(result) < total:
        candidates = [
            m for m, log in enumerate(workload.logs) if positions[m] < len(log)
        ]
        m = candidates[rng.randrange(len(candidates))]
        result.append(workload.logs[m][positions[m]])
        positions[m] += 1
    return tuple(result)
