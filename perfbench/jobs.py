"""Batch workloads: identical instance-in, probability-out jobs in a loop.

A job is timed as a whole; in a traced run every other job also times each
call into a layer (:class:`common.Spans`), so the untraced jobs of the same
run give the tracing overhead. Each job's answer is checked after its
clock stops.
"""

from __future__ import annotations

import gc
import math
import random
import time

from common import (
    REFERENCE_EXPONENT,
    REFERENCE_S,
    REFERENCES_PER_JOB,
    Spans,
    layer_metrics,
    median,
    own_peak_rss_mb,
    reference_work,
    untraced,
)

import numpy as np
from repro.baselines import tid_probability_enumerate
from repro.circuits import compile_circuit
from repro.circuits.evaluation import probability
from repro.circuits.parallel import monte_carlo_hits
from repro.core import (
    STConnectivityAutomaton,
    build_lineage,
    build_provenance_circuit,
    instance_decomposition,
)
from repro.instances import TIDInstance
from repro.instances.base import variable_name_of
from repro.queries import atom, cq, variables
from repro.queries.vectorized import evaluate_cq
from repro.workloads import partial_ktree_tid, rst_chain_tid

#: A run keeps starting jobs while the next should end within ``--seconds``,
#: and runs at least this many.
MIN_JOBS = 3

_x, _y = variables("x", "y")
Q_RST = cq(atom("R", _x), atom("S", _x, _y), atom("T", _y))


def run_jobs(job, check, seconds: float, trace: bool):
    """Run ``job`` repeatedly for about ``seconds``; check each answer.

    In a traced run jobs alternate traced, untraced, traced, ... Each job
    follows :data:`REFERENCES_PER_JOB` runs of the reference work. Returns
    the untraced walls, the traced walls, each traced job's spans and the
    reference walls.
    """
    untraced_walls, traced_walls, traced_spans, references = [], [], [], []
    started = time.perf_counter()
    last = 0.0
    while (len(untraced_walls) + len(traced_walls) < MIN_JOBS
           or time.perf_counter() - started + last <= seconds):
        cycle = time.perf_counter()
        references.extend(reference_work() for _ in range(REFERENCES_PER_JOB))
        traced = trace and len(traced_walls) <= len(untraced_walls)
        spans = Spans() if traced else None
        begin = time.perf_counter()
        out = job(spans or untraced)
        wall = time.perf_counter() - begin
        if spans is None:
            untraced_walls.append(wall)
        else:
            traced_walls.append(wall)
            traced_spans.append(spans.seconds)
        check(out)
        del out
        gc.collect()
        last = time.perf_counter() - cycle
    return untraced_walls, traced_walls, traced_spans, references


def end_to_end(setup_s: float, walls: list[float], references) -> dict:
    """End-to-end metrics of a batch run: one job is one request.

    Times are scaled to the reference host: multiplied by
    :data:`REFERENCE_S` over the run's median reference wall, to the power
    :data:`REFERENCE_EXPONENT`.
    """
    reference = median(references)
    scale = (REFERENCE_S / reference) ** REFERENCE_EXPONENT
    job = median(walls) * scale
    return {
        "setup_s": setup_s * scale,
        "job_p50_s": job,
        "req_p50_ms": job * 1e3,
        "qps": len(walls) / (sum(walls) * scale),
        "peak_rss_mb": own_peak_rss_mb(),
        "samples": len(walls),
        "notes": [
            f"reference {reference:.4f} s (median of {len(references)}; "
            f"{REFERENCE_S} s on the reference host), times scaled by "
            f"{scale:.4f}",
            f"unscaled: job_p50_s {median(walls):.4f}, setup_s {setup_s:.4f}",
        ],
    }


def traced_layers(untraced_walls, traced_walls, traced_spans, counts) -> dict:
    """Per-layer metrics: median seconds per layer over the traced jobs."""
    wall = median(traced_walls)
    times = {name: median(spans[name] for spans in traced_spans)
             for name in traced_spans[0]}
    unaccounted = median(w - sum(spans.values())
                         for w, spans in zip(traced_walls, traced_spans))
    return layer_metrics(times, dict.fromkeys(times, wall), {
        **counts,
        "trace.unaccounted_s": unaccounted,
        "trace.unaccounted_share": unaccounted / wall,
        "trace.overhead": (wall / median(untraced_walls) - 1.0
                           if untraced_walls else 0.0),
    })


class BatchWorkload:
    """Runs identical jobs; subclasses define ``job``, ``check``, ``warm_up``."""

    def __init__(self, seed: int):
        self.seed = seed
        self.counts: dict = {}  # per-layer counts of the last checked job

    def final_check(self, tally) -> None:
        """An extra oracle run once after the jobs (none by default)."""

    def run(self, args, tally, setup_s: float) -> dict:
        untraced_walls, traced_walls, spans, references = run_jobs(
            self.job, lambda out: self.check(out, tally), args.seconds,
            bool(args.trace),
        )
        self.final_check(tally)
        if args.trace:
            return traced_layers(untraced_walls, traced_walls, spans,
                                 self.counts)
        return end_to_end(setup_s, untraced_walls, references)


class BulkRST(BatchWorkload):
    """``bulk-rst-1e6``: the columnar scale path, Q_RST over a chain TID.

    Job: generate → evaluate Q_RST → witness-DNF provenance → compile →
    event space → slot marginals → level plan → fused Monte-Carlo.
    """

    #: rst_chain_tid(n) holds 3n - 1 facts.
    CHAIN = {"full": 333_334, "toy": 8}
    WARM_CHAIN = 2_000
    MC_WORLDS = 256
    #: Failure probability of the Hoeffding check on the estimate.
    DELTA = 1e-9
    #: Expected number of witnesses that hold in a world sampled from the
    #: rescaled marginals; P is then about 1 - e^-0.7 = 0.5.
    MC_EXPECTED_WITNESSES = 0.7

    def __init__(self, seed: int, scale: str):
        super().__init__(seed)
        self.n = self.CHAIN[scale]
        # rst_chain_tid draws fact probabilities from [0.3, 0.7], so a
        # witness holds with probability about 1/8, and over n - 1 disjoint
        # witnesses P rounds to 1.0: every sampled world would be a hit and
        # a broken kernel would still pass. The Monte-Carlo pass therefore
        # samples the marginals scaled by this factor, which puts P well
        # inside (0, 1) with the same plan, kernel and sample count.
        self.mc_scale = min(
            1.0, (8 * self.MC_EXPECTED_WITNESSES / (self.n - 1)) ** (1 / 3))
        self.exact = None  # closed-form P, computed from the first job

    def job(self, span, n: int | None = None):
        n = self.n if n is None else n
        tid = span("workloads.generate_s", rst_chain_tid, n, seed=self.seed,
                   backend="columnar")
        witnesses = span("queries.evaluate_s", evaluate_cq, Q_RST,
                         tid.instance).n_rows
        lineage = span("core.provenance_s", build_provenance_circuit,
                       tid.instance, Q_RST)
        compiled = span("circuits.compile_s", compile_circuit, lineage.circuit)
        space = span("instances.event_space_s", tid.event_space)
        marginals = span("circuits.slot_marginals_s", compiled.slot_marginals,
                         space)
        plan = span("circuits.plan_build_s", compiled.batch_plan)
        sampled, hits = span("circuits.mc_s", self.sample, compiled, marginals)
        return {
            "estimate": hits / self.MC_WORLDS,
            "sampled": sampled,
            "slots": compiled.variables(),
            "counts": {
                "queries.witnesses": witnesses,
                "instances.facts_materialized": tid.instance.facts_materialized,
                "circuits.gates": compiled.size,
                "circuits.levels": len(plan.levels),
                "circuits.groups": sum(len(level) for level in plan.levels),
            },
        }

    def warm_up(self) -> None:
        self.job(untraced, n=min(self.n, self.WARM_CHAIN))

    def sample(self, compiled, marginals):
        """The rescaled marginals and their fused Monte-Carlo hit count."""
        sampled = (np.asarray(marginals, dtype=np.float32)
                   * np.float32(self.mc_scale))
        return sampled, monte_carlo_hits(compiled, sampled, self.MC_WORLDS,
                                         seed=self.seed, workers=1)

    def closed_form(self, slots, sampled) -> float:
        """P(Q_RST) = 1 - prod_i (1 - p_R(i) p_S(i,i+1) p_T(i+1)).

        The witnesses are fact-disjoint, so the witness DNF is read-once.
        ``sampled`` holds, in slot order, the marginals the Monte-Carlo
        pass drew its worlds from.
        """
        p = dict(zip(slots, sampled.tolist()))
        log_none = 0.0
        for i in range(self.n - 1):
            log_none += math.log1p(-p[variable_name_of("R", (i,))]
                                   * p[variable_name_of("S", (i, i + 1))]
                                   * p[variable_name_of("T", (i + 1,))])
        return -math.expm1(log_none)

    def check(self, out, tally) -> None:
        if self.exact is None:
            self.exact = self.closed_form(out["slots"], out["sampled"])
        counts = out["counts"]
        estimate = tally.answer(out["estimate"])
        bound = math.sqrt(math.log(2.0 / self.DELTA) / (2 * self.MC_WORLDS))
        wrong = [
            what for what, ok in (
                (f"witnesses {counts['queries.witnesses']} != n-1",
                 counts["queries.witnesses"] == self.n - 1),
                (f"gates {counts['circuits.gates']} != 4n-3",
                 counts["circuits.gates"] == 4 * self.n - 3),
                (f"MC estimate {estimate} vs closed form {self.exact} "
                 f"beyond the Hoeffding bound {bound:.3f}",
                 abs(estimate - self.exact) <= bound),
            ) if not ok
        ]
        tally.check(not wrong, "bulk job: " + "; ".join(wrong))
        self.counts = counts


class ExactKTree(BatchWorkload):
    """``exact-ktree``: Theorem 1 on a partial 3-tree, object backend.

    Job: generate → min-fill decomposition → event space → per s–t query
    (automaton lineage → compile → cold d-D pass). The graph and the query
    endpoints are fixed, because min-fill and lineage times depend strongly
    on them; the seed draws the fact probabilities.
    """

    VERTICES = {"full": 1000, "toy": 12}
    WARM_VERTICES = 40
    K = 3
    GRAPH_SEED = 0
    QUERIES = 3
    ORACLE_VERTICES = 6  # toy instance checked against world enumeration

    def __init__(self, seed: int, scale: str):
        super().__init__(seed)
        self.vertices = self.VERTICES[scale]

    def inputs(self, vertices: int, graph_seed: int):
        """The TID, probabilities drawn from the seed, and the s–t pairs."""
        graph = partial_ktree_tid(vertices, self.K, seed=graph_seed,
                                  backend="object")
        rng = random.Random(self.seed)
        tid = TIDInstance(
            [(f, round(rng.uniform(0.3, 0.7), 3)) for f in graph.tid.facts()],
            backend="object",
        )
        nodes = sorted({a for f in tid.facts() for a in f.args})
        endpoints = random.Random(graph_seed)
        pairs = [tuple(endpoints.sample(nodes, 2)) for _ in range(self.QUERIES)]
        return tid, pairs

    def job(self, span, vertices: int | None = None):
        vertices = self.vertices if vertices is None else vertices
        tid, pairs = span("workloads.generate_s", self.inputs, vertices,
                          self.GRAPH_SEED)
        decomposition = span("treewidth.decompose_s", instance_decomposition,
                             tid.instance, "min_fill")
        space = span("instances.event_space_s", tid.event_space)
        answers = []
        for source, target in pairs:
            lineage = span("core.lineage_s", build_lineage, tid.instance,
                           STConnectivityAutomaton(source, target),
                           decomposition)
            compiled = span("circuits.compile_s", compile_circuit,
                            lineage.circuit)
            value = span("circuits.dd_s", probability, compiled, space,
                         engine="dd")
            answers.append((value, compiled, lineage))
        return {"answers": answers, "space": space, "pairs": pairs,
                "width": decomposition.width(), "facts": len(tid)}

    def warm_up(self) -> None:
        self.job(untraced, vertices=min(self.vertices, self.WARM_VERTICES))

    def check(self, out, tally) -> None:
        """d-D pass == one-row level-plan ``probability_batch``, bitwise."""
        space = out["space"]
        gates = levels = groups = nodes = profile = 0
        for (value, compiled, lineage), pair in zip(out["answers"], out["pairs"]):
            row = np.asarray([compiled.slot_marginals(space)], dtype=np.float64)
            expected = compiled.probability_batch(row)[0]
            value = tally.answer(value)
            tally.check(value == expected,
                        f"s-t {pair}: dd {value!r} != probability_batch "
                        f"{expected!r}")
            plan = compiled.batch_plan()
            gates += compiled.size
            levels += len(plan.levels)
            groups += sum(len(level) for level in plan.levels)
            nodes += lineage.node_count
            profile = max(profile, lineage.max_profile_size)
        self.counts = {
            "instances.facts_materialized": out["facts"],
            "circuits.gates": gates,
            "circuits.levels": levels,
            "circuits.groups": groups,
            "treewidth.width": out["width"],
            "core.nice_nodes": nodes,
            "core.max_profile": profile,
        }

    def final_check(self, tally) -> None:
        """On a toy instance of the generator, dd == world enumeration."""
        tid, pairs = self.inputs(self.ORACLE_VERTICES, self.seed)
        automaton = STConnectivityAutomaton(*pairs[0])
        lineage = build_lineage(tid.instance, automaton)
        value = probability(compile_circuit(lineage.circuit),
                            tid.event_space(), engine="dd")
        expected = tid_probability_enumerate(automaton, tid)
        tally.check(abs(value - expected) <= 1e-12,
                    f"toy s-t {pairs[0]}: dd {value!r} != enumeration "
                    f"{expected!r}")


WORKLOADS = {"bulk-rst-1e6": BulkRST, "exact-ktree": ExactKTree}
