"""Monte-Carlo baselines: naive sampling and Karp–Luby DNF estimation.

The paper positions sampling as what practice falls back to when exact
evaluation is #P-hard ("makes it necessary in practice to approximate query
results via sampling"), and as the partner of the exact method in the
partial-decomposition hybrid (E12).

Execution model: both estimators run the *fused sample+evaluate* shards
of :mod:`repro.circuits.parallel` — the sample range is cut into fixed
:data:`~repro.circuits.parallel.MC_SHARD`-sized shards, each shard draws
its own worlds from ``default_rng((seed, shard_index))``, evaluates them
through the compiled circuit's level-scheduled batch kernels (Monte Carlo)
or one containment matrix product (Karp–Luby), and returns a single hit
count. The full world matrix never exists in any process. The shards run
inside worker processes when ``workers >= 2`` and in-process otherwise;
because the shard decomposition and seeding are independent of the worker
count, a fixed seed gives *bit-identical* estimates at 0, 1, 2 or 8
workers.

``workers=None`` defers to the process-wide knob
(:func:`repro.circuits.parallel.parallel_workers`, settable via
``REPRO_PARALLEL_WORKERS`` or the CLI ``--workers`` flag). Layered above
the pool, ``hosts=`` routes the same shards to remote workers over TCP
(:mod:`repro.circuits.distributed`); ``hosts=None`` defers to the
process-wide :func:`repro.circuits.distributed.distributed_hosts` knob
(``REPRO_DISTRIBUTED_HOSTS`` / CLI ``--hosts``), and because the shard
decomposition and seeding never change, a fixed seed estimates to the
same value in-process, on the pool, and across hosts.
"""

from __future__ import annotations

import math

import numpy as np

from repro.instances.base import Fact, Instance
from repro.instances.tid import TIDInstance
from repro.util import check


def monte_carlo_probability(
    query,
    tid: TIDInstance,
    samples: int,
    seed: int = 0,
    method: str = "lineage",
    workers: int | None = None,
    hosts=None,
) -> float:
    """Estimate P(query) by sampling worlds and evaluating the query.

    The standard unbiased estimator; its additive error scales as
    ``O(1/sqrt(samples))`` regardless of instance structure.

    With ``method="lineage"`` (the default) the query's lineage circuit is
    built and compiled *once* and the sampled worlds are evaluated in bulk
    over the flat IR, through the fused sample+evaluate shards of
    :func:`repro.circuits.parallel.monte_carlo_hits` (on ``workers``
    processes when >= 2, in-process otherwise, bit-identical either way) —
    or, when ``hosts`` (or the process-wide ``distributed_hosts`` knob)
    names remote workers, the same shards stream over TCP through
    :func:`repro.circuits.distributed.monte_carlo_hits`, still
    bit-identical. ``method="worlds"`` keeps the original per-world
    ``query.holds_in`` evaluation (works for any query object, including
    those without lineage support).
    """
    check(samples > 0, "need at least one sample")
    if method == "worlds":
        draw = tid.world_sampler(seed)
        hits = 0
        for _ in range(samples):
            if query.holds_in(draw()):
                hits += 1
        return hits / samples
    check(method == "lineage", f"unknown sampling method {method!r}")
    from repro.circuits import distributed
    from repro.core.engine import build_lineage

    compiled = build_lineage(tid.instance, query).compiled()
    marginals = compiled.slot_marginals(tid.event_space())
    hits = distributed.monte_carlo_hits(
        compiled, marginals, samples, seed=seed, hosts=hosts, workers=workers
    )
    return hits / samples


def required_samples(epsilon: float, delta: float) -> int:
    """Hoeffding bound: samples for additive error ``epsilon`` w.p. 1-delta."""
    check(0 < epsilon < 1 and 0 < delta < 1, "epsilon and delta must be in (0,1)")
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))


def karp_luby_probability(
    query,
    tid: TIDInstance,
    samples: int,
    seed: int = 0,
    workers: int | None = None,
    hosts=None,
) -> float:
    """Karp–Luby estimator for the probability of the query's DNF lineage.

    Computes the lineage as a monotone DNF (one conjunct per homomorphism
    witness), then estimates the probability of the union by importance
    sampling over the witnesses. Unlike naive Monte Carlo, the relative error
    is bounded even for tiny probabilities — the classic FPRAS for DNF.

    A sample counts iff its drawn witness is the *first* witness fully
    contained in the sampled world. The trials run as the fused shards of
    :func:`repro.circuits.parallel.karp_luby_hits` — witness picks,
    conditioned worlds and the containment matrix product all happen
    inside the shard (a worker process when ``workers >= 2``, a remote host
    when ``hosts`` names one), and a fixed seed gives identical estimates
    at any worker or host count.
    """
    check(samples > 0, "need at least one sample")
    witnesses = _dnf_witnesses(query, tid)
    if not witnesses:
        return 0.0
    weights = []
    for witness in witnesses:
        weight = 1.0
        for f in witness:
            weight *= tid.probability(f)
        weights.append(weight)
    total_weight = sum(weights)
    if total_weight == 0.0:
        return 0.0

    from repro.circuits import distributed

    facts = list(tid.facts())
    fact_index = {f: i for i, f in enumerate(facts)}
    probs = np.asarray([tid.probability(f) for f in facts], dtype=np.float64)
    membership = np.zeros((len(witnesses), len(facts)), dtype=np.int32)
    for w, witness in enumerate(witnesses):
        for f in witness:
            membership[w, fact_index[f]] = 1
    hits = distributed.karp_luby_hits(
        membership, probs, weights, samples, seed=seed, hosts=hosts,
        workers=workers,
    )
    return total_weight * hits / samples


def _dnf_witnesses(query, tid: TIDInstance) -> list[frozenset[Fact]]:
    """Distinct fact-set conjuncts of the query lineage over the instance."""
    all_facts = Instance(tid.facts())
    seen: dict[frozenset[Fact], None] = {}
    for witness in query.witnesses(all_facts):
        seen.setdefault(frozenset(witness), None)
    return list(seen)
