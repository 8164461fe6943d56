"""Semiring provenance through lineage circuits.

The paper's provenance connection, executable: the monotone lineage circuit
of a conjunctive query, evaluated in different absorptive semirings, yields
the query's Green–Karvounarakis–Tannen provenance — minimal witnesses
(PosBool), cheapest derivation (tropical), most probable derivation
(Viterbi), and required clearance (security).

The same lineage circuit is also the *probability* carrier: the closing
section reuses the Viterbi confidences as fact probabilities and pushes
Monte-Carlo world samples through the compiled circuit — in bulk, with the
sharded multi-process backend's worker-count knob and deterministic
per-shard seeding (gracefully skipped on single-core machines; see
``ARCHITECTURE.md`` for the pipeline).

Run:  python examples/provenance_tour.py
"""

from repro.instances import Instance, TIDInstance, fact
from repro.queries import atom, cq, variables
from repro.semirings import (
    PUBLIC,
    SECRET,
    TOP_SECRET,
    PosBoolSemiring,
    SecuritySemiring,
    TropicalSemiring,
    ViterbiSemiring,
    circuit_provenance,
    reference_provenance,
)

X, Y = variables("x", "y")
QUERY = cq(atom("R", X), atom("S", X, Y), atom("T", Y))


def build_instance() -> Instance:
    inst = Instance()
    inst.add(fact("R", "a"))
    inst.add(fact("S", "a", "b"))
    inst.add(fact("T", "b"))
    inst.add(fact("R", "c"))
    inst.add(fact("S", "c", "b"))
    return inst


def main() -> None:
    inst = build_instance()
    print("instance:", ", ".join(str(f) for f in inst.facts()))
    print("query:   ", QUERY)
    print()

    posbool = PosBoolSemiring()
    tokens = {f: posbool.variable(f.variable_name) for f in inst.facts()}
    witnesses = circuit_provenance(QUERY, inst, posbool, tokens)
    print("PosBool provenance (minimal witnesses):")
    for monomial in sorted(witnesses, key=sorted):
        print("  {" + ", ".join(sorted(monomial)) + "}")

    tropical = TropicalSemiring()
    costs = {f: float(i + 1) for i, f in enumerate(inst.facts())}
    cheapest = circuit_provenance(QUERY, inst, tropical, costs)
    print(f"\nTropical provenance (cheapest derivation cost): {cheapest}")
    print("  fact costs:", {str(f): c for f, c in costs.items()})

    viterbi = ViterbiSemiring()
    confidences = {f: 0.9 if "a" in map(str, f.args) else 0.5 for f in inst.facts()}
    best = circuit_provenance(QUERY, inst, viterbi, confidences)
    print(f"\nViterbi provenance (most probable derivation): {best:.3f}")

    security = SecuritySemiring()
    clearances = {
        fact("R", "a"): PUBLIC,
        fact("S", "a", "b"): SECRET,
        fact("T", "b"): PUBLIC,
        fact("R", "c"): TOP_SECRET,
        fact("S", "c", "b"): TOP_SECRET,
    }
    needed = circuit_provenance(QUERY, inst, security, clearances)
    print(f"\nSecurity provenance (clearance needed to see the answer): {needed}")

    # Cross-check every semiring against the textbook definition.
    for semiring, annotation in (
        (posbool, tokens),
        (tropical, costs),
        (viterbi, confidences),
        (security, clearances),
    ):
        assert circuit_provenance(QUERY, inst, semiring, annotation) == (
            reference_provenance(QUERY, inst, semiring, annotation)
        )
    print("\nAll circuit provenances match the reference GKT definitions.")
    sampled_lineage_section(confidences)


def sampled_lineage_section(confidences) -> None:
    """From provenance to probability: bulk-evaluate the same lineage.

    Treats the Viterbi confidences as independent fact probabilities (a
    TID instance), compares the exact engine against a Monte-Carlo
    estimate, and demonstrates the ``workers`` knob of the sharded
    backend: fixed seed, same estimate at any worker count. Skips the
    worker-pool half gracefully when only one core (or no shared memory)
    is available.
    """
    from repro.baselines import monte_carlo_probability, tid_probability_enumerate
    from repro.circuits import capabilities

    print("\nFrom provenance to probability (same lineage, sampled worlds):")
    tid = TIDInstance({f: p for f, p in confidences.items()})
    exact = tid_probability_enumerate(QUERY, tid)
    estimate = monte_carlo_probability(QUERY, tid, samples=20_000, seed=7, workers=0)
    print(f"  exact P(query) by enumeration:     {exact:.6f}")
    print(f"  Monte Carlo (20k samples, serial): {estimate:.6f}")
    assert abs(estimate - exact) < 0.05
    caps = capabilities()
    if not caps["parallel"] or caps["cpu_count"] < 2:
        reason = (
            "only one CPU visible" if caps["parallel"]
            else "sharded backend unavailable (needs shared memory)"
        )
        print(f"  {reason} — skipping the worker-pool demo; estimates are "
              "guaranteed bit-identical at any worker count")
        return
    sharded = monte_carlo_probability(QUERY, tid, samples=20_000, seed=7, workers=2)
    print(f"  Monte Carlo (20k samples, 2 workers): {sharded:.6f}")
    assert sharded == estimate, "fixed seed must give identical estimates"
    print("  identical estimate on the worker pool — deterministic sharding")


if __name__ == "__main__":
    main()
