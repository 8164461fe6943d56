"""Quickstart: uncertain data in, exact probabilities out.

Builds the paper's Table 1 (the PODS/STOC trips c-instance), asks
possibility / certainty / probability questions, computes certain answers
over key-violating data with the trichotomy-routed CQA engine, runs the
headline #P-hard query ``∃xy R(x)S(x,y)T(y)`` on a tree-like TID instance
with the treewidth-based engine, cross-checks every number against brute
force, shows the compile-once/evaluate-many circuit API, pushes a million
uncertain facts through the columnar frontend without materializing a
single ``Fact`` object, and finishes with the sharded multi-process
backend (worker-count knob, deterministic seeding).

Everything here imports from the package root — ``repro`` is the blessed
public surface.

How the pieces fit together — the four-stage lowering pipeline, the
engine registry, and a module map — is documented in ``ARCHITECTURE.md``
at the repository root.

Run:  python examples/quickstart.py
"""

from repro import (
    ALL_TRIPS,
    TIDInstance,
    atom,
    build_lineage,
    circuit_probability,
    compile_circuit,
    cq,
    fact,
    monte_carlo_probability,
    table1_cinstance,
    table1_pc_instance,
    tid_probability,
    tid_probability_enumerate,
    variables,
)


def trips_example() -> None:
    print("=" * 70)
    print("Table 1 — trips booked depending on attended conferences")
    print("=" * 70)
    ci = table1_cinstance()
    print(f"{'Trip':<38} {'possible':<9} {'certain':<8}")
    for trip in ALL_TRIPS:
        print(f"{str(trip):<38} {str(ci.is_possible(trip)):<9} {str(ci.is_certain(trip)):<8}")

    print("\nWith P(pods)=0.7, P(stoc)=0.5 (pc-instance):")
    pc = table1_pc_instance(p_pods=0.7, p_stoc=0.5)
    for trip in ALL_TRIPS:
        print(f"  P({trip}) = {pc.fact_probability(trip):.3f}")

    print("\nDistinct possible worlds (one per event valuation):")
    for world, valuation in ci.possible_worlds():
        attending = [name for name, value in valuation.items() if value]
        print(f"  attend {attending or ['nothing']}: {len(world)} trips booked")


def cqa_example() -> None:
    """Certain answers over key-violating data, routed by the trichotomy.

    A different uncertainty model from the rest of the quickstart: the
    instance *violates* its primary keys, the possible worlds are its
    maximal consistent subsets (repairs), and a Boolean query is certain
    iff it holds in every repair.  ``repro.classify`` places each
    self-join-free query in the Koutris–Wijsen trichotomy —
    first-order-rewritable, PTIME, or coNP-complete — and
    ``repro.certain_answers`` routes accordingly: FO queries run as a
    direct rewriting against the instance (no circuits, no repair
    enumeration), PTIME queries get the polynomial propagation algorithm,
    and coNP queries fall back to the lineage-circuit pipeline over a
    uniformly random repair.  Every path is cross-checked here against
    the brute-force all-repairs oracle.
    """
    from repro import (
        certain_answers,
        certain_oracle,
        classify,
        cqa_trichotomy_queries,
        fo_rewriting,
        key_violation_instance,
    )

    print()
    print("=" * 70)
    print("Certain answers under primary keys — the CQA trichotomy")
    print("=" * 70)
    instance, keys = key_violation_instance(12, violation_rate=0.4, seed=3)
    n_blocks = sum(len(set(f.args[0] for f in instance.by_relation(r)))
                   for r in ("R", "S"))
    print(f"instance: {len(instance)} facts in {n_blocks} blocks "
          "(key = first column, some blocks conflicting)")
    for name, query in cqa_trichotomy_queries().items():
        classification = classify(query, keys)
        answer = certain_answers(query, instance, keys)
        oracle = certain_oracle(query, instance, keys)
        assert answer == oracle, "engine must match the all-repairs oracle"
        print(f"  {name:<6} class={classification.trichotomy:<6} "
              f"certain={answer} (oracle agrees)")
        if classification.trichotomy == "fo":
            print(f"         rewriting: {fo_rewriting(query, keys).formula}")


def treewidth_engine_example() -> None:
    print()
    print("=" * 70)
    print("The #P-hard query ∃xy R(x)S(x,y)T(y), exactly, on tree-like data")
    print("=" * 70)
    x, y = variables("x", "y")
    query = cq(atom("R", x), atom("S", x, y), atom("T", y))

    tid = TIDInstance()
    for i in range(6):
        tid.add(fact("R", i), 0.5)
        tid.add(fact("T", i), 0.6)
        if i + 1 < 6:
            tid.add(fact("S", i, i + 1), 0.7)

    exact = tid_probability(query, tid)  # Theorem 1 engine
    oracle = tid_probability_enumerate(query, tid)  # 2^16 worlds
    sampled = monte_carlo_probability(query, tid, samples=20_000, seed=0)

    print(f"instance: {len(tid)} uncertain facts, treewidth "
          f"{tid.treewidth_upper_bound()}")
    print(f"engine (lineage + d-D evaluation): {exact:.6f}")
    print(f"possible-world enumeration oracle: {oracle:.6f}")
    print(f"Monte Carlo (20k samples):         {sampled:.6f}")
    assert abs(exact - oracle) < 1e-9, "engine must match brute force"


def compiled_circuit_example() -> None:
    """Compile a lineage once, then evaluate it many times for cheap.

    The recommended pattern for hot paths: build the circuit, lower it to
    the flat IR with :func:`repro.compile_circuit` (cached on the circuit),
    and reuse the compiled form for probabilities, single worlds, and whole
    batches of sampled worlds. ``evaluate_batch`` accepts either an
    iterable of valuations or a ``(n_worlds, n_vars)`` numpy matrix in
    variable-slot order; the whole batch runs through level-scheduled
    vectorized kernels, with results identical to per-world ``evaluate``.
    ``probability_batch`` is the matching bulk form of the Theorem 1
    linear-time probability pass, one result per marginal assignment.

    The compile itself has fast paths too (see "The compile path" in
    ``ARCHITECTURE.md``): repeated ``compile_circuit`` calls on an
    unchanged arena are memoized; after appending to the arena,
    :func:`repro.circuits.recompile` patches the previous lowering in
    time proportional to the edit; and setting ``REPRO_PLAN_CACHE_DIR``
    (or ``repro.circuits.plancache.set_plan_cache_dir``) persists
    lowerings on disk so a *new process* compiling the same circuit —
    a restarted service, a CI re-run, a bounced ``repro-worker`` —
    rebuilds the plan from the cache with zero lowering passes.
    """
    print()
    print("=" * 70)
    print("Compile once, evaluate many")
    print("=" * 70)
    x, y = variables("x", "y")
    query = cq(atom("R", x), atom("S", x, y), atom("T", y))
    tid = TIDInstance()
    for i in range(4):
        tid.add(fact("R", i), 0.5)
        tid.add(fact("T", i), 0.6)
        if i + 1 < 4:
            tid.add(fact("S", i, i + 1), 0.7)

    lineage = build_lineage(tid.instance, query)
    compiled = compile_circuit(lineage.circuit)   # once
    space = tid.event_space()

    exact = compiled.probability(space)           # Theorem 1 linear pass
    sampled_worlds = [space.sample(seed) for seed in range(5)]
    hits = compiled.evaluate_batch(sampled_worlds)  # one vectorized pass
    # Bulk marginal rows: e.g. a probability sweep over one fact's weight.
    sweeps = [
        {
            name: p if name.startswith("f:R") else space.probability(name)
            for name in compiled.variables()
        }
        for p in (0.1, 0.5, 0.9)
    ]
    swept_probs = compiled.probability_batch(sweeps)
    via_registry = circuit_probability(lineage.circuit, space, engine="message_passing")

    print(f"compiled lineage: {len(compiled)} gates over "
          f"{len(compiled.variables())} variables (numpy batch kernels)")
    print(f"P(query) via compiled d-D pass:      {exact:.6f}")
    print(f"P(query) via message-passing engine: {via_registry:.6f}")
    print(f"query true in sampled worlds:        {hits}")
    print("P(query) sweeping P(R*)=0.1/0.5/0.9: "
          + ", ".join(f"{p:.4f}" for p in swept_probs))
    assert abs(exact - via_registry) < 1e-9, "engines must agree"


def columnar_example() -> None:
    """A million uncertain facts, end to end, without one Fact object.

    The columnar frontend (see "The columnar frontend" in
    ``ARCHITECTURE.md``): instances store dictionary-encoded int columns,
    U-relation style, and conjunctive queries evaluate as vectorized hash
    joins whose rows carry witness fact ids. Generators emit encoded
    column batches natively — ``backend="columnar"`` below — so the whole
    generate → query → provenance → compile pipeline runs array-at-a-time.
    The backend is a knob, not a fork: ``REPRO_INSTANCE_BACKEND=columnar``
    (or ``repro.instances.set_instance_backend``) flips every entry point,
    and circuits/probabilities come out bit-identical to the object path
    (the E18 benchmark asserts this at every size).
    """
    import time

    from repro import build_provenance_circuit, rst_chain_tid

    print()
    print("=" * 70)
    print("Columnar instances: a million facts through the pipeline")
    print("=" * 70)
    # 3n - 1 facts: R(i), T(i) for each position, S(i, i+1) between them.
    n = 333_334
    x, y = variables("x", "y")
    query = cq(atom("R", x), atom("S", x, y), atom("T", y))

    start = time.perf_counter()
    tid = rst_chain_tid(n, seed=0, backend="columnar")
    generated = time.perf_counter()
    lineage = build_provenance_circuit(tid.instance, query)
    compiled = compile_circuit(lineage.circuit)
    done = time.perf_counter()

    print(f"instance: {len(tid.instance):,} uncertain facts "
          "(columnar + numpy joins)")
    print(f"generate:             {generated - start:8.3f} s")
    print(f"provenance + compile: {done - generated:8.3f} s "
          f"({len(compiled):,} gates)")
    print(f"Fact objects materialized: {tid.instance.facts_materialized}")
    assert tid.instance.facts_materialized == 0, "pipeline must stay object-free"


def parallel_example() -> None:
    """Shard Monte-Carlo evaluation across worker processes, deterministically.

    The fourth lowering stage (see ``ARCHITECTURE.md``): the compiled
    circuit's CSR arrays go into shared memory once, and fixed-size sample
    shards are generated *inside* the workers from per-shard seeds, so the
    estimate is bit-identical no matter how many workers run — which this
    example asserts. The knob is ``workers=`` per call, process-wide
    ``repro.circuits.set_parallel_workers`` / ``REPRO_PARALLEL_WORKERS``,
    or ``python -m repro run E14 --workers 4``. On a single-core machine
    the pool demo is skipped gracefully (results would be identical, just
    slower); the deterministic shard scheme itself runs everywhere.
    """
    import os

    from repro import capabilities

    print()
    print("=" * 70)
    print("Sharded multi-process evaluation")
    print("=" * 70)
    caps = capabilities()
    if not caps["parallel"]:
        print("sharded backend unavailable (needs shared memory) — "
              "skipping; the same calls run on the serial kernels")
        return
    x, y = variables("x", "y")
    query = cq(atom("R", x), atom("S", x, y), atom("T", y))
    tid = TIDInstance()
    for i in range(12):
        tid.add(fact("R", i), 0.4)
        tid.add(fact("T", i), 0.5)
        if i + 1 < 12:
            tid.add(fact("S", i, i + 1), 0.6)

    serial = monte_carlo_probability(query, tid, samples=40_000, seed=11, workers=0)
    print(f"Monte Carlo (40k samples), in-process:  {serial:.6f}")
    if (os.cpu_count() or 1) < 2:
        print("only one CPU visible — skipping the worker-pool demo "
              "(set workers>=2 on a multicore machine; the estimate is "
              "guaranteed bit-identical)")
        return
    for workers in (2, 4):
        sharded = monte_carlo_probability(
            query, tid, samples=40_000, seed=11, workers=workers
        )
        print(f"Monte Carlo (40k samples), {workers} workers:   {sharded:.6f}")
        assert sharded == serial, "fixed seed must give identical estimates"
    print("identical estimates at every worker count — determinism verified")


def distributed_example() -> None:
    """Serialize a plan to the wire, and (with workers up) evaluate across hosts.

    The fifth lowering stage (see "Running a distributed job" in
    ``ARCHITECTURE.md``): a compiled circuit's plan packs into a versioned,
    checksummed wire blob that any worker — started with ``repro-worker
    serve`` / ``python -m repro serve`` — can decode and evaluate. The
    wire round trip itself needs no sockets, so this example always shows
    it; the cross-host part runs only when ``REPRO_DISTRIBUTED_HOSTS``
    names live workers (it asserts the distributed estimate is
    bit-identical to the local one, exactly like the worker-pool demo).

    Connections persist between calls: the process-wide host pool keeps
    them open, so a second call here pays neither the TCP setup nor the
    plan transfer (the worker confirms the plan digest instead). To
    require authentication, export the same shared secret on both sides —
    ``REPRO_DISTRIBUTED_SECRET=...`` for the coordinator and ``repro
    serve --secret ...`` (or the same variable) for every worker; workers
    then refuse any connection that cannot answer their HMAC challenge.

    For untrusted networks, encrypt the link too: point
    ``REPRO_DISTRIBUTED_TLS_CERT`` / ``REPRO_DISTRIBUTED_TLS_KEY`` at the
    worker's certificate (``repro serve --tls-cert/--tls-key`` also
    works) and ``REPRO_DISTRIBUTED_TLS_CA`` at the CA bundle the
    coordinator should verify it against; setting the CA *and* a cert on
    the coordinator side upgrades to mutual TLS. Certificate-verification
    failures are always fatal for that host (the pool warns once and
    evaluates elsewhere); only ``REPRO_DISTRIBUTED_TLS_ALLOW_PLAINTEXT=1``
    lets a coordinator retry a non-TLS legacy worker unencrypted. TLS and
    the HMAC secret compose — see "Transport security" in
    ``ARCHITECTURE.md``.
    """
    from repro import distributed_hosts, plan_from_bytes

    print()
    print("=" * 70)
    print("Distributed execution over wire-serialized plans")
    print("=" * 70)
    x, y = variables("x", "y")
    query = cq(atom("R", x), atom("S", x, y), atom("T", y))
    tid = TIDInstance()
    for i in range(12):
        tid.add(fact("R", i), 0.4)
        tid.add(fact("T", i), 0.5)
        if i + 1 < 12:
            tid.add(fact("S", i, i + 1), 0.6)
    compiled = compile_circuit(build_lineage(tid.instance, query).circuit)

    blob = compiled.wire_bytes()  # versioned + CRC-checksummed
    plan = plan_from_bytes(blob)  # what a remote worker reconstructs
    space = tid.event_space()
    world = space.sample(seed=1)
    row = [world[name] for name in compiled.variables()]
    assert plan.run_rows([row], as_float=False)[0] == compiled.evaluate(world)
    print(f"wire plan: {len(blob)} bytes for {compiled.size} gates — "
          "decoded copy agrees with the local circuit")

    hosts = distributed_hosts()
    if not hosts:
        print("no REPRO_DISTRIBUTED_HOSTS set — start workers with")
        print("  repro-worker serve --port 7761   (and 7762, ...)")
        print("then export REPRO_DISTRIBUTED_HOSTS=127.0.0.1:7761,127.0.0.1:7762")
        print("and re-run; the estimate is guaranteed bit-identical")
        return
    serial = monte_carlo_probability(query, tid, samples=40_000, seed=11, hosts=())
    remote = monte_carlo_probability(query, tid, samples=40_000, seed=11)
    print(f"Monte Carlo (40k samples), local:        {serial:.6f}")
    print(f"Monte Carlo (40k samples), {len(hosts)} host(s):    {remote:.6f}")
    assert remote == serial, "fixed seed must give identical estimates"
    print("identical estimates across hosts — determinism verified")
    repeat = monte_carlo_probability(query, tid, samples=40_000, seed=11)
    assert repeat == serial
    from repro import pool_stats

    stats = pool_stats()
    print(f"persistent pool: {len(stats['open_connections'])} connection(s) "
          f"reused, {stats['plans_published']} plan transfer(s) total "
          "(repeat calls skip connect + publish)")


def service_example() -> None:
    """Start the always-on query service and serve marginals over HTTP.

    The serving layer (see "The serving layer" in ``ARCHITECTURE.md``):
    ``repro serve-http`` keeps the compile caches, the plan cache and the
    distributed host pool resident in one long-lived process, coalesces
    concurrent requests for the same plan into shared matrix passes, and
    memoizes served marginals. Here the service is spawned as a local
    subprocess via the same :func:`repro.service.spawn_service` helper
    the tests and the E19 benchmark use; in production you would run
    ``python -m repro serve-http --port 8080`` and point
    :class:`repro.service.ServiceClient` (or any HTTP client — the
    protocol is plain JSON) at it.
    """
    from repro import spawn_service

    print()
    print("=" * 70)
    print("The always-on query service")
    print("=" * 70)
    x, y = variables("x", "y")
    query = cq(atom("R", x), atom("S", x, y), atom("T", y))
    tid = TIDInstance()
    for i in range(8):
        tid.add(fact("R", i), 0.5)
        tid.add(fact("T", i), 0.6)
        if i + 1 < 8:
            tid.add(fact("S", i, i + 1), 0.7)
    compiled = compile_circuit(build_lineage(tid.instance, query).circuit)
    space = tid.event_space()
    marginals = [space.probability(name) for name in compiled.variables()]

    handle = spawn_service()
    try:
        client = handle.client()
        digest = client.register_compiled(compiled)  # content-addressed
        print(f"service up at {handle.url}, plan registered as {digest}")
        served = client.probability(digest, [marginals])["marginals"][0]
        direct = compiled.probability_batch([marginals])[0]
        print(f"P(query) served over HTTP:     {served:.6f}")
        print(f"P(query) via the library:      {float(direct):.6f}")
        assert served == float(direct), "served marginal must be identical"
        again = client.probability(digest, [marginals])
        hits = client.stats()["result_cache"]["hits"]
        assert again["marginals"][0] == served and hits >= 1
        print(f"repeat request answered from the result cache ({hits} hit)")
        client.shutdown()
        assert handle.wait_dead(10.0) == 0, "service must exit cleanly"
        print("service shut down cleanly over HTTP")
    finally:
        handle.stop()


if __name__ == "__main__":
    trips_example()
    cqa_example()
    treewidth_engine_example()
    compiled_circuit_example()
    columnar_example()
    parallel_example()
    distributed_example()
    service_example()
    print("\nQuickstart complete — all exact numbers cross-checked.")
