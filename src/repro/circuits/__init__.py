"""Boolean circuits, their treewidth, and weighted model counting (S2).

The module is organized around a **compile-once / evaluate-many** split:

- :class:`Circuit` (``circuit.py``) is the *construction* arena — a mutable,
  hash-consed gate DAG that lineage builders grow incrementally;
- :func:`compile_circuit` (``compiled.py``) lowers a finished circuit to a
  :class:`CompiledCircuit`: flat topologically-sorted arrays (int gate
  kinds, CSR inputs, interned variable slots) with cached variable order,
  moral graph, tree decompositions and binarized form. Compilation is
  cached on the arena and invalidated by mutation, so callers just pass the
  ``Circuit`` around and pay the lowering once; a mutated arena is lowered
  afresh;
- :func:`probability` (``evaluation.py``) is the single dispatch point for
  probability computation, with a registry of engines over the compiled
  IR: ``enumerate`` (oracle), ``shannon`` (expansion baseline),
  ``message_passing`` (the paper's junction-tree algorithm, Theorems 1–2)
  and ``dd`` (the linear-time deterministic-decomposable pass, Theorem 1);
- :mod:`repro.circuits.parallel` (``parallel.py``) shards big batch
  evaluations across a standard-library process pool whose workers map
  the compiled CSR arrays from shared memory — turn it on with the
  ``parallel_workers`` knob (or ``REPRO_PARALLEL_WORKERS``) and every
  large ``evaluate_batch``/``probability_batch`` call and both sampling
  baselines use it automatically, with deterministic results;
- :mod:`repro.circuits.distributed` (``distributed.py``) fans the same
  deterministic shards out to remote workers over TCP: the plan travels
  once per connection in a versioned, checksummed wire format
  (:func:`plan_to_bytes` / :func:`plan_from_bytes`), shards are retried on
  worker loss, and a fixed seed gives bit-identical estimates at any host
  count — turn it on with the ``distributed_hosts`` knob (or
  ``REPRO_DISTRIBUTED_HOSTS``) and start workers with
  ``python -m repro serve``.

Every knob named here is set through :mod:`repro.config`
(``config.configure(parallel_workers=2)`` or ``config.overrides(...)``);
no module of this package keeps knob state of its own. The full
five-stage lowering pipeline (gate DAG → flat CSR IR → leveled numpy
batch plan → sharded workers → distributed hosts) is documented in
``ARCHITECTURE.md``.

Typical use::

    from repro.circuits import compile_circuit, probability

    compiled = compile_circuit(lineage.circuit)     # once
    compiled.evaluate(world)                        # per possible world
    compiled.evaluate_batch(sampled_worlds)         # level-scheduled numpy pass
    compiled.probability_batch(marginal_rows)       # batched Theorem 1 pass
    probability(lineage.circuit, space, engine="dd")  # Theorem 1 fast path
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".circuit": ("AND", "CONST", "NOT", "OR", "VAR", "Circuit", "Gate", "from_formula"),
    ".compiled": (
        "ENUMERATION_VARIABLE_CAP",
        "CompiledCircuit",
        "batch_stats",
        "compile_circuit",
        "compile_stats",
    ),
    ".dd": ("check_decomposability", "check_determinism_sampled"),
    ".distributed": (
        "plan_from_bytes",
        "plan_to_bytes",
        "pool_stats",
        "registered_hosts",
        "reset_pool",
        "start_registry",
        "stop_registry",
    ),
    ".evaluation": (
        "MessagePassingReport",
        "available_engines",
        "capabilities",
        "get_engine",
        "probability",
        "probability_batch",
        "register_engine",
    ),
    ".export": ("CircuitStats", "circuit_stats", "to_dot"),
    ".graph": ("circuit_width", "moral_graph"),
    ".parallel": (
        "parallel_available",
        "shutdown_pool",
    ),
})
