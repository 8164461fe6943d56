"""Boolean circuits, their treewidth, and weighted model counting (S2).

The module is organized around a **compile-once / evaluate-many** split:

- :class:`Circuit` (``circuit.py``) is the *construction* arena — a mutable,
  hash-consed gate DAG that lineage builders grow incrementally;
- :func:`compile_circuit` (``compiled.py``) lowers a finished circuit to a
  :class:`CompiledCircuit`: flat topologically-sorted arrays (int gate
  kinds, CSR inputs, interned variable slots) with cached variable order,
  moral graph, tree decompositions and binarized form. Compilation is
  cached on the arena and invalidated by mutation, so callers just pass the
  ``Circuit`` around and pay the lowering once;
- :func:`probability` (``evaluation.py``) is the single dispatch point for
  probability computation, with a registry of engines over the compiled
  IR: ``enumerate`` (oracle), ``shannon`` (expansion baseline),
  ``message_passing`` (the paper's junction-tree algorithm, Theorems 1–2)
  and ``dd`` (the linear-time deterministic-decomposable pass, Theorem 1);
- :mod:`repro.circuits.parallel` (``parallel.py``) shards big batch
  evaluations across a pool of worker processes that map the compiled CSR
  arrays from shared memory — turn it on with
  :func:`set_parallel_workers` (or ``REPRO_PARALLEL_WORKERS``) and every
  large ``evaluate_batch``/``probability_batch`` call and both sampling
  baselines use it automatically, with deterministic results;
- :mod:`repro.circuits.distributed` (``distributed.py``) fans the same
  deterministic shards out to remote workers over TCP: the plan travels
  once per connection in a versioned, checksummed wire format
  (:func:`plan_to_bytes` / :func:`plan_from_bytes`), shards are retried on
  worker loss, and a fixed seed gives bit-identical estimates at any host
  count — turn it on with :func:`set_distributed_hosts` (or
  ``REPRO_DISTRIBUTED_HOSTS``) and start workers with
  ``python -m repro serve``;
- :mod:`repro.circuits.plancache` (``plancache.py``) persists lowered plans
  on disk so identical circuits skip lowering across processes — point
  :func:`set_plan_cache_dir` (or ``REPRO_PLAN_CACHE_DIR``) at a directory
  and both cold compiles and the distributed plan handshake reuse cached
  entries; :func:`recompile` additionally patches a previously compiled
  circuit in O(|edit|) after incremental arena growth.

The full five-stage lowering pipeline (gate DAG → flat CSR IR → leveled
numpy batch plan → sharded workers → distributed hosts) is documented in
``ARCHITECTURE.md``.

Typical use::

    from repro.circuits import compile_circuit, probability

    compiled = compile_circuit(lineage.circuit)     # once
    compiled.evaluate(world)                        # per possible world
    compiled.evaluate_batch(sampled_worlds)         # level-scheduled numpy pass
    compiled.probability_batch(marginal_rows)       # batched Theorem 1 pass
    probability(lineage.circuit, space, engine="dd")  # Theorem 1 fast path

The historical entry points (``wmc_enumerate``, ``wmc_shannon``,
``wmc_message_passing``, ``probability_dd``) remain as thin wrappers over
the same layer.
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
        "recompile",
        "reset_batch_stats",
        "reset_compile_stats",
    ),
    ".dd": ("check_decomposability", "check_determinism_sampled", "probability_dd"),
    ".distributed": (
        "distributed_hosts",
        "distributed_hosts_set",
        "distributed_secret",
        "distributed_secret_set",
        "distributed_tls",
        "distributed_tls_set",
        "pipeline_depth",
        "pipeline_depth_set",
        "plan_from_bytes",
        "plan_to_bytes",
        "pool_stats",
        "registered_hosts",
        "reset_pool",
        "set_distributed_hosts",
        "set_distributed_secret",
        "set_distributed_tls",
        "set_pipeline_depth",
        "start_registry",
        "stop_registry",
    ),
    ".evaluation": (
        "MessagePassingReport",
        "available_engines",
        "capabilities",
        "default_engine",
        "default_engine_set",
        "engine_forced",
        "force_engine",
        "forced_engine",
        "get_engine",
        "probability",
        "probability_batch",
        "register_engine",
        "set_default_engine",
    ),
    ".export": ("CircuitStats", "circuit_stats", "to_dot"),
    ".graph": ("circuit_width", "moral_graph"),
    ".parallel": (
        "parallel_available",
        "parallel_workers",
        "parallel_workers_set",
        "set_parallel_workers",
        "shutdown_pool",
    ),
    ".plancache": (
        "plan_cache_dir",
        "plan_cache_dir_set",
        "plan_cache_stats",
        "reset_plan_cache_stats",
        "set_plan_cache_dir",
    ),
    ".wmc": ("wmc_enumerate", "wmc_message_passing", "wmc_shannon"),
})
