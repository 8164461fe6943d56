"""Command-line interface: regenerate any experiment table from the terminal.

Usage::

    python -m repro list                # list experiments E1..E20
    python -m repro run E3              # print Theorem 1's scaling table
    python -m repro run E3 --engine shannon   # force one engine everywhere
    python -m repro run E14 --workers 4 # sharded evaluation on 4 processes
    python -m repro run all             # print every table (long)
    python -m repro engines             # engines + batch/parallel backends
    python -m repro cqa                 # certain answers on key-violating data
    python -m repro cqa --rate 0.5 --query conp --method circuit
    python -m repro paper               # one-line paper identification
    python -m repro serve --port 7761   # become a distributed shard worker
    python -m repro serve --port 7761 --secret swordfish   # require auth
    python -m repro dist-eval --hosts 127.0.0.1:7761,127.0.0.1:7762
    python -m repro serve-http --port 8080   # always-on query service
    python -m repro serve-http --port 8080 --hosts 127.0.0.1:7761   # + shards

``--workers`` scopes the process-wide ``parallel_workers`` knob of
:mod:`repro.config` to the run, exactly like ``--engine`` scopes the
``forced_engine`` knob; ``--workers 0`` forces the single-process
kernels even when ``REPRO_PARALLEL_WORKERS`` is set. ``--hosts`` scopes
the ``distributed_hosts`` knob the same way, routing big batches and both
sampling baselines over TCP to ``repro serve`` workers
(:mod:`repro.circuits.distributed`). The ``repro-worker`` console script
is the same CLI with ``serve`` as its natural home: start N of those, hand
their ``host:port`` list to one coordinating process, and a single
Monte-Carlo or batch-probability run fans out across all of them with
bit-identical results.

The experiment implementations live in ``benchmarks/bench_*.py``; each has a
``main()`` printing its table. This CLI locates them relative to the
repository root (they are scripts, not package modules, so installed-package
use without the repository falls back to a clear error).
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from contextlib import ExitStack
from pathlib import Path

EXPERIMENTS = {
    "E1": ("bench_figure1_prxml", "Figure 1: the Chelsea Manning PrXML document"),
    "E2": ("bench_table1_cinstance", "Table 1: the PODS/STOC trips c-instance"),
    "E3": ("bench_theorem1_scaling", "Theorem 1: linear time at bounded treewidth"),
    "E4": ("bench_theorem2_pcc", "Theorem 2: bounded-treewidth pcc-instances"),
    "E5": ("bench_scope_prxml", "Bounded event scopes on PrXML"),
    "E6": ("bench_dichotomy", "#P-hardness contrast vs Dalvi–Suciu safe plans"),
    "E7": ("bench_provenance", "Semiring provenance through circuits"),
    "E8": ("bench_order", "Order uncertainty: tractable vs hard"),
    "E9": ("bench_conditioning", "Conditioning and crowd question selection"),
    "E10": ("bench_rules", "Probabilistic rules: the probabilistic chase"),
    "E11": ("bench_ablation_heuristics", "Decomposition-heuristic ablation"),
    "E12": ("bench_hybrid", "Partial decompositions: exact tentacles + sampled core"),
    "E13": ("bench_compiled_eval", "Compiled circuit IR vs object-graph evaluation"),
    "E14": ("bench_parallel_eval", "Sharded multi-process vs single-process batch eval"),
    "E15": ("bench_distributed_eval", "Distributed shard execution over localhost workers"),
    "E17": ("bench_compile_path", "Compile path: array lowering vs the per-gate reference, shallow and deep"),
    "E18": ("bench_columnar_pipeline", "Columnar pipeline: generate/query/provenance/compile at scale"),
    "E19": ("bench_service", "Query service: coalesced vs uncoalesced QPS and tail latency"),
    "E20": ("bench_cqa", "Certain answers: trichotomy routing vs repairs oracle vs circuits"),
}

#: The experiment ids as a range, for help and error messages.
EXPERIMENT_RANGE = f"{next(iter(EXPERIMENTS))}..{next(reversed(EXPERIMENTS))}"


def _benchmarks_dir() -> Path:
    candidates = [
        Path(__file__).resolve().parents[2] / "benchmarks",
        Path.cwd() / "benchmarks",
    ]
    for candidate in candidates:
        if candidate.is_dir():
            return candidate
    raise SystemExit(
        "cannot locate the benchmarks/ directory; run from the repository root"
    )


def _load_main(module_name: str):
    path = _benchmarks_dir() / f"{module_name}.py"
    if not path.exists():
        raise SystemExit(f"experiment script missing: {path}")
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # type: ignore[union-attr]
    return module.main


def command_list() -> None:
    """Print the experiment index."""
    print(f"{'id':<5} {'script':<28} description")
    for exp_id, (module_name, description) in EXPERIMENTS.items():
        print(f"{exp_id:<5} {module_name:<28} {description}")


def command_run(
    target: str,
    engine: str | None = None,
    workers: int | None = None,
    hosts: str | None = None,
) -> None:
    """Run one experiment (or 'all'), optionally forcing an engine or backend.

    ``--engine``, ``--workers`` and ``--hosts`` scope the ``forced_engine``,
    ``parallel_workers`` and ``distributed_hosts`` knobs to the run with
    :func:`repro.config.overrides`, so embedding callers (tests, the REPL)
    cannot leak any override into later evaluations. A value the knob
    refuses exits naming its flag.
    """
    from repro import config
    from repro.util import ReproError

    targets = list(EXPERIMENTS) if target.lower() == "all" else [target.upper()]
    for exp_id in targets:
        if exp_id not in EXPERIMENTS:
            raise SystemExit(
                f"unknown experiment {exp_id!r}; use 'list' to see "
                f"{EXPERIMENT_RANGE}"
            )
    flags = (
        ("--engine", "forced_engine", engine),
        ("--workers", "parallel_workers", workers),
        ("--hosts", "distributed_hosts", hosts),
    )
    with ExitStack() as scope:
        for flag, knob, value in flags:
            if value is not None:
                try:
                    scope.enter_context(config.overrides(**{knob: value}))
                except ReproError as exc:
                    raise SystemExit(f"{flag}: {exc}") from None
        for exp_id in targets:
            module_name, _description = EXPERIMENTS[exp_id]
            print()
            _load_main(module_name)()
            print()


def command_engines() -> None:
    """Print the engine registry and the batch/parallel backends in use."""
    import numpy as np

    from repro.circuits import available_engines, capabilities

    print(f"{'engine':<18} role")
    roles = {
        "enumerate": "brute-force oracle (capped variable count)",
        "shannon": "Shannon expansion baseline",
        "message_passing": "junction-tree sum-product (Theorems 1-2)",
        "dd": "linear-time deterministic-decomposable pass",
    }
    caps = capabilities()
    for name in available_engines():
        marker = " (default)" if name == caps["engine"] else ""
        print(f"{name:<18} {roles.get(name, 'custom engine')}{marker}")
    print(f"\nbatch evaluation backend: numpy {np.__version__} level-scheduled kernels")
    if caps["parallel"]:
        workers = caps["parallel_workers"]
        state = f"{workers} workers" if workers >= 2 else "off (workers=0/1)"
        print(
            f"sharded multi-process backend: available — {state}, "
            f"{caps['cpu_count']} CPU(s); set REPRO_PARALLEL_WORKERS or --workers"
        )
    else:
        print("sharded multi-process backend: unavailable (needs shared memory)")
    hosts = caps["distributed_hosts"]
    auth = " (auth armed)" if caps["distributed_auth"] else ""
    if hosts:
        print(f"distributed backend: routing to {len(hosts)} host(s): "
              + ", ".join(hosts) + auth)
    else:
        print("distributed backend: off (no hosts; set REPRO_DISTRIBUTED_HOSTS "
              "or --hosts, start workers with 'repro serve')" + auth)
    pool = caps["distributed_pool"]
    print("persistent host pool: "
          f"{len(pool['open_connections'])} open connection(s), "
          f"{pool['calls']} coordinated call(s), "
          f"{pool['plans_published']} plan(s) published, "
          f"{pool['plan_cache_hits'] + pool['publishes_skipped']} digest hit(s), "
          f"{pool['steals']} steal(s)")
    print(f"instance backend: {caps['instance_backend']} "
          "(REPRO_INSTANCE_BACKEND=object|columnar)")
    cqa = caps["cqa"]
    routed = ", ".join(f"{name}={cqa[name]}" for name in caps["cqa_classes"])
    print(f"certain-answer engine: classes {'/'.join(caps['cqa_classes'])}; "
          f"routed this process: {routed} "
          f"(pair solver {cqa['pair_solver']}, "
          f"circuit fallbacks {cqa['circuit_fallbacks']})")


def command_cqa(
    n_keys: int = 12,
    rate: float = 0.4,
    seed: int = 3,
    query: str = "all",
    method: str = "auto",
    backend: str | None = None,
) -> None:
    """Run the certain-answer engine on a generated key-violating instance."""
    from repro.cqa import (
        certain_answers,
        certain_oracle,
        classify,
        cqa_stats,
        fo_rewriting,
        repair_count,
    )
    from repro.cqa.attacks import FO
    from repro.cqa.engine import METHODS
    from repro.util import ReproError
    from repro.workloads import cqa_trichotomy_queries, key_violation_instance

    queries = cqa_trichotomy_queries()
    if method not in METHODS:
        raise SystemExit(
            f"unknown method {method!r}; available: {', '.join(METHODS)}"
        )
    if query != "all" and query not in queries:
        raise SystemExit(
            f"unknown query {query!r}; available: all, {', '.join(queries)}"
        )
    try:
        instance, keys = key_violation_instance(
            n_keys, violation_rate=rate, seed=seed, backend=backend
        )
    except ReproError as exc:
        raise SystemExit(str(exc)) from None
    selected = queries if query == "all" else {query: queries[query]}
    relations = sorted({a.relation for q in selected.values() for a in q.atoms})
    count = repair_count(instance, keys, relations)
    print(f"instance: {len(instance)} facts, seed={seed}, "
          f"violation rate {rate}, {count} repair(s)")
    routed_before = cqa_stats()
    for name, q in selected.items():
        classification = classify(q, keys)
        print(f"\n{name}: {q}")
        print(f"  {classification.describe(q)}")
        if classification.trichotomy == FO:
            print(f"  rewriting: {fo_rewriting(q, keys).formula}")
        answer = certain_answers(q, instance, keys, method=method)
        print(f"  certain ({method}): {answer}")
        if count <= 200_000:
            oracle = certain_oracle(q, instance, keys)
            agree = "agrees" if oracle == answer else "DISAGREES"
            print(f"  all-repairs oracle: {oracle} ({agree})")
    routed = {k: v - routed_before[k] for k, v in cqa_stats().items()}
    print("\nrouting: " + ", ".join(f"{k}={v}" for k, v in routed.items() if v))


def command_paper() -> None:
    """Print the paper this repository reproduces."""
    print(
        "Amarilli, A. Structurally Tractable Uncertain Data. "
        "SIGMOD 2015 PhD Symposium. arXiv:1507.04955"
    )


def command_serve(
    host: str = "127.0.0.1", port: int = 0, max_tasks: int | None = None,
    secret: str | None = None, delay: float = 0.0,
    tls_cert: str | None = None, tls_key: str | None = None,
    tls_ca: str | None = None, register: str | None = None,
    advertise: str | None = None,
) -> None:
    """Run a distributed shard worker until interrupted.

    Listens on ``host:port`` (port 0 picks an ephemeral one), prints a
    single ``repro-worker listening on host:port`` readiness line, and then
    serves shard tasks from any coordinator that connects (see
    :mod:`repro.circuits.distributed`). ``--secret`` (default: the
    ``distributed_secret`` knob, i.e. ``REPRO_DISTRIBUTED_SECRET``) arms
    shared-secret authentication: every connection must answer the
    worker's HMAC challenge or is refused. ``--tls-cert``/``--tls-key``
    (defaults: the ``distributed_tls`` knob's certificate and key,
    ``REPRO_DISTRIBUTED_TLS_CERT``/``_KEY``) wrap the listener in TLS, and
    ``--tls-ca`` (its CA bundle, ``REPRO_DISTRIBUTED_TLS_CA``) additionally
    demands a verified client certificate — mutual TLS. ``--register host:port``
    dials a coordinator's registry so this worker joins its host list
    elastically, advertising ``--advertise`` (default: its own bound
    address). ``--max-tasks`` is the fault-injection hook used by the test
    suite and resilience drills: the process dies abruptly when asked to
    run one task more. ``--delay`` makes the worker artificially slow (the
    work-stealing drill hook).
    """
    import asyncio

    from repro import config
    from repro.circuits.distributed import WorkerServer

    if secret is None:
        secret = config.get("distributed_secret")
    tls = config.get("distributed_tls") or {}
    if tls_cert is None:
        tls_cert = tls.get("certfile")
    if tls_key is None:
        tls_key = tls.get("keyfile")
    if tls_ca is None:
        tls_ca = tls.get("cafile")

    async def _serve() -> None:
        server = WorkerServer(
            host=host, port=port, max_tasks=max_tasks, secret=secret,
            delay=delay, tls_cert=tls_cert, tls_key=tls_key, tls_ca=tls_ca,
            register=register, advertise=advertise,
        )
        await server.start()
        auth_note = " (auth required)" if secret else ""
        if tls_cert:
            auth_note += " (mtls)" if tls_ca else " (tls)"
        print(
            f"repro-worker listening on {server.host}:{server.port}{auth_note}",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass


def command_serve_http(
    host: str = "127.0.0.1", port: int = 0, no_coalesce: bool = False,
    cache_size: int | None = None,
    hosts: str | None = None, secret: str | None = None,
    tls_cert: str | None = None, tls_key: str | None = None,
    tls_ca: str | None = None, registry_bind: str | None = None,
) -> None:
    """Run the always-on HTTP query service until interrupted.

    The process keeps the compile cache and the distributed
    :class:`~repro.circuits.distributed.HostPool` resident, so
    every request after the first skips lowering, connection setup and the
    plan handshake (see :mod:`repro.service`). Prints a single
    ``repro-service listening on host:port`` readiness line. ``--hosts``
    installs a distributed worker list for the process (big batches fan
    out exactly as with ``dist-eval``); ``--no-coalesce`` gives every
    request its own pass (the benchmark baseline), where by default the
    requests that arrive while a plan's pass runs share its next pass;
    ``--cache-size`` overrides the ``REPRO_SERVICE_CACHE_SIZE``
    environment knob.
    """
    from repro import config
    from repro.circuits import distributed
    from repro.service import serve_http
    from repro.util import parse_hostport

    knobs: dict = {}
    if hosts is not None:
        knobs["distributed_hosts"] = hosts
    if secret is not None:
        knobs["distributed_secret"] = secret
    if tls_cert or tls_ca:
        knobs["distributed_tls"] = {
            "certfile": tls_cert, "keyfile": tls_key, "cafile": tls_ca,
        }
    config.configure(**knobs)
    if registry_bind is not None:
        reg_host, reg_port = parse_hostport(registry_bind)
        bound = distributed.start_registry(reg_host, reg_port)
        print(f"repro-service worker registry on {bound}", flush=True)
    kwargs: dict = {"coalesce": not no_coalesce}
    if cache_size is not None:
        kwargs["cache_size"] = cache_size
    serve_http(host=host, port=port, **kwargs)


def command_dist_eval(
    hosts: str | None = None, samples: int = 100_000, seed: int = 0,
    secret: str | None = None,
) -> None:
    """Two distributed Monte-Carlo runs, checked against the local estimate.

    The smallest end-to-end proof of the stage-5 pipeline: build the R–S–T
    chain lineage, serialize the plan, fan the sample shards out to
    ``--hosts``, and assert the merged estimate is bit-identical to the
    in-process one. The run repeats once over the **persistent host pool**
    — the second call reuses the authenticated connections and skips the
    plan transfer (the digest handshake), so its wall time shows the
    amortized steady state — and finishes with the pool's counters. With
    no hosts the run stays local and says so; with hosts of which none
    served a shard (unreachable, or refused for their protocol version,
    TLS or secret) it exits non-zero.
    """
    import time

    from repro import config
    from repro.circuits import compile_circuit
    from repro.circuits import distributed, parallel
    from repro.core import build_lineage
    from repro.queries import atom, cq, variables
    from repro.util import ReproError
    from repro.workloads import rst_chain_tid

    host_list = distributed.effective_hosts(hosts)
    x, y = variables("x", "y")
    query = cq(atom("R", x), atom("S", x, y), atom("T", y))
    tid = rst_chain_tid(60, probability=0.15, seed=0)
    compiled = compile_circuit(build_lineage(tid.instance, query).circuit)
    marginals = compiled.slot_marginals(tid.event_space())
    plan_bytes = compiled.wire_bytes()
    print(f"lineage circuit: {compiled.size} gates, "
          f"{len(compiled.variables())} variables; wire plan {len(plan_bytes)} "
          f"bytes, digest {compiled.plan_digest()}")
    local_hits = parallel.monte_carlo_hits(compiled, marginals, samples, seed=seed)
    print(f"in-process estimate:  {local_hits / samples:.6f} "
          f"({local_hits}/{samples} hits)")
    if not host_list:
        print("no --hosts given (and REPRO_DISTRIBUTED_HOSTS unset) — "
              "start workers with 'repro serve' to distribute this run")
        return
    knobs = {} if secret is None else {"distributed_secret": secret}
    served_before = distributed.pool_stats()["tasks_completed"]
    with config.overrides(**knobs):
        timings = []
        for attempt in ("first (connect + publish)", "repeat (pool reuse)"):
            start = time.perf_counter()
            try:
                remote_hits = distributed.monte_carlo_hits(
                    compiled, marginals, samples, seed=seed, hosts=host_list
                )
            except ReproError as exc:
                raise SystemExit(f"distributed run failed: {exc}") from None
            timings.append(time.perf_counter() - start)
            print(f"distributed estimate, {attempt}: "
                  f"{remote_hits / samples:.6f} across {len(host_list)} host(s) "
                  f"in {timings[-1] * 1e3:.1f} ms")
            if remote_hits != local_hits:
                raise SystemExit("distributed estimate diverged from the local one")
    stats = distributed.pool_stats()
    if stats["tasks_completed"] == served_before:
        raise SystemExit(
            f"no host of {', '.join(host_list)} served a shard (see the "
            "warnings above); both estimates ran locally"
        )
    if timings[1] > 0:
        print(f"repeat-call amortization: {timings[0] / timings[1]:.2f}x "
              "(plan publish + connect eliminated)")
    print("pool stats: "
          f"{len(stats['open_connections'])} open connection(s), "
          f"{stats['connects']} connect(s) ({stats['reconnects']} reconnect(s)), "
          f"{stats['plans_published']} plan(s) published, "
          f"{stats['plan_cache_hits'] + stats['publishes_skipped']} digest hit(s), "
          f"{stats['tasks_completed']} shard(s) completed, "
          f"{stats['steals']} steal(s)")
    print("bit-identical with the in-process estimate — determinism verified")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Structurally Tractable Uncertain Data — reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiments")
    run = sub.add_parser("run", help="run an experiment table")
    run.add_argument(
        "experiment", help=f"experiment id ({EXPERIMENT_RANGE}) or 'all'"
    )
    run.add_argument(
        "--engine",
        default=None,
        help="force one circuit-evaluation engine for the whole run "
        "(enumerate, shannon, message_passing, dd)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard batch evaluation across this many worker processes for "
        "the run (0 forces single-process; default: REPRO_PARALLEL_WORKERS)",
    )
    run.add_argument(
        "--hosts",
        default=None,
        help="route big batches and sampling to these 'host:port,host:port' "
        "distributed workers for the run (default: REPRO_DISTRIBUTED_HOSTS)",
    )
    sub.add_parser("engines", help="show evaluation engines and batch backend")
    cqa = sub.add_parser(
        "cqa", help="certain answers on a generated key-violating instance"
    )
    cqa.add_argument(
        "--keys", type=int, default=12, dest="n_keys",
        help="number of key blocks per relation (default 12)",
    )
    cqa.add_argument(
        "--rate", type=float, default=0.4,
        help="fraction of blocks violating their key (default 0.4)",
    )
    cqa.add_argument("--seed", type=int, default=3, help="generator seed")
    cqa.add_argument(
        "--query", default="all", choices=["all", "fo", "ptime", "conp"],
        help="which canonical trichotomy query to answer (default all)",
    )
    cqa.add_argument(
        "--method", default="auto", choices=["auto", "rewrite", "circuit", "oracle"],
        help="force one answering method instead of trichotomy routing",
    )
    cqa.add_argument(
        "--backend", default=None, choices=["object", "columnar"],
        help="instance backend (default: REPRO_INSTANCE_BACKEND)",
    )
    sub.add_parser("paper", help="identify the reproduced paper")
    _add_worker_parsers(sub)
    args = parser.parse_args(argv)
    if args.command == "list":
        command_list()
    elif args.command == "run":
        command_run(
            args.experiment, engine=args.engine, workers=args.workers,
            hosts=args.hosts,
        )
    elif args.command == "engines":
        command_engines()
    elif args.command == "cqa":
        command_cqa(
            n_keys=args.n_keys, rate=args.rate, seed=args.seed,
            query=args.query, method=args.method, backend=args.backend,
        )
    elif args.command == "paper":
        command_paper()
    elif args.command == "serve":
        command_serve(
            host=args.host, port=args.port, max_tasks=args.max_tasks,
            secret=args.secret, delay=args.delay, tls_cert=args.tls_cert,
            tls_key=args.tls_key, tls_ca=args.tls_ca, register=args.register,
            advertise=args.advertise,
        )
    elif args.command == "dist-eval":
        command_dist_eval(
            hosts=args.hosts, samples=args.samples, seed=args.seed,
            secret=args.secret,
        )
    elif args.command == "serve-http":
        command_serve_http(
            host=args.host, port=args.port, no_coalesce=args.no_coalesce,
            cache_size=args.cache_size,
            hosts=args.hosts, secret=args.secret,
            tls_cert=args.tls_cert, tls_key=args.tls_key, tls_ca=args.tls_ca,
            registry_bind=args.registry_bind,
        )
    return 0


def _add_worker_parsers(sub) -> None:
    """The ``serve`` / ``dist-eval`` subcommands, shared with ``repro-worker``."""
    serve = sub.add_parser("serve", help="run a distributed shard worker")
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port to listen on (0 = ephemeral, printed on startup)",
    )
    serve.add_argument(
        "--secret", default=None,
        help="require coordinators to answer an HMAC challenge with this "
        "shared secret (default: REPRO_DISTRIBUTED_SECRET)",
    )
    serve.add_argument(
        "--max-tasks", type=int, default=None,
        help="fault-injection hook: crash when asked to run one more task",
    )
    serve.add_argument(
        "--delay", type=float, default=0.0,
        help="drill hook: sleep this many seconds before each task "
        "(simulates a slow host for work-stealing drills)",
    )
    serve.add_argument(
        "--tls-cert", default=None,
        help="serve TLS with this certificate chain "
        "(default: REPRO_DISTRIBUTED_TLS_CERT)",
    )
    serve.add_argument(
        "--tls-key", default=None,
        help="private key for --tls-cert (default: REPRO_DISTRIBUTED_TLS_KEY)",
    )
    serve.add_argument(
        "--tls-ca", default=None,
        help="demand client certificates verified against this CA bundle — "
        "mutual TLS (default: REPRO_DISTRIBUTED_TLS_CA)",
    )
    serve.add_argument(
        "--register", default=None,
        help="dial this coordinator registry ('host:port') and join its "
        "host list elastically",
    )
    serve.add_argument(
        "--advertise", default=None,
        help="address to register as (default: the bound host:port)",
    )
    dist = sub.add_parser(
        "dist-eval", help="run a checked distributed Monte-Carlo evaluation"
    )
    dist.add_argument(
        "--hosts", default=None,
        help="'host:port,host:port' worker list "
        "(default: REPRO_DISTRIBUTED_HOSTS)",
    )
    dist.add_argument(
        "--secret", default=None,
        help="shared secret for authenticated workers "
        "(default: REPRO_DISTRIBUTED_SECRET)",
    )
    dist.add_argument("--samples", type=int, default=100_000)
    dist.add_argument("--seed", type=int, default=0)
    http = sub.add_parser(
        "serve-http", help="run the always-on HTTP query service"
    )
    http.add_argument("--host", default="127.0.0.1", help="interface to bind")
    http.add_argument(
        "--port", type=int, default=0,
        help="TCP port to listen on (0 = ephemeral, printed on startup)",
    )
    http.add_argument(
        "--no-coalesce", action="store_true",
        help="disable request coalescing (every request runs its own pass)",
    )
    http.add_argument(
        "--cache-size", type=int, default=None,
        help="result-cache capacity in rows "
        "(default: REPRO_SERVICE_CACHE_SIZE or 4096)",
    )
    http.add_argument(
        "--hosts", default=None,
        help="route big passes to these 'host:port,host:port' distributed "
        "workers (default: REPRO_DISTRIBUTED_HOSTS)",
    )
    http.add_argument(
        "--secret", default=None,
        help="shared secret for authenticated workers "
        "(default: REPRO_DISTRIBUTED_SECRET)",
    )
    http.add_argument(
        "--tls-cert", default=None,
        help="client certificate presented to mTLS workers "
        "(default: REPRO_DISTRIBUTED_TLS_CERT)",
    )
    http.add_argument(
        "--tls-key", default=None,
        help="private key for --tls-cert (default: REPRO_DISTRIBUTED_TLS_KEY)",
    )
    http.add_argument(
        "--tls-ca", default=None,
        help="CA bundle distributed workers are verified against "
        "(default: REPRO_DISTRIBUTED_TLS_CA)",
    )
    http.add_argument(
        "--registry-bind", default=None,
        help="accept elastic worker registrations on this 'host:port' "
        "(default: REPRO_DISTRIBUTED_REGISTRY_BIND)",
    )


def worker_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-worker`` console script.

    The same parser as ``python -m repro`` restricted to the distributed
    subcommands, so a worker box needs exactly one command:
    ``repro-worker serve --port 7761``. One process coordinates (any
    evaluation call with ``hosts=`` set, or ``repro-worker dist-eval``) and
    N serve.
    """
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Distributed shard worker for the circuit pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_worker_parsers(sub)
    args = parser.parse_args(argv)
    if args.command == "serve":
        command_serve(
            host=args.host, port=args.port, max_tasks=args.max_tasks,
            secret=args.secret, delay=args.delay, tls_cert=args.tls_cert,
            tls_key=args.tls_key, tls_ca=args.tls_ca, register=args.register,
            advertise=args.advertise,
        )
    elif args.command == "serve-http":
        command_serve_http(
            host=args.host, port=args.port, no_coalesce=args.no_coalesce,
            cache_size=args.cache_size,
            hosts=args.hosts, secret=args.secret,
            tls_cert=args.tls_cert, tls_key=args.tls_key, tls_ca=args.tls_ca,
            registry_bind=args.registry_bind,
        )
    else:
        command_dist_eval(
            hosts=args.hosts, samples=args.samples, seed=args.seed,
            secret=args.secret,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
