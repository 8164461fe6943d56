"""Fault drills for the query service: degrade, never serve a wrong marginal.

Each test spawns its own ``repro serve-http`` subprocess (plus, where the
drill needs one, a distributed worker or an on-disk plan cache) and
injects one failure:

- a distributed worker killed mid-request — the host pool retries, the
  tier ladder degrades to the local kernels, and every served marginal
  still equals the library's answer;
- a corrupt plan-cache entry discovered by a fresh service — the corrupt
  blob is rejected and deleted, the request fails with a clean 404 (not a
  wrong number), and re-registering the plan heals the digest;
- a cache stampede — N concurrent cold requests for one valuation — is
  deduplicated to a single evaluated row;
- a client disconnecting mid-stream — the Monte-Carlo run is cancelled
  promptly and the service keeps serving;
- a service that hangs before it prints — ``spawn_service`` kills it at
  its ``startup_timeout``.

Everything here opens sockets and spawns subprocesses, so the whole
module carries the ``distributed`` marker.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.circuits import compile_circuit
from repro.core import build_lineage, compile_query_plan
from repro.instances.columnar import ColumnarInstance
from repro.queries import atom, cq, variables
from repro.service import ServiceClient, ServiceClientError, spawn_service
from repro.util import ReproError, stable_rng
from repro.workloads import rst_chain_tid

pytestmark = pytest.mark.distributed


def chain_setup(n: int = 25, probability: float = 0.3, seed: int = 41):
    x, y = variables("x", "y")
    query = cq(atom("R", x), atom("S", x, y), atom("T", y))
    tid = rst_chain_tid(n, probability=probability, seed=seed)
    compiled = compile_circuit(build_lineage(tid.instance, query).circuit)
    space = tid.event_space()
    marginals = [space.probability(name) for name in compiled.variables()]
    return compiled, marginals


def direct_marginals(compiled, rows):
    return compiled.probability_batch(np.asarray(rows, dtype=np.float64))


def unique_rows(count: int, width: int, rng) -> list[list[float]]:
    return [[rng.random() for _ in range(width)] for _ in range(count)]


def shutdown_service(handle) -> None:
    try:
        handle.client(timeout=5.0).shutdown()
        handle.wait_dead(10.0)
    except Exception:
        pass
    finally:
        handle.stop()


# --------------------------------------------------------------------------- #
# worker killed mid-request


def test_worker_killed_mid_request_degrades_to_local(worker_factory):
    """A distributed worker dying under a batch must cost latency, not
    correctness: the pool retries, the tier ladder falls back to the
    local kernels, and the marginals stay bit-identical."""
    worker = worker_factory(max_tasks=1)  # dies when asked for task #2
    handle = spawn_service(env={"REPRO_DISTRIBUTED_HOSTS": worker.address})
    try:
        client = handle.client()
        tid = rst_chain_tid(25, probability=0.3, seed=41)
        payload = ColumnarInstance.from_instance(tid.instance).to_payload()
        query_spec = {
            "atoms": [["R", ["?x"]], ["S", ["?x", "?y"]], ["T", ["?y"]]]
        }
        compiled_resp = client.compile(payload, query_spec)
        digest = compiled_resp["digest"]
        restored, _fids = ColumnarInstance.ingest_payload(payload)
        x, y = variables("x", "y")
        _lineage, oracle = compile_query_plan(
            restored, cq(atom("R", x), atom("S", x, y), atom("T", y))
        )
        assert oracle.plan_digest() == digest
        rng = stable_rng(411)
        width = compiled_resp["n_vars"]
        # Big enough to clear PARALLEL_MIN_ROWS, so the pass actually
        # goes over the wire — and splits into several shards, so the
        # worker's crash lands mid-request, not between requests.
        for attempt in range(2):
            rows = unique_rows(4096, width, rng)
            served = client.probability(digest, rows)
            expected = [float(v) for v in direct_marginals(oracle, rows)]
            assert served["marginals"] == expected, (
                f"attempt {attempt}: degraded pass must stay bit-identical"
            )
        assert worker.wait_dead(20.0) is not None, (
            "the max-tasks worker should have crashed under the batches"
        )
        health = client.health()
        assert health["status"] == "ok"
        client.close()
    finally:
        shutdown_service(handle)


# --------------------------------------------------------------------------- #
# corrupt plan-cache entry on a fresh service


def test_corrupt_plan_cache_entry_yields_clean_404_and_reheals(tmp_path):
    cache_dir = tmp_path / "plans"
    env = {"REPRO_PLAN_CACHE_DIR": str(cache_dir)}
    compiled, marginals = chain_setup(n=12, seed=42)
    rows = [marginals]
    expected = [float(v) for v in direct_marginals(compiled, rows)]

    # Life 1: register the plan; the service writes it through to disk.
    handle = spawn_service(env=env)
    try:
        client = handle.client()
        registered = client.register_plan(compiled.wire_bytes())
        digest = registered["digest"]
        assert registered["disk_cached"] is True
        assert client.probability(digest, rows)["marginals"] == expected
        client.close()
    finally:
        shutdown_service(handle)

    # Life 2: a fresh service serves the digest straight from disk.
    handle = spawn_service(env=env)
    try:
        client = handle.client()
        assert client.health()["plans"] == 0
        assert client.probability(digest, rows)["marginals"] == expected
        client.close()
    finally:
        shutdown_service(handle)

    # Corrupt the cached blob on disk.
    entries = [path for path in cache_dir.iterdir()
               if path.name.endswith(".plan") and digest in path.name]
    assert entries, f"no plan entry for {digest} in {cache_dir}"
    entries[0].write_bytes(b"\x00corrupted\x00" * 16)

    # Life 3: the corrupt entry is rejected — a clean 404, never a wrong
    # marginal — and re-registering the plan heals the digest.
    handle = spawn_service(env=env)
    try:
        client = handle.client()
        with pytest.raises(ServiceClientError) as excinfo:
            client.probability(digest, rows)
        assert excinfo.value.status == 404
        healed = client.register_plan(compiled.wire_bytes())
        assert healed["digest"] == digest
        assert client.probability(digest, rows)["marginals"] == expected
        client.close()
    finally:
        shutdown_service(handle)


# --------------------------------------------------------------------------- #
# cache stampede on a cold key


def test_stampede_on_cold_key_evaluates_the_row_once():
    compiled, marginals = chain_setup(n=15, seed=43)
    handle = spawn_service()
    try:
        registrar = handle.client()
        digest = registrar.register_compiled(compiled)
        n_clients = 8
        cold_row = unique_rows(1, len(marginals), stable_rng(431))[0]
        results: list = [None] * n_clients
        errors: list = []
        start = threading.Barrier(n_clients)

        def worker(index: int) -> None:
            client = ServiceClient(handle.address)
            try:
                start.wait(timeout=10.0)
                results[index] = client.probability(
                    digest, [cold_row], peers=n_clients
                )
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors, errors
        expected = float(direct_marginals(compiled, [cold_row])[0])
        for response in results:
            assert response["marginals"] == [expected]
        stats = registrar.stats()["coalescer"]
        assert stats["rows_evaluated"] == 1, (
            "a stampede on one cold valuation must evaluate it exactly once"
        )
        assert stats["passes"] == 1
        registrar.close()
    finally:
        shutdown_service(handle)


# --------------------------------------------------------------------------- #
# client disconnect mid-stream


def test_client_disconnect_mid_stream_cancels_the_run():
    compiled, marginals = chain_setup(n=15, seed=44)
    handle = spawn_service()
    try:
        client = handle.client()
        digest = client.register_compiled(compiled)
        # Far more chunks than we will read: the stream would run for a
        # long time if the disconnect were not detected.
        stream = client.sample(
            digest, marginals, samples=100_000_000, chunk=1024, seed=0
        )
        seen = [next(stream) for _ in range(3)]
        assert [u["samples"] for u in seen] == [1024, 2048, 3072]
        client.close()  # hard disconnect mid-stream

        checker = handle.client()
        deadline = time.monotonic() + 15.0
        streams = None
        while time.monotonic() < deadline:
            streams = checker.stats()["streams"]
            if streams["cancelled"] >= 1 and streams["active"] == 0:
                break
            time.sleep(0.05)
        assert streams is not None
        assert streams["cancelled"] >= 1, f"stream never cancelled: {streams}"
        assert streams["active"] == 0, f"stream still running: {streams}"
        assert streams["completed"] == 0

        # The service keeps serving, correctly, after the abort.
        rows = unique_rows(2, len(marginals), stable_rng(441))
        served = checker.probability(digest, rows)
        expected = [float(v) for v in direct_marginals(compiled, rows)]
        assert served["marginals"] == expected
        checker.close()
    finally:
        shutdown_service(handle)


def test_service_hung_before_printing_is_killed_at_the_deadline(hung_startup):
    """``startup_timeout`` holds even when the child never prints."""
    directory, child_pid = hung_startup
    started = time.monotonic()
    with pytest.raises(ReproError, match="service never became ready"):
        spawn_service(startup_timeout=1.5, env={"PYTHONPATH": directory})
    assert time.monotonic() - started < 1.5 + 1.0
    with pytest.raises(ProcessLookupError):
        os.kill(child_pid(), 0)
