"""Tests for the sharded multi-process batch evaluation subsystem.

Covers the satellite checklist for :mod:`repro.circuits.parallel`: shared-
memory lifecycle (no leaked segments after crashes, errors or garbage
collection), pool reuse across calls, and bit-identical results between the
serial path and 1/2/4 workers for fixed seeds. Worker counts above the
machine's core count are still exercised — determinism must not depend on
parallel hardware, only wall-clock does.
"""

import gc
import os
import signal
import time

import numpy as np
import pytest

from repro.circuits import Circuit, compile_circuit
from repro.circuits import compiled as compiled_module
from repro.circuits import parallel
from repro.util import ReproError, stable_rng

pytestmark = pytest.mark.skipif(
    not parallel.parallel_available(), reason="shared memory unavailable"
)


def shm_segments() -> list[str]:
    """Our shared-memory segments as the OS sees them (Linux/CI)."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-POSIX-shm host
        return []
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith("repro-"))


@pytest.fixture(autouse=True)
def torn_down_pool():
    """Each test ends with the pool stopped and no segment left behind."""
    yield
    parallel.shutdown()
    assert parallel.active_segments() == ()
    assert shm_segments() == []


def random_circuit(seed: int, n_vars: int = 6, steps: int = 16) -> Circuit:
    rng = stable_rng(seed)
    c = Circuit()
    gates = [c.variable(f"v{i}") for i in range(n_vars)] + [c.true(), c.false()]
    for _ in range(rng.randint(4, steps)):
        op = rng.choice(["and", "or", "not"])
        if op == "not":
            gates.append(c.negation(rng.choice(gates)))
        else:
            picked = rng.sample(gates, rng.randint(2, min(4, len(gates))))
            gates.append(c.and_gate(picked) if op == "and" else c.or_gate(picked))
    c.set_output(gates[-1])
    return c


def world_matrix(compiled, rows: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return rng.random((rows, len(compiled.variables()))) < 0.5


class TestKnob:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "3")
        assert parallel._workers_from_env() == 3
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "auto")
        assert parallel._workers_from_env() == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "junk")
        assert parallel._workers_from_env() == 0
        monkeypatch.delenv("REPRO_PARALLEL_WORKERS")
        assert parallel._workers_from_env() == 0

    def test_set_and_scope(self):
        before = parallel.parallel_workers()
        with parallel.parallel_workers_set(5):
            assert parallel.parallel_workers() == 5
            with parallel.parallel_workers_set(None):
                assert parallel.parallel_workers() == 0
        assert parallel.parallel_workers() == before

    def test_rejects_negative(self):
        with pytest.raises(ReproError):
            parallel.set_parallel_workers(-1)

    def test_should_shard_thresholds(self):
        with parallel.parallel_workers_set(2):
            assert parallel.should_shard(parallel.PARALLEL_MIN_ROWS)
            assert not parallel.should_shard(parallel.PARALLEL_MIN_ROWS - 1)
        with parallel.parallel_workers_set(1):
            assert not parallel.should_shard(10**6)
            # A per-call worker count overrides the knob, both ways.
            assert parallel._effective_workers(4) == 4
            assert parallel.should_shard(10**6, workers=4)
        with parallel.parallel_workers_set(4):
            assert not parallel.should_shard(10**6, workers=1)

    def test_unavailable_without_shared_memory(self, monkeypatch):
        monkeypatch.setattr(parallel, "_shm", None)
        assert not parallel.parallel_available()
        assert parallel._effective_workers(4) == 0
        assert not parallel.should_shard(10**6, workers=4)


class TestSharedBuffers:
    def test_roundtrip_and_attach(self):
        arrays = {
            "a": np.arange(7, dtype=np.int32),
            "b": np.linspace(0.0, 1.0, 5),
            "out": ((3,), np.bool_),
        }
        buffers = parallel.SharedBuffers(arrays, meta={"tag": 42})
        try:
            assert buffers.shm.name in parallel.active_segments()
            shm, meta, views = parallel.SharedBuffers.attach(buffers.manifest)
            assert meta["tag"] == 42
            assert np.array_equal(views["a"], np.arange(7))
            assert np.allclose(views["b"], np.linspace(0.0, 1.0, 5))
            views["out"][:] = True  # attached view writes land in the segment
            views = None
            shm.close()
            assert buffers.arrays["out"].all()
        finally:
            buffers.close()
        assert buffers.shm.name not in parallel.active_segments()
        buffers.close()  # idempotent

    def test_plan_segment_unlinked_on_circuit_gc(self):
        compiled = compile_circuit(random_circuit(3))
        name = parallel._plan_handle(compiled).shm.name
        assert parallel._plan_handle(compiled).shm.name == name  # cached
        assert name in parallel.active_segments()
        del compiled
        gc.collect()
        assert name not in parallel.active_segments()
        assert name not in shm_segments()


class TestShardedMatrixPasses:
    # Bit-identical agreement of the sharded passes with the in-process
    # kernels (at 0/1/2/4 workers, over the whole scenario corpus) lives in
    # the cross-engine conformance matrix (tests/test_conformance.py);
    # this class keeps the pool-specific routing and failure behaviour.

    def test_empty_batch(self):
        compiled = compile_circuit(random_circuit(13))
        matrix = np.empty((0, len(compiled.variables())), dtype=bool)
        assert parallel.evaluate_batch_sharded(compiled, matrix, workers=2).size == 0

    def test_wrong_width_rejected(self):
        compiled = compile_circuit(random_circuit(14))
        with pytest.raises(ReproError, match="world matrix"):
            parallel.evaluate_batch_sharded(
                compiled, np.zeros((4, len(compiled.variables()) + 1), dtype=bool),
                workers=2,
            )

    def test_evaluate_batch_routes_through_pool(self, monkeypatch):
        from repro.circuits import distributed

        compiled = compile_circuit(random_circuit(15))
        matrix = world_matrix(compiled, parallel.PARALLEL_MIN_ROWS + 17)
        # Pin the distributed knob off: it outranks the pool, and this test
        # asserts specifically that the *pool* tier handled the batch.
        # Elastic members extend the empty default (the CI distributed job
        # keeps one REGISTERed worker around), so neutralize those too.
        monkeypatch.setattr(distributed, "registered_hosts", lambda: ())
        with distributed.distributed_hosts_set(()):
            serial = compiled.evaluate_batch(matrix)
            with parallel.parallel_workers_set(2):
                assert compiled.evaluate_batch(matrix) == serial
                assert parallel.pool_processes() != ()  # really went through the pool
            float_matrix = np.random.default_rng(2).random(matrix.shape)
            serial_probs = compiled.probability_batch(float_matrix)
            with parallel.parallel_workers_set(2):
                assert compiled.probability_batch(float_matrix) == serial_probs


class TestFusedSampling:
    def test_monte_carlo_identical_across_worker_counts(self, monkeypatch):
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(21))
        marginals = [0.2 + 0.1 * (i % 5) for i in range(len(compiled.variables()))]
        hits = {
            workers: parallel.monte_carlo_hits(
                compiled, marginals, samples=500, seed=9, workers=workers
            )
            for workers in (0, 1, 2, 4)
        }
        assert len(set(hits.values())) == 1
        # and deterministic across repeated calls with a reused pool
        assert hits[2] == parallel.monte_carlo_hits(
            compiled, marginals, samples=500, seed=9, workers=2
        )

    @pytest.mark.parametrize("width", (5, 6, 7))
    def test_chunked_draws_equal_one_whole_matrix_draw(self, monkeypatch, width):
        """Each kernel chunk draws its rows in turn from the shard's
        generator; the hits equal those of one ``(count, width)`` float32
        draw compared with the marginals, including marginals at the edges
        of the integer thresholds the shard compares raw outputs with."""
        c = Circuit()
        vs = [c.variable(f"v{i}") for i in range(width)]
        c.set_output(c.or_gate([c.and_gate(vs[: width // 2 + 1]),
                                c.and_gate(vs[width // 2 :])]))
        compiled = compile_circuit(c)
        assert len(compiled.variables()) == width
        plan = compiled.batch_plan()
        edges = (0.0, 2.0**-149, 2.0**-24, 0.5, 1 - 2.0**-24, 1.0)
        marginal_sets = (
            [0.55 + 0.05 * (i % 7) for i in range(width)],
            [edges[i % len(edges)] for i in range(width)],
            [edges[-1 - i % len(edges)] for i in range(width)],
            # Outside [0, 1] the float test still decides; so must the shard.
            [(1.5, -0.5, float("nan"), float("inf"))[i % 4] for i in range(width)],
        )
        # One 64-world word per kernel chunk, or whole shards per chunk.
        budgets = (8 * plan.size, compiled_module.BATCH_BYTE_BUDGET)
        monkeypatch.setattr(compiled_module, "BATCH_BYTE_BUDGET", budgets[0])
        assert plan.chunk_rows(as_float=False) == 64
        for marginals in marginal_sets:
            probs32 = np.asarray(marginals, dtype=np.float32)
            # Random draws almost never land on a threshold, so probe the
            # integer test at the boundary outputs against numpy's float32
            # draw of a 32-bit output u, (u >> 8) * 2**-24.
            limits, never = parallel._mc_limits(probs32)
            for i, p in enumerate(probs32):
                limit = int(limits[i])
                for u in {0, limit, min(limit + 1, 2**32 - 1), 2**32 - 1}:
                    holds = u <= limit and i not in never
                    assert holds == (np.float32((u >> 8) * 2.0**-24) < p)
            for seed in (0, 1, 17):
                for count in (1, 3, 7, 50, 63, 64, 65, 200):
                    rng = np.random.default_rng((seed, 2))
                    draws = rng.random((count, width), dtype=np.float32)
                    worlds = draws < probs32
                    whole = sum(compiled.evaluate(w) for w in worlds.tolist())
                    # Whole-chunk draws, then 8-world draws staged a word
                    # at a time, as at 10⁶ variables.
                    for budget in budgets:
                        for draw_bytes in (1 << 25, 32 * width):
                            monkeypatch.setattr(
                                compiled_module, "BATCH_BYTE_BUDGET", budget
                            )
                            monkeypatch.setattr(
                                parallel, "_DRAW_BYTES", draw_bytes
                            )
                            assert parallel._mc_shard_hits(
                                plan, probs32, seed, 2, count
                            ) == whole

    @pytest.mark.parametrize("width", (5, 7))
    def test_karp_luby_chunked_draws_equal_one_whole_matrix_draw(
        self, monkeypatch, width
    ):
        """The Karp–Luby shard draws its world rows chunk by chunk after
        the witness picks; the hits equal those of one whole draw."""
        membership = np.array(
            [[(i + k) % 3 == 0 for i in range(width)] for k in range(3)],
            dtype=np.int32,
        )
        sizes = membership.sum(axis=1, dtype=np.int32)
        probs = np.array([0.2 + 0.1 * (i % 6) for i in range(width)])
        cumulative = np.cumsum([0.06, 0.1, 0.03])
        total = float(cumulative[-1])

        def whole_draw(seed, count):
            rng = np.random.default_rng((seed, 3))
            chosen = np.searchsorted(cumulative, rng.random(count) * total)
            chosen = np.minimum(chosen, len(cumulative) - 1)
            worlds = rng.random((count, width)) < probs
            worlds |= membership[chosen].astype(bool)
            contained = worlds.astype(np.int32) @ membership.T == sizes
            return int(np.count_nonzero(contained.argmax(axis=1) == chosen))

        # Four trials per chunk: 8 bytes per fact, width facts per row.
        monkeypatch.setattr(compiled_module, "BATCH_BYTE_BUDGET", 4 * 8 * width)
        for seed in (0, 1, 17):
            for count in (1, 3, 7, 50):
                assert parallel._kl_shard_hits(
                    membership, sizes, probs, cumulative, total,
                    seed, 3, count,
                ) == whole_draw(seed, count)

    def test_karp_luby_identical_across_worker_counts(self, monkeypatch):
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        membership = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]], dtype=np.int32)
        probs = np.array([0.3, 0.5, 0.2, 0.4])
        weights = [0.06, 0.1, 0.06]
        hits = {
            workers: parallel.karp_luby_hits(
                membership, probs, weights, samples=400, seed=4, workers=workers
            )
            for workers in (0, 2, 4)
        }
        assert len(set(hits.values())) == 1

    def test_baselines_respect_workers_argument_and_knob(self, monkeypatch):
        from repro.baselines import karp_luby_probability, monte_carlo_probability
        from repro.instances import TIDInstance, fact
        from repro.queries import atom, cq, variables

        monkeypatch.setattr(parallel, "MC_SHARD", 128)
        x, y = variables("x", "y")
        query = cq(atom("R", x), atom("S", x, y), atom("T", y))
        tid = TIDInstance(
            {fact("R", 1): 0.6, fact("S", 1, 2): 0.5, fact("T", 2): 0.8,
             fact("R", 3): 0.2, fact("S", 3, 2): 0.7}
        )
        serial = monte_carlo_probability(query, tid, samples=600, seed=1, workers=0)
        assert monte_carlo_probability(query, tid, samples=600, seed=1, workers=2) == serial
        with parallel.parallel_workers_set(2):
            assert monte_carlo_probability(query, tid, samples=600, seed=1) == serial
        kl_serial = karp_luby_probability(query, tid, samples=600, seed=1, workers=0)
        assert karp_luby_probability(query, tid, samples=600, seed=1, workers=2) == kl_serial


class TestPoolLifecycle:
    def test_pool_reused_across_calls(self, monkeypatch):
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(31))
        marginals = [0.5] * len(compiled.variables())
        parallel.monte_carlo_hits(compiled, marginals, 300, seed=0, workers=2)
        pids = parallel.pool_processes()
        assert len(pids) == 2
        parallel.monte_carlo_hits(compiled, marginals, 300, seed=1, workers=2)
        assert parallel.pool_processes() == pids

    def test_pool_rebuilt_after_worker_killed(self, monkeypatch):
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(32))
        marginals = [0.4] * len(compiled.variables())
        before = parallel.monte_carlo_hits(compiled, marginals, 400, seed=2, workers=2)
        pids = parallel.pool_processes()
        os.kill(pids[0], signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and parallel._POOL.alive():
            time.sleep(0.05)
        assert not parallel._POOL.alive()
        # Next call notices the dead worker, rebuilds, and still agrees.
        after = parallel.monte_carlo_hits(compiled, marginals, 400, seed=2, workers=2)
        assert after == before
        assert parallel.pool_processes() != pids

    def test_worker_death_mid_run_raises_and_cleans(self):
        with pytest.raises(ReproError, match="died mid-run"):
            parallel._run_tasks([("exit", ())], workers=2)
        assert parallel.pool_processes() == ()  # pool was shut down
        # Per-call buffers are scoped in ``finally``: a crash while a shared
        # matrix is in flight must not leak its segment.
        compiled = compile_circuit(random_circuit(33))
        matrix = world_matrix(compiled, 300)
        original_run = parallel.WorkerPool.run

        def run_then_die(pool, tasks):
            original_run(pool, tasks)
            raise ReproError("simulated mid-collection failure")

        parallel.WorkerPool.run = run_then_die
        try:
            with pytest.raises(ReproError, match="simulated"):
                parallel.evaluate_batch_sharded(compiled, matrix, workers=2)
        finally:
            parallel.WorkerPool.run = original_run
        assert [n for n in parallel.active_segments()
                if n.startswith(parallel.BUFFER_PREFIX)] == []

    def test_worker_error_propagates_without_killing_pool(self):
        with pytest.raises(ReproError, match="worker failed"):
            parallel._run_tasks([("no-such-kind", ())], workers=2)

    def test_failed_run_does_not_poison_the_next_one(self, monkeypatch):
        # A failing shard makes run() raise while sibling shards are still
        # in flight; their late results must not surface in the next call.
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(34))
        marginals = [0.5] * len(compiled.variables())
        manifest = parallel._plan_handle(compiled).manifest
        probs32 = np.asarray(marginals, dtype=np.float32)
        good = ("mc", (manifest, probs32, 0, 0, 64))
        with pytest.raises(ReproError, match="worker failed"):
            parallel._run_tasks([("no-such-kind", ()), good, good, good], workers=2)
        time.sleep(0.3)  # let the leftover shards finish and enqueue results
        expected = parallel.monte_carlo_hits(compiled, marginals, 300, seed=5, workers=0)
        assert parallel.monte_carlo_hits(
            compiled, marginals, 300, seed=5, workers=2
        ) == expected

    def test_shutdown_is_idempotent(self):
        parallel.shutdown()
        parallel.shutdown()
        assert parallel.pool_processes() == ()


class TestSerialFallbackWarning:
    def test_warns_once_per_process(self, recwarn):
        # A pool that is unavailable on every call must not spam a warning
        # per batch: the latch fires once, then stays quiet until re-armed.
        parallel.reset_serial_fallback_warning()
        parallel.warn_serial_fallback("backend degraded")
        parallel.warn_serial_fallback("backend degraded")
        parallel.warn_serial_fallback("backend degraded again")
        messages = [str(w.message) for w in recwarn.list
                    if "degraded" in str(w.message)]
        assert len(messages) == 1
        assert "once per process" in messages[0]
        parallel.reset_serial_fallback_warning()
        parallel.warn_serial_fallback("backend degraded later")
        assert sum(
            "degraded" in str(w.message) for w in recwarn.list
        ) == 2  # re-armed explicitly: exactly one more

    def test_failing_backend_warns_once_through_evaluate_batch(self, monkeypatch):
        # Route big batches at a pool that always fails: every call must
        # still return correct results, and only the first may warn.
        import warnings as warnings_module

        from repro.circuits import distributed

        compiled = compile_circuit(random_circuit(16))
        matrix = world_matrix(compiled, parallel.PARALLEL_MIN_ROWS + 3)
        # Pin the pool tier on: empty static knob plus no elastic members
        # (the CI distributed job keeps one REGISTERed worker around).
        monkeypatch.setattr(distributed, "registered_hosts", lambda: ())
        with distributed.distributed_hosts_set(()):
            serial = compiled.evaluate_batch(matrix)

            def broken_pass(*_args, **_kwargs):
                raise ReproError("injected pool failure")

            monkeypatch.setattr(parallel, "_sharded_matrix_pass", broken_pass)
            parallel.reset_serial_fallback_warning()
            with parallel.parallel_workers_set(2):
                with warnings_module.catch_warnings(record=True) as caught:
                    warnings_module.simplefilter("always")
                    assert compiled.evaluate_batch(matrix) == serial
                    assert compiled.evaluate_batch(matrix) == serial
        relevant = [w for w in caught if "falling back" in str(w.message)]
        assert len(relevant) == 1
