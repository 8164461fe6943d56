"""Tests for the persistent on-disk plan cache (``plancache.py``).

Four layers:

- **keying** — the arena fingerprint is deterministic across processes
  (two identically built arenas agree) and sensitive to every input that
  changes the lowering (gates, output, variable names);
- **compile-path integration** — a cache hit rebuilds the exact lowering
  without running any lowering pass, misses fall back and store, the
  ``min_gates`` threshold keeps tiny circuits out, and everything stays
  bit-identical to a fresh compile;
- **robustness** — corrupt entries (truncated, bit-flipped, wrong kind)
  are deleted and treated as misses, never trusted; filesystem errors
  degrade to a disabled cache; concurrent writers can never expose a torn
  entry (atomic temp-file + rename); LRU eviction enforces the size bound;
- **distributed handshake** — a freshly bounced worker answers
  ``PLAN_HAVE`` from the shared cache directory so the plan never crosses
  the wire again (socket test, ``distributed`` marker).
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import config
from repro.circuits import Circuit, compile_circuit, plancache
from repro.circuits import compiled as compiled_module
from repro.circuits import distributed, parallel
from repro.util import stable_rng

SRC = Path(__file__).resolve().parents[1] / "src"


def build_circuit(seed: int = 0, n_vars: int = 12, steps: int = 300) -> Circuit:
    """A deterministic medium circuit: same seed → byte-identical arena."""
    rng = stable_rng(seed)
    c = Circuit()
    gates = [c.variable(f"v{i}") for i in range(n_vars)]
    for _ in range(steps):
        op = rng.choice(["and", "or", "not"])
        if op == "not":
            gates.append(c.negation(rng.choice(gates)))
        else:
            picked = rng.sample(gates, rng.randint(2, min(4, len(gates))))
            gates.append(c.and_gate(picked) if op == "and" else c.or_gate(picked))
    c.set_output(c.or_gate([gates[-1], gates[-2]]))
    return c


@pytest.fixture
def cache_dir(tmp_path):
    """An enabled cache directory with no gate-count threshold."""
    directory = tmp_path / "plan-cache"
    with config.overrides(plan_cache_dir=directory, plan_cache_min_gates=0):
        plancache.reset_stats()
        compiled_module.reset_compile_stats()
        yield directory


def assert_same_lowering(left, right):
    assert left.kinds == right.kinds
    assert left.offsets == right.offsets
    assert left.indices == right.indices
    assert left.var_slot == right.var_slot
    assert left.var_names == right.var_names
    assert left.output == right.output
    assert left.size == right.size
    assert left.gate_ids == right.gate_ids
    assert left.levels_list() == right.levels_list()


# --------------------------------------------------------------------------- #
# keying

class TestFingerprint:
    def test_identical_arenas_agree_across_objects(self):
        assert plancache.arena_fingerprint(build_circuit(3)) == (
            plancache.arena_fingerprint(build_circuit(3))
        )

    def test_different_gates_or_output_change_the_key(self):
        base = build_circuit(3)
        other_gates = build_circuit(4)
        assert plancache.arena_fingerprint(base) != (
            plancache.arena_fingerprint(other_gates)
        )
        moved = build_circuit(3)
        moved.set_output(moved.output - 1)
        assert plancache.arena_fingerprint(base) != (
            plancache.arena_fingerprint(moved)
        )

    def test_variable_names_are_part_of_the_key(self):
        a, b = Circuit(), Circuit()
        for c, name in ((a, "x"), (b, "y")):
            v = c.variable(name)
            c.set_output(c.and_gate([v, c.variable("shared")]))
        assert plancache.arena_fingerprint(a) != plancache.arena_fingerprint(b)

    def test_no_output_means_no_key(self):
        c = Circuit()
        c.variable("x")
        assert plancache.arena_fingerprint(c) is None


# --------------------------------------------------------------------------- #
# compile-path integration

class TestCompileIntegration:
    def test_disabled_without_a_directory_no_files_no_lookups(self, tmp_path):
        # Clear any ambient REPRO_PLAN_CACHE_DIR (the CI plan-cache job
        # runs the whole suite with one set): no directory means no IO.
        config.configure(plan_cache_dir=None)
        assert not plancache.enabled()
        plancache.reset_stats()
        compile_circuit(build_circuit(11))
        assert plancache.stats()["stores"] == 0
        assert plancache.stats()["misses"] == 0

    def test_miss_stores_then_hit_skips_lowering(self, cache_dir):
        first = compile_circuit(build_circuit(7))
        assert plancache.stats()["stores"] >= 1
        assert [n for n, _, _ in plancache.entries()
                if n.endswith(plancache.CIRC_SUFFIX)]
        lowerings = compiled_module.compile_stats()["lowerings"]
        second = compile_circuit(build_circuit(7))  # fresh identical arena
        after = compiled_module.compile_stats()
        assert after["lowerings"] == lowerings  # no lowering pass ran
        assert after["disk_cache_hits"] == 1
        assert second is not first
        assert_same_lowering(second, first)

    def test_cache_loaded_plan_evaluates_identically(self, cache_dir):
        first = compile_circuit(build_circuit(8))
        second = compile_circuit(build_circuit(8))
        rng = stable_rng(5)
        worlds = [
            [rng.random() < 0.5 for _ in first.var_names] for _ in range(64)
        ]
        assert second.evaluate_batch(worlds) == first.evaluate_batch(worlds)
        assert second.plan_digest() == first.plan_digest()

    def test_min_gates_threshold_bypasses_tiny_circuits(self, cache_dir):
        config.configure(plan_cache_min_gates=10_000)
        compile_circuit(build_circuit(9))
        assert plancache.stats()["stores"] == 0
        assert plancache.entries() == []

    def test_wire_bytes_written_through_and_verified(self, cache_dir):
        compiled = compile_circuit(build_circuit(10))
        blob = compiled.wire_bytes()
        digest = compiled.plan_digest()
        assert (cache_dir / (digest + plancache.PLAN_SUFFIX)).exists()
        assert plancache.load_plan_blob(digest) == blob

    def test_stale_entry_for_same_fingerprint_never_served_wrong(self, cache_dir):
        """A hit is keyed by content: an edited arena takes a different key."""
        compile_circuit(build_circuit(12))
        edited = build_circuit(12)
        extra = edited.and_gate([edited.output, edited.variable("fresh")])
        edited.set_output(extra)
        lowered = compile_circuit(edited)
        assert compiled_module.compile_stats()["disk_cache_hits"] == 0
        assert "fresh" in lowered.var_names

    @pytest.mark.parametrize("cache_on", [False, True], ids=["off", "on"])
    def test_malformed_limit_variable_breaks_only_an_enabled_cache(
        self, tmp_path, cache_on
    ):
        """The variable is parsed when its knob is read: with the cache off
        a junk limit is never read, so compiling works; with it on, the
        compile that stores (and so evicts) refuses naming the variable."""
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_PLAN_CACHE_LIMIT_BYTES"] = "junk"
        if cache_on:
            env["REPRO_PLAN_CACHE_DIR"] = str(tmp_path / "plans")
            env["REPRO_PLAN_CACHE_MIN_GATES"] = "0"
        code = """
from repro.circuits import compile_circuit
from repro.core import build_lineage
from repro.queries import atom, cq, variables
from repro.util import ReproError
from repro.workloads import rst_chain_tid

x, y = variables("x", "y")
query = cq(atom("R", x), atom("S", x, y), atom("T", y))
try:
    compile_circuit(build_lineage(rst_chain_tid(5).instance, query).circuit)
except ReproError as exc:
    print("refused:", exc)
else:
    print("compiled")
"""
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        if cache_on:
            assert result.stdout.startswith(
                "refused: REPRO_PLAN_CACHE_LIMIT_BYTES='junk'"
            )
        else:
            assert result.stdout == "compiled\n"


# --------------------------------------------------------------------------- #
# robustness

class TestRobustness:
    def test_truncated_circ_entry_dropped_and_recompiled(self, cache_dir):
        first = compile_circuit(build_circuit(21))
        (name,) = [n for n, _, _ in plancache.entries()
                   if n.endswith(plancache.CIRC_SUFFIX)]
        path = cache_dir / name
        path.write_bytes(path.read_bytes()[:40])
        second = compile_circuit(build_circuit(21))
        assert plancache.stats()["corrupt"] >= 1
        assert not path.exists() or path.read_bytes() != b""
        assert_same_lowering(second, first)

    def test_garbage_circ_entry_dropped(self, cache_dir):
        compile_circuit(build_circuit(22))
        (name,) = [n for n, _, _ in plancache.entries()
                   if n.endswith(plancache.CIRC_SUFFIX)]
        (cache_dir / name).write_bytes(b"not a plan at all")
        compiled = compile_circuit(build_circuit(22))
        assert plancache.stats()["corrupt"] >= 1
        assert compiled.evaluate(
            {name: True for name in compiled.var_names}
        ) in (True, False)

    def test_bitflipped_plan_blob_misses_and_deletes(self, cache_dir):
        compiled = compile_circuit(build_circuit(23))
        blob = compiled.wire_bytes()
        digest = compiled.plan_digest()
        path = cache_dir / (digest + plancache.PLAN_SUFFIX)
        damaged = bytearray(blob)
        damaged[len(damaged) // 2] ^= 0xFF
        path.write_bytes(bytes(damaged))
        assert plancache.load_plan_blob(digest) is None
        assert not path.exists()
        assert plancache.stats()["corrupt"] >= 1

    def test_unwritable_directory_degrades_to_disabled(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache dir should be")
        with config.overrides(
            plan_cache_dir=blocker / "cache", plan_cache_min_gates=0
        ):
            plancache.reset_stats()
            compiled = compile_circuit(build_circuit(24))
        assert compiled.size > 0
        assert plancache.stats()["io_errors"] >= 1
        assert plancache.stats()["stores"] == 0

    def test_eviction_keeps_directory_under_the_limit(self, cache_dir):
        sizes = []
        for seed in range(40, 46):
            compile_circuit(build_circuit(seed))
            sizes.append(sum(size for _, size, _ in plancache.entries()))
        config.configure(plan_cache_limit_bytes=sizes[2])
        compile_circuit(build_circuit(46))
        total = sum(size for _, size, _ in plancache.entries())
        assert total <= sizes[2]
        assert plancache.stats()["evictions"] >= 1

    def test_concurrent_writers_never_expose_a_torn_entry(self, cache_dir):
        compiled = compile_circuit(build_circuit(30))
        blob = compiled.wire_bytes()
        digest = compiled.plan_digest()
        errors = []

        def hammer():
            try:
                for _ in range(25):
                    plancache.store_plan_blob(digest, blob)
                    loaded = plancache.load_plan_blob(digest)
                    if loaded is not None and loaded != blob:
                        errors.append("torn read")
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(repr(exc))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert plancache.load_plan_blob(digest) == blob
        leftovers = [
            name for name in os.listdir(cache_dir) if name.startswith(".tmp-")
        ]
        assert leftovers == []


# --------------------------------------------------------------------------- #
# distributed handshake

@pytest.mark.distributed
class TestDistributedHandshake:
    def test_bounced_worker_answers_plan_have_from_disk(
        self, tmp_path, monkeypatch, worker_factory, unused_tcp_port
    ):
        """A brand-new worker process with an empty in-memory cache finds
        the plan on disk during ``PLAN_OFFER`` and the coordinator never
        re-publishes it — the counter that *does* tick without the cache
        (see ``test_bounced_worker_rejoins_the_pool``)."""
        cache = tmp_path / "shared-cache"
        monkeypatch.setenv("REPRO_PLAN_CACHE_DIR", str(cache))
        monkeypatch.setenv("REPRO_PLAN_CACHE_MIN_GATES", "0")
        with config.overrides(plan_cache_dir=cache, plan_cache_min_gates=0):
            compiled = compile_circuit(build_circuit(60))
            marginals = [0.3] * len(compiled.variables())
            serial = parallel.monte_carlo_hits(
                compiled, marginals, 500, seed=9, workers=0
            )
            first_worker = worker_factory(port=unused_tcp_port)
            assert distributed.monte_carlo_hits(
                compiled, marginals, 500, seed=9,
                hosts=(first_worker.address,),
            ) == serial
            first_worker.stop()  # bounce: same port, brand-new process
            second_worker = worker_factory(port=unused_tcp_port)
            before = distributed.pool_stats()
            assert distributed.monte_carlo_hits(
                compiled, marginals, 500, seed=9,
                hosts=(second_worker.address,),
            ) == serial
            after = distributed.pool_stats()
            assert after["reconnects"] - before["reconnects"] == 1
            # the fresh process answered PLAN_HAVE from the shared disk
            # cache: zero plans crossed the wire
            assert after["plans_published"] == before["plans_published"]
            assert after["plan_cache_hits"] - before["plan_cache_hits"] == 1
