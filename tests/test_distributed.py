"""Tests for distributed shard execution over wire-serialized plans.

Four layers, matching :mod:`repro.circuits.distributed`:

- the **wire format** — property-tested round trips (random circuits →
  serialize → deserialize → identical batch results), and rejection of
  corrupted, truncated, wrong-magic, wrong-version and
  inconsistent-schedule payloads, and a stdlib-only decode that pins the
  documented byte layout. These tests need no sockets;
- the **routing knobs** — env parsing, scoping, per-call overrides, and
  the shared-secret knob;
- the **coordinator/worker protocol** — real localhost worker
  subprocesses (spawned through the ``conftest`` lifecycle fixtures):
  bit-identical estimates at 0/1/2 workers, mid-run fault injection with
  shard retry and no duplicate or lost shards, and graceful local
  fallback when every host is unreachable;
- the **persistent runtime** — connection reuse across calls, the
  ``PLAN_OFFER``/``PLAN_HAVE``/``PLAN_NEED`` digest handshake (plan
  crosses the wire once per worker per circuit), HMAC authentication
  (wrong secret rejected, right secret served), heartbeat-detected worker
  bounce with rejoin on the same port, and work stealing keeping a slow
  host from gating the merge while staying bit-identical to the 0-host
  oracle.

Socket tests carry the ``distributed`` marker so socket-free CI jobs can
deselect them.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import config
from repro.circuits import Circuit, compile_circuit
from repro.circuits import compiled as compiled_module
from repro.circuits import distributed, parallel
from repro.util import ReproError, stable_rng


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


def all_worlds(n_vars: int) -> list[list[int]]:
    return [[(mask >> i) & 1 for i in range(n_vars)] for mask in range(1 << n_vars)]


# --------------------------------------------------------------------------- #
# wire format

@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_wire_round_trip_preserves_batch_results(seed):
    """Property: serialize → deserialize → identical evaluation results."""
    compiled = compile_circuit(random_circuit(seed))
    plan = distributed.plan_from_bytes(compiled.wire_bytes())
    assert plan.size == compiled.size
    assert plan.output == compiled.output
    assert plan.kinds.tolist() == list(compiled.kinds)
    assert plan.offsets.tolist() == list(compiled.offsets)
    assert plan.indices.tolist() == list(compiled.indices)
    assert plan.var_slot.tolist() == list(compiled.var_slot)
    worlds = all_worlds(len(compiled.variables()))
    assert plan.run_rows(worlds, as_float=False) == compiled.evaluate_batch(worlds)
    n = len(compiled.variables())
    probs = [0.05 + 0.9 * i / max(1, n) for i in range(n)]
    got = plan.run_rows([probs], as_float=True)[0]
    assert math.isclose(got, compiled.probability(probs), abs_tol=1e-12)


class TestWireFormat:
    def test_wire_bytes_cached_on_compiled_circuit(self):
        compiled = compile_circuit(random_circuit(5))
        assert compiled.wire_bytes() is compiled.wire_bytes()
        assert distributed.plan_to_bytes(compiled) is compiled.wire_bytes()

    @pytest.mark.parametrize(
        "min_gates",
        (0, compiled_module.VECTOR_MIN_GATES),
        ids=("int32-arrays", "python-lists"),
    )
    def test_layout_decodes_with_stdlib_only(self, monkeypatch, min_gates):
        """A plan blob follows ARCHITECTURE.md's layout table exactly.

        Decoded with ``struct``, ``json`` and ``zlib`` alone: magic,
        version, flags, CRC, lengths, the JSON section directory, and
        little-endian int32 sections equal to the compiled arrays — for
        lowerings held as int32 arrays and as python lists alike.
        """
        import json
        import struct
        import zlib

        monkeypatch.setattr(compiled_module, "VECTOR_MIN_GATES", min_gates)
        compiled = compiled_module.CompiledCircuit(random_circuit(13, steps=40))
        assert (compiled._np32 is not None) == (min_gates == 0)
        blob = distributed.plan_to_bytes(compiled)
        magic, version, flags, crc, meta_len, payload_len = struct.unpack_from(
            "<4sHHIIQ", blob
        )
        assert (magic, version, flags) == (b"RCP1", 1, 0)
        assert len(blob) == 24 + meta_len + payload_len
        meta_bytes = blob[24 : 24 + meta_len]
        payload = blob[24 + meta_len :]
        assert zlib.crc32(meta_bytes + payload) == crc
        meta = json.loads(meta_bytes)
        assert (meta["kind"], meta["size"], meta["output"], meta["n_vars"]) == (
            "plan", compiled.size, compiled.output, len(compiled.variables())
        )
        sections = {}
        for name, typecode, offset, nbytes in meta["sections"]:
            assert typecode == "i" and nbytes % 4 == 0
            raw = payload[offset : offset + nbytes]
            sections[name] = list(struct.unpack(f"<{nbytes // 4}i", raw))
        assert sections == {
            "kinds": list(compiled.kinds),
            "offsets": list(compiled.offsets),
            "indices": list(compiled.indices),
            "var_slot": list(compiled.var_slot),
            "levels": list(compiled.levels_list()),
        }

    def test_decoded_sections_are_int32_arrays_over_the_payload(self):
        """A decoded plan keeps its five sections as read-only int32 arrays
        over the blob, which the level plan takes without a list round
        trip."""
        compiled = compile_circuit(random_circuit(7))
        plan = distributed.plan_from_bytes(compiled.wire_bytes())
        for name in ("kinds", "offsets", "indices", "var_slot", "levels"):
            section = getattr(plan, name)
            assert isinstance(section, np.ndarray), name
            assert section.dtype == np.int32, name
            assert not section.flags.writeable, name

    def test_sections_start_aligned(self):
        """The JSON header is padded with spaces and the sections with zero
        bytes, so each section of a plan and of witness tables starts at a
        multiple of 8 in the blob and decodes to an aligned array."""
        import json
        import struct

        plan_blob = compile_circuit(random_circuit(7)).wire_bytes()
        tables_blob = distributed._tables_to_bytes(
            np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.int32),
            [0.5, 0.25, 0.75], [0.125, 0.375, 0.5], 0.5,
        )
        for blob, decode in (
            (plan_blob, distributed.plan_from_bytes),
            (tables_blob, distributed.tables_from_bytes),
        ):
            meta_len = struct.unpack_from("<4sHHIIQ", blob)[4]
            assert (24 + meta_len) % 8 == 0
            sections = json.loads(blob[24 : 24 + meta_len])["sections"]
            assert [offset % 8 for _name, _code, offset, _n in sections] == [
                0
            ] * len(sections)
            decoded = decode(blob)
            for name, *_rest in sections:
                assert getattr(decoded, name).flags.aligned, name

    def test_unpadded_blob_still_decodes(self):
        """Sections are read by offset, so a blob packed without the
        alignment padding, by ``struct``, ``json`` and ``zlib`` alone,
        decodes to the same plan."""
        import json
        import struct
        import zlib

        compiled = compile_circuit(random_circuit(9))
        arrays = {
            "kinds": compiled.kinds,
            "offsets": compiled.offsets,
            "indices": compiled.indices,
            "var_slot": compiled.var_slot,
            "levels": compiled.levels_list(),
        }
        payload = b""
        directory = []
        for name, values in arrays.items():
            raw = struct.pack(f"<{len(values)}i", *(int(v) for v in values))
            directory.append([name, "i", len(payload), len(raw)])
            payload += raw
        n_vars = len(compiled.variables())
        meta = json.dumps(
            {"kind": "plan", "size": compiled.size, "output": compiled.output,
             "n_vars": n_vars, "sections": directory},
            separators=(",", ":"), sort_keys=True,
        ).encode()
        header = struct.pack(
            "<4sHHIIQ", b"RCP1", 1, 0, zlib.crc32(meta + payload),
            len(meta), len(payload),
        )
        plan = distributed.plan_from_bytes(header + meta + payload)
        for name, values in arrays.items():
            assert getattr(plan, name).tolist() == [int(v) for v in values]
        rows = [[0.5] * n_vars, [0.9] * n_vars]
        assert plan.run_rows(rows, as_float=True) == compiled.probability_batch(rows)

    def test_truncated_payload_rejected(self):
        blob = compile_circuit(random_circuit(3)).wire_bytes()
        for cut in (0, 3, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ReproError, match="truncated"):
                distributed.plan_from_bytes(blob[:cut])

    def test_wrong_magic_rejected(self):
        blob = compile_circuit(random_circuit(3)).wire_bytes()
        with pytest.raises(ReproError, match="magic"):
            distributed.plan_from_bytes(b"XXXX" + blob[4:])

    def test_wrong_version_rejected(self):
        blob = compile_circuit(random_circuit(3)).wire_bytes()
        tampered = blob[:4] + bytes([99, 0]) + blob[6:]
        with pytest.raises(ReproError, match="unsupported wire version 99"):
            distributed.plan_from_bytes(tampered)

    def test_corrupted_payload_rejected_by_checksum(self):
        blob = compile_circuit(random_circuit(3)).wire_bytes()
        # Flip one byte in the binary payload (well past the JSON header).
        position = len(blob) - 5
        tampered = blob[:position] + bytes([blob[position] ^ 0xFF]) + blob[position + 1:]
        with pytest.raises(ReproError, match="checksum"):
            distributed.plan_from_bytes(tampered)

    def test_corrupted_metadata_rejected_by_checksum(self):
        blob = compile_circuit(random_circuit(3)).wire_bytes()
        position = distributed._HEADER.size + 2  # inside the JSON header
        tampered = blob[:position] + bytes([blob[position] ^ 0x01]) + blob[position + 1:]
        with pytest.raises(ReproError, match="checksum"):
            distributed.plan_from_bytes(tampered)

    def test_inconsistent_level_schedule_rejected(self):
        """A checksum-valid payload whose schedule lies is still rejected."""
        compiled = compile_circuit(random_circuit(3))
        levels = compiled_module.gate_levels(
            compiled.kinds, compiled.offsets, compiled.indices
        )
        assert max(levels) > 0  # the tamper below must change something
        levels[-1] += 1
        forged = distributed._pack_blob(
            {
                "kind": "plan",
                "size": compiled.size,
                "output": compiled.output,
                "n_vars": len(compiled.variables()),
            },
            [
                ("kinds", "i", compiled.kinds),
                ("offsets", "i", compiled.offsets),
                ("indices", "i", compiled.indices),
                ("var_slot", "i", compiled.var_slot),
                ("levels", "i", levels),
            ],
        )
        with pytest.raises(ReproError, match="level schedule"):
            distributed.plan_from_bytes(forged)

    def test_deep_plan_ships_and_verifies_its_levels(self):
        """A chain of 9,000 levels, lowered on the array path, ships its
        level schedule; the receiver verifies it in one pass whatever the
        depth, runs it like the sender, and rejects one level that lies."""
        c = Circuit()
        gate = c.variable("x0")
        for i in range(1, 9001):
            pair = [gate, c.variable(f"x{i}")]
            gate = c.and_gate(pair) if i % 2 else c.or_gate(pair)
        c.set_output(gate)
        compiled = compile_circuit(c)
        assert compiled._np32 is not None
        plan = distributed.plan_from_bytes(compiled.wire_bytes())
        assert list(plan.levels) == compiled.levels_list()
        assert max(plan.levels) == 9000
        rows = [[0.5] * len(compiled.variables()), [0.9] * len(compiled.variables())]
        assert plan.run_rows(rows, as_float=True) == compiled.probability_batch(rows)
        levels = compiled.levels_list()
        levels[compiled.size // 2] += 1
        forged = distributed._pack_blob(
            {
                "kind": "plan",
                "size": compiled.size,
                "output": compiled.output,
                "n_vars": len(compiled.variables()),
            },
            [
                ("kinds", "i", compiled.kinds),
                ("offsets", "i", compiled.offsets),
                ("indices", "i", compiled.indices),
                ("var_slot", "i", compiled.var_slot),
                ("levels", "i", levels),
            ],
        )
        with pytest.raises(ReproError, match="level schedule"):
            distributed.plan_from_bytes(forged)

    def test_non_plan_payload_rejected(self):
        tables = distributed._tables_to_bytes(
            np.array([[1, 0]], dtype=np.int32), [0.5, 0.5], [0.5], 0.5
        )
        with pytest.raises(ReproError, match="not a circuit plan"):
            distributed.plan_from_bytes(tables)

    def test_checksum_identifies_payloads(self):
        a = compile_circuit(random_circuit(3)).wire_bytes()
        b = compile_circuit(random_circuit(4)).wire_bytes()
        assert distributed.plan_checksum(a) == distributed.plan_checksum(a)
        assert distributed.plan_checksum(a) != distributed.plan_checksum(b)


# --------------------------------------------------------------------------- #
# routing knob

class TestHostsKnob:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISTRIBUTED_HOSTS", "h1:7001, h2:7002")
        assert config.get("distributed_hosts") == ("h1:7001", "h2:7002")
        monkeypatch.setenv("REPRO_DISTRIBUTED_HOSTS", "")
        assert config.get("distributed_hosts") == ()
        monkeypatch.setenv("REPRO_DISTRIBUTED_HOSTS", "not-a-hostport")
        assert config.get("distributed_hosts") == ()

    def test_set_and_scope(self):
        with config.overrides(distributed_hosts="a:1,b:2"):
            assert config.get("distributed_hosts") == ("a:1", "b:2")
            with config.overrides(distributed_hosts=None):
                assert config.get("distributed_hosts") == ()
            assert config.get("distributed_hosts") == ("a:1", "b:2")

    def test_rejects_malformed_hosts(self):
        with pytest.raises(ReproError, match="host:port"):
            config.configure(distributed_hosts=["nohost"])
        with pytest.raises(ReproError, match="port"):
            config.configure(distributed_hosts=["h:notaport"])
        with pytest.raises(ReproError, match="port"):
            config.configure(distributed_hosts=["h:99999"])

    def test_effective_hosts_override_semantics(self):
        # Under an env-armed registry (the CI distributed job) ambient
        # REGISTERed workers legitimately extend the default host list,
        # so assert the knob's contribution, not an exact tuple.
        elastic = distributed.registered_hosts()
        with config.overrides(distributed_hosts="a:1"):
            assert distributed.effective_hosts(None) == tuple(
                dict.fromkeys(("a:1",) + elastic)
            )
            assert distributed.effective_hosts(()) == ()  # explicit opt-out
            # An explicit per-call list is verbatim — never extended.
            assert distributed.effective_hosts("b:2") == ("b:2",)

    def test_should_distribute_thresholds(self, monkeypatch):
        # Neutralize ambient elastic members (the CI distributed job keeps
        # a REGISTERed worker around): this test is about the row
        # threshold and the truly-unconfigured default.
        monkeypatch.setattr(distributed, "registered_hosts", lambda: ())
        with config.overrides(distributed_hosts="a:1"):
            assert distributed.should_distribute(parallel.PARALLEL_MIN_ROWS)
            assert not distributed.should_distribute(parallel.PARALLEL_MIN_ROWS - 1)
        with config.overrides(distributed_hosts=None):
            assert not distributed.should_distribute(10**6)

    def test_no_hosts_defers_to_parallel_entry_points(self):
        compiled = compile_circuit(random_circuit(21))
        marginals = [0.3] * len(compiled.variables())
        with config.overrides(distributed_hosts=None):
            assert distributed.monte_carlo_hits(
                compiled, marginals, 500, seed=1
            ) == parallel.monte_carlo_hits(compiled, marginals, 500, seed=1, workers=0)

    def test_entry_points_take_a_circuit_or_its_compiled_form(self, monkeypatch):
        """With no hosts, every sampling and matrix entry point of both
        stages answers the same for a raw ``Circuit`` as for its
        ``compile_circuit``, through the pool and in-process alike."""
        monkeypatch.setattr(distributed, "registered_hosts", lambda: ())
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        circuit = Circuit()
        circuit.set_output(
            circuit.and_gate([circuit.variable("x"), circuit.variable("y")])
        )
        worlds = np.array([[1, 1], [1, 0], [0, 1]], dtype=bool)
        rows = np.array([[0.5, 0.5], [0.25, 1.0], [0.0, 0.5]])
        entry_points = [
            lambda c, w: parallel.monte_carlo_hits(
                c, [0.5, 0.5], 300, seed=1, workers=w
            ),
            lambda c, w: parallel.evaluate_batch_sharded(
                c, worlds, workers=w
            ).tolist(),
            lambda c, w: parallel.probability_batch_sharded(
                c, rows, workers=w
            ).tolist(),
            lambda c, w: distributed.monte_carlo_hits(
                c, [0.5, 0.5], 300, seed=1, hosts=(), workers=w
            ),
            lambda c, w: distributed.evaluate_batch_distributed(
                c, worlds, hosts=()
            ).tolist(),
            lambda c, w: distributed.probability_batch_distributed(
                c, rows, hosts=()
            ).tolist(),
        ]
        with config.overrides(distributed_hosts=None):
            for workers in (0, 2):
                for call in entry_points:
                    assert call(circuit, workers) == call(
                        compile_circuit(circuit), workers
                    )
        parallel.shutdown_pool()


class TestSamplingInputs:
    """The hosts= entry points check their input before anything ships."""

    HOSTS = ("127.0.0.1:9",)  # never dialled: the checks come first

    @staticmethod
    def two_pairs():
        c = Circuit()
        vs = [c.variable(f"v{i}") for i in range(4)]
        c.set_output(c.or_gate([c.and_gate(vs[:2]), c.and_gate(vs[2:])]))
        return compile_circuit(c)

    @pytest.mark.parametrize(
        "marginals, samples, seed, match",
        (
            ([0.5] * 3, 100, 0, "need 4 marginals"),
            ([0.5] * 5, 100, 0, "need 4 marginals"),
            ([0.5] * 4, 100, -1, "seed must be"),
            ([0.5] * 4, True, 0, "samples must be"),
        ),
    )
    def test_monte_carlo_checked_before_shipping(
        self, marginals, samples, seed, match
    ):
        calls = distributed.pool_stats()["calls"]
        with pytest.raises(ReproError, match=match):
            distributed.monte_carlo_hits(
                self.two_pairs(), marginals, samples, seed=seed, hosts=self.HOSTS
            )
        assert distributed.pool_stats()["calls"] == calls

    @pytest.mark.parametrize(
        "probs, weights, seed, match",
        (
            ([0.3, 0.5, 0.2], [0.06, 0.1, 0.06], 0, "need 4 probabilities"),
            ([0.3, 0.5, 0.2, 0.4], [0.06, 0.1], 0, "need 3 weights"),
            ([0.3, 0.5, 0.2, 0.4], [0.06, 0.1, 0.06], -1, "seed must be"),
        ),
    )
    def test_karp_luby_checked_before_shipping(self, probs, weights, seed, match):
        membership = [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]]
        calls = distributed.pool_stats()["calls"]
        with pytest.raises(ReproError, match=match):
            distributed.karp_luby_hits(
                membership, probs, weights, 100, seed=seed, hosts=self.HOSTS
            )
        assert distributed.pool_stats()["calls"] == calls

    def test_wire_plan_checks_the_probabilities_off_the_wire(self):
        compiled = self.two_pairs()
        decoded = distributed.plan_from_bytes(compiled.wire_bytes())
        with pytest.raises(ReproError, match="need 4 marginals"):
            decoded.mc_shard_hits([0.5] * 3, 0, 0, 64)
        with pytest.raises(ReproError, match="seed must be"):
            decoded.mc_shard_hits([0.5] * 4, -1, 0, 64)
        assert decoded.mc_shard_hits([0.5] * 4, 0, 0, 64) == (
            parallel._mc_shard_hits(
                compiled.batch_plan(), np.full(4, 0.5, np.float32), 0, 0, 64
            )
        )


# --------------------------------------------------------------------------- #
# coordinator + real localhost workers

@pytest.mark.distributed
class TestDistributedExecution:
    def test_monte_carlo_bit_identical_at_0_1_2_workers(
        self, worker_factory, monkeypatch
    ):
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(31))
        marginals = [0.2 + 0.1 * (i % 5) for i in range(len(compiled.variables()))]
        serial = parallel.monte_carlo_hits(compiled, marginals, 700, seed=9, workers=0)
        one = worker_factory()
        hits_1 = distributed.monte_carlo_hits(
            compiled, marginals, 700, seed=9, hosts=(one.address,)
        )
        two = worker_factory()
        hits_2 = distributed.monte_carlo_hits(
            compiled, marginals, 700, seed=9, hosts=(one.address, two.address)
        )
        assert serial == hits_1 == hits_2
        # and again through a second serialize/deserialize of the plan
        compiled._wire_cache = None
        assert distributed.monte_carlo_hits(
            compiled, marginals, 700, seed=9, hosts=(one.address, two.address)
        ) == serial

    def test_karp_luby_bit_identical_across_hosts(self, worker_factory, monkeypatch):
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        membership = np.array(
            [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]], dtype=np.int32
        )
        probs = np.array([0.3, 0.5, 0.2, 0.4])
        weights = [0.06, 0.1, 0.06]
        serial = parallel.karp_luby_hits(
            membership, probs, weights, 400, seed=4, workers=0
        )
        worker = worker_factory()
        assert distributed.karp_luby_hits(
            membership, probs, weights, 400, seed=4, hosts=(worker.address,)
        ) == serial

    def test_matrix_passes_bit_identical(self, module_worker):
        compiled = compile_circuit(random_circuit(33))
        n = len(compiled.variables())
        worlds = np.random.default_rng(0).random((500, n)) < 0.5
        serial = compiled.evaluate_batch(worlds)
        dist = distributed.evaluate_batch_distributed(
            compiled, worlds, hosts=(module_worker.address,)
        )
        assert dist.dtype == np.bool_
        assert dist.tolist() == serial
        marginal_rows = np.random.default_rng(1).random((400, n))
        assert distributed.probability_batch_distributed(
            compiled, marginal_rows, hosts=(module_worker.address,)
        ).tolist() == compiled.probability_batch(marginal_rows)

    def test_empty_batch(self, module_worker):
        compiled = compile_circuit(random_circuit(34))
        matrix = np.empty((0, len(compiled.variables())), dtype=bool)
        out = distributed.evaluate_batch_distributed(
            compiled, matrix, hosts=(module_worker.address,)
        )
        assert out.size == 0

    def test_evaluate_batch_routes_through_hosts_knob(self, module_worker):
        compiled = compile_circuit(random_circuit(35))
        n = len(compiled.variables())
        matrix = np.random.default_rng(2).random(
            (parallel.PARALLEL_MIN_ROWS + 17, n)
        ) < 0.5
        with config.overrides(distributed_hosts=()):
            serial = compiled.evaluate_batch(matrix)
        with config.overrides(distributed_hosts=(module_worker.address,)):
            assert compiled.evaluate_batch(matrix) == serial

    def test_sampling_baselines_take_hosts(self, module_worker, monkeypatch):
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
        serial = monte_carlo_probability(
            query, tid, samples=600, seed=1, workers=0, hosts=()
        )
        assert monte_carlo_probability(
            query, tid, samples=600, seed=1, hosts=(module_worker.address,)
        ) == serial
        with config.overrides(distributed_hosts=(module_worker.address,)):
            assert monte_carlo_probability(query, tid, samples=600, seed=1) == serial
        kl_serial = karp_luby_probability(
            query, tid, samples=600, seed=1, workers=0, hosts=()
        )
        assert karp_luby_probability(
            query, tid, samples=600, seed=1, hosts=(module_worker.address,)
        ) == kl_serial

    def test_worker_killed_mid_run_is_retried_without_loss(
        self, worker_factory, monkeypatch
    ):
        """Fault injection: a worker dies mid-run; shards are retried.

        The dying worker crashes (``os._exit``) the moment it is asked to
        run its first task; the coordinator must requeue that shard onto
        the healthy worker. ``_run_distributed`` returns exactly one result
        per shard, each equal to its locally computed value — no shard is
        lost, none is counted twice — and the merged estimate is
        bit-identical to the serial one.
        """
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(36))
        marginals = [0.4] * len(compiled.variables())
        samples = 700  # 11 shards at MC_SHARD=64
        shards = parallel._sample_shards(samples)
        assert len(shards) > 2
        serial = parallel.monte_carlo_hits(
            compiled, marginals, samples, seed=2, workers=0
        )
        dying = worker_factory(max_tasks=0)
        healthy = worker_factory()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            hits = distributed.monte_carlo_hits(
                compiled, marginals, samples, seed=2,
                hosts=(dying.address, healthy.address),
            )
        assert hits == serial
        assert dying.wait_dead() == 17  # really crashed, mid-run
        assert healthy.alive()

    def test_no_duplicate_or_lost_shards_under_fault(
        self, worker_factory, monkeypatch
    ):
        """Every shard is answered exactly once even when a worker dies."""
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(37))
        marginals = [0.5] * len(compiled.variables())
        shards = parallel._sample_shards(640)  # 10 shards
        plan_bytes = compiled.wire_bytes()
        checksum = distributed.plan_checksum(plan_bytes)
        probs_blob = distributed._values_to_bytes("f", marginals)
        decoded = distributed.plan_from_bytes(plan_bytes)
        tasks = [
            (slot, {"id": slot, "op": "mc", "plan": checksum,
                    "stream": distributed.MC_STREAM_CAP,
                    "seed": 2, "index": index, "count": count}, probs_blob)
            for slot, (index, count) in enumerate(shards)
        ]
        local_calls = []

        def run_local(meta):
            local_calls.append(meta["index"])
            probs = distributed._values_from_bytes("f", probs_blob)
            return {"hits": decoded.mc_shard_hits(
                probs, meta["seed"], meta["index"], meta["count"]
            )}, b""

        # The healthy worker is slowed so the dying one is dealt the task
        # it crashes on before the healthy one has drained the queue.
        dying = worker_factory(max_tasks=3)
        healthy = worker_factory(delay=0.05)
        before = distributed.pool_stats()["tasks_completed"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = distributed._run_distributed(
                (dying.address, healthy.address),
                [(distributed.MSG_PLAN, {"checksum": checksum}, plan_bytes)],
                tasks,
                run_local,
            )
        served = distributed.pool_stats()["tasks_completed"] - before
        # The fault path really ran: the workers answered shards, one of
        # them crashed mid-run, and only the rest completed locally.
        assert dying.wait_dead() == 17
        assert served > 0
        assert served + len(local_calls) == len(shards)
        assert len(results) == len(shards)  # exactly one result per shard
        expected = [
            run_local({"seed": 2, "index": index, "count": count})[0]["hits"]
            for index, count in shards
        ]
        assert [int(meta["hits"]) for meta, _blob in results] == expected

    def test_all_workers_unreachable_falls_back_locally(self, unused_tcp_port):
        compiled = compile_circuit(random_circuit(38))
        marginals = [0.35] * len(compiled.variables())
        serial = parallel.monte_carlo_hits(
            compiled, marginals, 500, seed=3, workers=0
        )
        dead = f"127.0.0.1:{unused_tcp_port}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            hits = distributed.monte_carlo_hits(
                compiled, marginals, 500, seed=3, hosts=(dead,)
            )
            # second call: the unreachable-host warning fired once only
            distributed.monte_carlo_hits(
                compiled, marginals, 500, seed=3, hosts=(dead,)
            )
        assert hits == serial
        unreachable = [w for w in caught if "unreachable" in str(w.message)]
        assert len(unreachable) == 1

    def test_local_fallback_decodes_nothing(self, monkeypatch, unused_tcp_port):
        """With every host unreachable, the local shards run the compiled
        circuit's own level plan and the caller's witness tables: no wire
        bytes are decoded back, and the estimates equal the ``workers=0``
        ones bit for bit."""

        def no_decode(_data):
            raise AssertionError("the local fallback decoded its own wire bytes")

        monkeypatch.setattr(distributed, "plan_from_bytes", no_decode)
        monkeypatch.setattr(distributed, "tables_from_bytes", no_decode)
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(39))
        marginals = [0.35] * len(compiled.variables())
        membership = [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]]
        probs, weights = [0.3, 0.5, 0.2, 0.4], [0.06, 0.1, 0.06]
        dead = (f"127.0.0.1:{unused_tcp_port}",)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mc_hits = distributed.monte_carlo_hits(
                compiled, marginals, 500, seed=3, hosts=dead
            )
            kl_hits = distributed.karp_luby_hits(
                membership, probs, weights, 400, seed=4, hosts=dead
            )
        assert mc_hits == parallel.monte_carlo_hits(
            compiled, marginals, 500, seed=3, workers=0
        )
        assert kl_hits == parallel.karp_luby_hits(
            membership, probs, weights, 400, seed=4, workers=0
        )

    def test_usable_from_inside_a_running_event_loop(self, module_worker):
        """An async caller (web handler, notebook) can still distribute.

        ``asyncio.run`` refuses to nest, so the coordinator must detect a
        running loop and coordinate on a private loop in a helper thread —
        with the same bit-identical result.
        """
        import asyncio

        compiled = compile_circuit(random_circuit(40))
        marginals = [0.45] * len(compiled.variables())
        serial = parallel.monte_carlo_hits(
            compiled, marginals, 300, seed=8, workers=0
        )

        async def coordinate_from_coroutine():
            return distributed.monte_carlo_hits(
                compiled, marginals, 300, seed=8, hosts=(module_worker.address,)
            )

        assert asyncio.run(coordinate_from_coroutine()) == serial

    def test_worker_survives_garbage_then_serves(self, worker_factory):
        """A malformed frame drops the connection but not the worker."""
        import socket as socket_module

        worker = worker_factory()
        with socket_module.create_connection(
            ("127.0.0.1", worker.port), timeout=5
        ) as sock:
            sock.sendall(b"\xff\xff\xff\xff garbage that is not a frame")
        compiled = compile_circuit(random_circuit(39))
        marginals = [0.5] * len(compiled.variables())
        serial = parallel.monte_carlo_hits(
            compiled, marginals, 300, seed=7, workers=0
        )
        assert distributed.monte_carlo_hits(
            compiled, marginals, 300, seed=7, hosts=(worker.address,)
        ) == serial
        assert worker.alive()


# --------------------------------------------------------------------------- #
# the persistent runtime: auth, digest handshake, reconnect, stealing

class TestAuthKnob:
    """Socket-free coverage of the shared-secret knob and the HMAC."""

    def test_secret_set_and_scope(self):
        with config.overrides(distributed_secret="hunter2"):
            assert config.get("distributed_secret") == "hunter2"
            with config.overrides(distributed_secret=None):
                assert config.get("distributed_secret") is None
            assert config.get("distributed_secret") == "hunter2"

    def test_empty_secret_clears(self):
        with config.overrides(distributed_secret=""):
            assert config.get("distributed_secret") is None

    def test_auth_response_is_keyed_hmac(self):
        import hashlib
        import hmac

        challenge = "00ff" * 16
        expected = hmac.new(
            b"s3cret", bytes.fromhex(challenge), hashlib.sha256
        ).hexdigest()
        assert distributed.auth_response("s3cret", challenge) == expected
        # a different secret or challenge yields a different MAC
        assert distributed.auth_response("other", challenge) != expected
        assert distributed.auth_response("s3cret", "ab" * 16) != expected


class TestStealQueue:
    def test_steal_queue_caps_each_slot_at_one_run_per_connection(self):
        """Stealing re-runs in-flight slots but can never loop forever."""
        stats = {"steals": 0}
        queue = distributed._StealQueue(2, stats)
        ran_a, ran_b = set(), set()
        assert queue.take(ran_a, now=0.0) == (0, None)
        ran_a.add(0)
        assert queue.take(ran_b, now=0.0) == (1, None)
        ran_b.add(1)
        # Pending is dry: each connection may steal the other's slot once.
        assert queue.take(ran_a, now=1.0) == (1, None)
        ran_a.add(1)
        assert queue.take(ran_b, now=1.0) == (0, None)
        ran_b.add(0)
        assert queue.take(ran_a, now=2.0) == (None, None)
        assert queue.take(ran_b, now=2.0) == (None, None)
        assert stats["steals"] == 2
        # A released slot becomes takeable again, even by a connection that
        # already ran it (it was never answered).
        queue.release(0)
        ran_a.discard(0)
        assert queue.take(ran_a, now=2.0) == (0, None)

    def test_steal_queue_grace_defers_young_inflight_shards(self):
        """A shard younger than min_age is not stolen — the caller is told
        how long to wait; once aged (or released) it becomes stealable,
        oldest first."""
        stats = {"steals": 0}
        queue = distributed._StealQueue(2, stats)
        assert queue.take(set(), now=0.0) == (0, None)
        assert queue.take(set(), now=1.0) == (1, None)
        thief: set[int] = set()
        # Both in flight, both too young for a 5s grace at t=2.
        slot, retry_in = queue.take(thief, now=2.0, min_age=5.0)
        assert slot is None
        assert retry_in == 3.0  # slot 0 (dispatched at t=0) ages out first
        assert stats["steals"] == 0
        # At t=5 slot 0 is 5s old: stealable; slot 1 (4s old) still is not.
        assert queue.take(thief, now=5.0, min_age=5.0) == (0, None)
        assert stats["steals"] == 1


@pytest.mark.distributed
class TestPersistentRuntime:
    def _mc(self, compiled, marginals, hosts, samples=700, seed=9):
        return distributed.monte_carlo_hits(
            compiled, marginals, samples, seed=seed, hosts=hosts
        )

    def test_connection_and_plan_reused_across_calls(
        self, worker_factory
    ):
        """Digest cache hit: call 2..N pay neither connect nor plan bytes."""
        worker = worker_factory()
        compiled = compile_circuit(random_circuit(50))
        marginals = [0.3] * len(compiled.variables())
        serial = parallel.monte_carlo_hits(
            compiled, marginals, 700, seed=9, workers=0
        )
        before = distributed.pool_stats()
        results = [self._mc(compiled, marginals, (worker.address,))
                   for _ in range(3)]
        after = distributed.pool_stats()
        assert results == [serial] * 3
        assert after["connects"] - before["connects"] == 1
        assert after["plans_published"] - before["plans_published"] == 1
        assert after["publishes_skipped"] - before["publishes_skipped"] >= 2

    def test_digest_cache_miss_publishes_each_new_circuit(
        self, worker_factory
    ):
        """Different circuits have different digests: each ships once."""
        worker = worker_factory()
        first = compile_circuit(random_circuit(51))
        second = compile_circuit(random_circuit(52))
        assert first.plan_digest() != second.plan_digest()
        before = distributed.pool_stats()
        for compiled in (first, second, first, second):
            marginals = [0.4] * len(compiled.variables())
            assert self._mc(
                compiled, marginals, (worker.address,)
            ) == parallel.monte_carlo_hits(
                compiled, marginals, 700, seed=9, workers=0
            )
        after = distributed.pool_stats()
        assert after["plans_published"] - before["plans_published"] == 2

    def test_worker_side_cache_answers_plan_have_after_reconnect(
        self, worker_factory
    ):
        """PLAN_HAVE: a reconnect to a live worker re-sends no plan bytes."""
        worker = worker_factory()
        compiled = compile_circuit(random_circuit(53))
        marginals = [0.5] * len(compiled.variables())
        first = self._mc(compiled, marginals, (worker.address,))
        distributed.reset_pool()  # drop the TCP connection, not the worker
        before = distributed.pool_stats()
        second = self._mc(compiled, marginals, (worker.address,))
        after = distributed.pool_stats()
        assert first == second
        assert after["connects"] - before["connects"] == 1
        assert after["reconnects"] - before["reconnects"] == 1
        assert after["plan_cache_hits"] - before["plan_cache_hits"] == 1
        assert after["plans_published"] - before["plans_published"] == 0

    def test_plan_evicted_on_a_connection_is_offered_again(
        self, worker_factory, monkeypatch
    ):
        """More plans than a worker holds per connection: the offer that
        evicts the first plan names it, so running that plan again offers
        it again on the same connection, and the worker serves its shards
        instead of refusing them."""
        monkeypatch.setattr(distributed, "_WARNED", set())  # re-arm warnings
        worker = worker_factory()
        hosts = (worker.address,)
        plans = []
        for width in range(2, distributed._WORKER_CACHE_LIMIT + 5):
            circuit = Circuit()
            circuit.set_output(circuit.or_gate(
                [circuit.variable(f"v{i}") for i in range(width)]))
            plans.append(compile_circuit(circuit))
        assert len({compiled.plan_digest() for compiled in plans}) == len(plans)

        def run(compiled):
            rows = np.random.default_rng(5).random((64, len(compiled.variables())))
            assert distributed.probability_batch_distributed(
                compiled, rows, hosts=hosts
            ).tolist() == compiled.probability_batch(rows)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for compiled in plans:
                run(compiled)
            before = distributed.pool_stats()
            run(plans[0])
            after = distributed.pool_stats()
        assert not caught, [str(w.message) for w in caught]
        assert after["plan_offers"] - before["plan_offers"] == 1
        assert after["publishes_skipped"] == before["publishes_skipped"]
        assert (after["per_host_tasks"][worker.address]
                > before["per_host_tasks"][worker.address])
        assert after["connects"] == before["connects"]

    def test_worker_hung_before_printing_is_killed_at_the_deadline(
        self, hung_startup, monkeypatch
    ):
        """``startup_timeout`` holds even when the child never prints."""
        import os
        import time

        directory, child_pid = hung_startup
        monkeypatch.setenv("PYTHONPATH", directory)
        started = time.monotonic()
        with pytest.raises(ReproError, match="worker never became ready"):
            distributed.spawn_local_worker(startup_timeout=1.5)
        assert time.monotonic() - started < 1.5 + 1.0
        with pytest.raises(ProcessLookupError):
            os.kill(child_pid(), 0)

    def test_wrong_secret_rejected_and_falls_back_locally(self, worker_factory):
        """HMAC rejection: the worker refuses, the call completes locally."""
        worker = worker_factory(secret="right-secret")
        compiled = compile_circuit(random_circuit(54))
        marginals = [0.35] * len(compiled.variables())
        serial = parallel.monte_carlo_hits(
            compiled, marginals, 700, seed=9, workers=0
        )
        before = distributed.pool_stats()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with config.overrides(distributed_secret="wrong-secret"):
                hits = self._mc(compiled, marginals, (worker.address,))
        after = distributed.pool_stats()
        assert hits == serial
        assert after["connects"] == before["connects"]  # handshake refused
        assert any(
            "authentication" in str(w.message) for w in caught
        ), [str(w.message) for w in caught]
        assert worker.alive()  # refusing a bad coordinator is non-fatal

    def test_missing_secret_rejected_too(self, worker_factory):
        worker = worker_factory(secret="right-secret")
        compiled = compile_circuit(random_circuit(55))
        marginals = [0.45] * len(compiled.variables())
        serial = parallel.monte_carlo_hits(
            compiled, marginals, 700, seed=9, workers=0
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with config.overrides(distributed_secret=None):
                assert self._mc(
                    compiled, marginals, (worker.address,)
                ) == serial
        assert any("secret" in str(w.message) for w in caught)

    def test_correct_secret_is_served(self, worker_factory):
        worker = worker_factory(secret="right-secret")
        compiled = compile_circuit(random_circuit(56))
        marginals = [0.55] * len(compiled.variables())
        serial = parallel.monte_carlo_hits(
            compiled, marginals, 700, seed=9, workers=0
        )
        before = distributed.pool_stats()
        with config.overrides(distributed_secret="right-secret"):
            assert self._mc(compiled, marginals, (worker.address,)) == serial
        after = distributed.pool_stats()
        assert after["tasks_completed"] > before["tasks_completed"]

    def test_bounced_worker_rejoins_the_pool(
        self, worker_factory, unused_tcp_port
    ):
        """Kill + relaunch on the same port: heartbeat detects the bounce,
        the pool reconnects, and the digest handshake re-publishes the plan
        the fresh process is missing — with bit-identical results before
        and after."""
        compiled = compile_circuit(random_circuit(57))
        marginals = [0.25] * len(compiled.variables())
        serial = parallel.monte_carlo_hits(
            compiled, marginals, 700, seed=9, workers=0
        )
        first_worker = worker_factory(port=unused_tcp_port)
        assert self._mc(
            compiled, marginals, (first_worker.address,)
        ) == serial
        first_worker.stop()  # bounce: same port, brand-new process
        second_worker = worker_factory(port=unused_tcp_port)
        assert second_worker.address == first_worker.address
        before = distributed.pool_stats()
        assert self._mc(
            compiled, marginals, (second_worker.address,)
        ) == serial
        after = distributed.pool_stats()
        assert after["heartbeat_failures"] - before["heartbeat_failures"] == 1
        assert after["reconnects"] - before["reconnects"] == 1
        # the relaunched process had no plan cache: the plan shipped again
        assert after["plans_published"] - before["plans_published"] == 1

    def test_double_bounce_counts_one_heartbeat_failure_each(
        self, worker_factory, unused_tcp_port
    ):
        """Regression: every bounce costs exactly one ``heartbeat_failures``
        and leaves exactly one live connection in the pool. The failed-PING
        path used to sit outside the accounting try, so a worker whose
        death surfaced as a garbled partial frame (``ReproError``, not a
        socket error) skipped the counter and leaked the dead ``_Conn``;
        the second bounce then double-counted against the stale entry."""
        compiled = compile_circuit(random_circuit(60))
        marginals = [0.3] * len(compiled.variables())
        serial = parallel.monte_carlo_hits(
            compiled, marginals, 700, seed=9, workers=0
        )
        worker = worker_factory(port=unused_tcp_port)
        assert self._mc(compiled, marginals, (worker.address,)) == serial
        for bounce in (1, 2):
            worker.stop()
            worker = worker_factory(port=unused_tcp_port)
            before = distributed.pool_stats()
            assert self._mc(compiled, marginals, (worker.address,)) == serial
            after = distributed.pool_stats()
            assert after["heartbeat_failures"] - before["heartbeat_failures"] == 1
            assert after["reconnects"] - before["reconnects"] == 1
            # the pooled connection is the fresh process, not a leaked one
            conn = distributed._HOST_POOL._conns[worker.address]
            assert conn.pid == worker.process.pid

    def test_interpreter_exit_after_distributed_use_is_quiet(self, tmp_path):
        """The atexit ``close_pool`` must stay silent and exception-free
        even when the daemon loop thread is already gone — a process that
        used the distributed runtime exits with code 0 and zero stderr."""
        import subprocess
        import sys
        from pathlib import Path

        import repro

        package_root = str(Path(repro.__file__).resolve().parents[1])
        script = tmp_path / "exit_clean.py"
        script.write_text(
            "from repro.circuits import distributed\n"
            "# spin the pool loop thread + registry up for real\n"
            "distributed.start_registry()\n"
            "distributed._HOST_POOL.admit('127.0.0.1:19997')\n"
            "assert distributed.registered_hosts() == ('127.0.0.1:19997',)\n"
            "# explicit close is idempotent ...\n"
            "distributed.close_pool()\n"
            "distributed.close_pool()\n"
            "# ... and the atexit close finds the loop thread already dead\n"
            "distributed._HOST_POOL.admit('127.0.0.1:19996')\n"
            "loop = distributed._HOST_POOL._loop\n"
            "loop.call_soon_threadsafe(loop.stop)\n"
            "distributed._HOST_POOL._thread.join(10)\n"
            "print('still-here')\n"
        )
        result = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            timeout=60, env={**__import__('os').environ,
                             "PYTHONPATH": package_root},
        )
        assert result.returncode == 0, result.stderr
        assert "still-here" in result.stdout
        assert result.stderr == ""

    def test_slow_worker_does_not_gate_the_merge(
        self, worker_factory, monkeypatch
    ):
        """Work stealing: a deliberately slow host is out-pulled by the
        fast one (and its in-flight tail stolen), while the merged estimate
        stays bit-identical to the 0-host oracle."""
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(58))
        marginals = [0.4] * len(compiled.variables())
        samples = 64 * 10
        serial = parallel.monte_carlo_hits(
            compiled, marginals, samples, seed=6, workers=0
        )
        slow = worker_factory(delay=0.3)
        fast = worker_factory()
        before = distributed.pool_stats()
        hits = distributed.monte_carlo_hits(
            compiled, marginals, samples, seed=6,
            hosts=(slow.address, fast.address),
        )
        after = distributed.pool_stats()
        assert hits == serial
        slow_tasks = (
            after["per_host_tasks"].get(slow.address, 0)
            - before["per_host_tasks"].get(slow.address, 0)
        )
        fast_tasks = (
            after["per_host_tasks"].get(fast.address, 0)
            - before["per_host_tasks"].get(fast.address, 0)
        )
        assert fast_tasks > slow_tasks
        assert slow_tasks + fast_tasks == 10  # every shard answered once

    def test_matrix_pass_shards_finely_for_stealing(self, module_worker):
        """Matrix passes cut more shards than hosts so stealing has slack,
        without changing the merged rows."""
        compiled = compile_circuit(random_circuit(59))
        n = len(compiled.variables())
        worlds = np.random.default_rng(3).random((600, n)) < 0.5
        serial = compiled.evaluate_batch(worlds)
        before = distributed.pool_stats()
        dist = distributed.evaluate_batch_distributed(
            compiled, worlds, hosts=(module_worker.address,)
        )
        after = distributed.pool_stats()
        assert dist.tolist() == serial
        assert (
            after["tasks_completed"] - before["tasks_completed"]
            == distributed.STEAL_SHARDS_PER_HOST
        )
