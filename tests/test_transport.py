"""Tests for the fleet transport: TLS/mTLS, capability handshake,
shard pipelining, and elastic worker registration.

Four layers, matching the transport additions to
:mod:`repro.circuits.distributed`:

- the **capability handshake** — socket-free unit coverage of
  :func:`negotiate_caps` (legacy caps-less hellos, advisory version ints,
  unknown capabilities, the empty-intersection hard reject), plus live
  mixed-version drills: a "v2" worker (caps-less hello) is driven
  lockstep by this coordinator, and this worker's hello still satisfies
  an old all-or-nothing version check;
- the **auth provider seam** — knob parsing/scoping for the TLS and
  pipeline knobs, the provider resolution order (explicit install > TLS
  knobs > secret > plaintext), and the :class:`TLSAuth` context
  preconditions;
- the **TLS fault drills** — real localhost workers with the committed
  ``tests/certs`` material: server-auth TLS and mutual TLS must be
  bit-identical to the 0-host oracle; an untrusted or expired worker
  certificate is never served (local fallback, warning, no silent
  plaintext retry); a plaintext peer behind a TLS coordinator is only
  retried in plaintext when explicitly allowed;
- **pipelining + elastic membership** — deeper pipelines return the same
  bits as lockstep and as the local oracle; a worker that dials in and
  REGISTERs serves shards with no static host list, and draining it
  returns the pool to local-only execution with identical results.

Socket tests carry the ``distributed`` marker so socket-free CI jobs can
deselect them.
"""

import asyncio
import os
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import config
from repro.circuits import Circuit, compile_circuit
from repro.circuits import distributed, parallel
from repro.util import ReproError, stable_rng
from repro.util.helpers import spawn_until_ready

CERTS = Path(__file__).parent / "certs"


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


class InProcessWorker:
    """A :class:`WorkerServer` on a private loop thread (no subprocess).

    The handshake drills need worker-side hooks (``hello_caps`` /
    ``hello_version``) and a worker whose transport is pinned regardless
    of the ambient ``REPRO_DISTRIBUTED_TLS_*`` environment — neither of
    which the CLI spawn path exposes.
    """

    def __init__(self, **kwargs):
        self.server = distributed.WorkerServer(**kwargs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self._run, name="test-worker-loop", daemon=True
        )
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.server.start(), self.loop).result(10)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    @property
    def address(self) -> str:
        return f"127.0.0.1:{self.server.port}"

    def stop(self):
        async def shut_down():
            await self.server.stop()
            tasks = [
                task for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            for task in tasks:
                task.cancel()
            # Let the cancellations land before the loop stops, or the
            # interpreter logs "Task was destroyed but it is pending".
            await asyncio.gather(*tasks, return_exceptions=True)

        asyncio.run_coroutine_threadsafe(shut_down(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


@pytest.fixture
def inprocess_worker_factory():
    spawned: list[InProcessWorker] = []

    def factory(**kwargs) -> InProcessWorker:
        worker = InProcessWorker(**kwargs)
        spawned.append(worker)
        return worker

    yield factory
    for worker in spawned:
        worker.stop()


@pytest.fixture
def plaintext_provider():
    """Pin the coordinator to the plaintext provider for this test.

    The CI TLS topology arms ``REPRO_DISTRIBUTED_TLS_*`` suite-wide; the
    in-process drill workers are deliberately plaintext, so the
    coordinator must not try TLS against them.
    """
    with config.overrides(auth_provider=distributed.AuthProvider()):
        yield


def wait_until(predicate, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


# --------------------------------------------------------------------------- #
# capability negotiation (socket-free)

class TestNegotiateCaps:
    def test_legacy_capsless_hello_grants_the_v2_baseline(self):
        shared = distributed.negotiate_caps(
            {"version": distributed.PROTOCOL_VERSION}, "worker x"
        )
        assert shared == distributed.V2_BASELINE_CAPS
        assert "pipeline" not in shared and "register" not in shared

    def test_legacy_hello_with_wrong_version_hard_rejects(self):
        with pytest.raises(ReproError, match="speaks protocol 99"):
            distributed.negotiate_caps({"version": 99}, "worker x")
        with pytest.raises(ReproError, match="speaks protocol None"):
            distributed.negotiate_caps({}, "worker x")

    def test_caps_hello_makes_the_version_int_advisory(self):
        shared = distributed.negotiate_caps(
            {"version": 99, "caps": sorted(distributed.PROTOCOL_CAPS)}, "worker x"
        )
        assert shared == distributed.PROTOCOL_CAPS

    def test_unknown_future_caps_are_ignored(self):
        shared = distributed.negotiate_caps(
            {"version": 4, "caps": ["caps", "mc", "eval", "quantum-teleport"]},
            "worker x",
        )
        assert shared == frozenset({"caps", "mc", "eval"})

    def test_empty_intersection_hard_rejects(self):
        with pytest.raises(ReproError, match="shares no protocol capabilities"):
            distributed.negotiate_caps({"version": 4, "caps": ["warp"]}, "w")
        # "caps" alone means "I can negotiate but do nothing": also reject.
        with pytest.raises(ReproError, match="shares no protocol capabilities"):
            distributed.negotiate_caps({"version": 4, "caps": ["caps"]}, "w")

    def test_protocol_version_is_frozen(self):
        """The version int stays 2 forever — compat rides on ``caps``."""
        assert distributed.PROTOCOL_VERSION == 2
        assert distributed.V2_BASELINE_CAPS < distributed.PROTOCOL_CAPS

    def test_our_hello_satisfies_an_old_all_or_nothing_coordinator(self):
        """The v3→v2 direction: an old coordinator checked exactly
        ``meta["version"] == 2`` and ignored unknown keys, so this build's
        worker hello must still carry the legacy version int."""
        server = distributed.WorkerServer()
        hello = server._hello_meta()
        assert hello["version"] == 2  # what the old check compared against
        assert set(hello["caps"]) == distributed.PROTOCOL_CAPS


# --------------------------------------------------------------------------- #
# knobs + provider resolution (socket-free)

class TestTLSKnob:
    def test_set_and_scope(self):
        with config.overrides(distributed_tls={"cafile": "ca.pem"}):
            assert config.get("distributed_tls")["cafile"] == "ca.pem"
            with config.overrides(distributed_tls=None):
                assert config.get("distributed_tls") is None
            assert config.get("distributed_tls")["cafile"] == "ca.pem"

    def test_env_parsing(self, monkeypatch):
        for name in ("CERT", "KEY", "CA", "ALLOW_PLAINTEXT"):
            monkeypatch.delenv(f"REPRO_DISTRIBUTED_TLS_{name}", raising=False)
        assert config.get("distributed_tls") is None
        monkeypatch.setenv("REPRO_DISTRIBUTED_TLS_CA", "/tmp/ca.pem")
        parsed = config.get("distributed_tls")
        assert parsed["cafile"] == "/tmp/ca.pem"
        assert parsed["certfile"] is None
        assert parsed["allow_plaintext"] is False
        monkeypatch.setenv("REPRO_DISTRIBUTED_TLS_ALLOW_PLAINTEXT", "1")
        assert config.get("distributed_tls")["allow_plaintext"] is True
        monkeypatch.setenv("REPRO_DISTRIBUTED_TLS_ALLOW_PLAINTEXT", "false")
        assert config.get("distributed_tls")["allow_plaintext"] is False

    def test_provider_resolution_order(self):
        with config.overrides(auth_provider=None), \
                config.overrides(distributed_tls=None), \
                config.overrides(distributed_secret=None):
            assert distributed.auth_provider().name == "plaintext"
            with config.overrides(distributed_secret="s3cret"):
                assert distributed.auth_provider().name == "hmac"
                with config.overrides(distributed_tls={"cafile": "ca.pem"}):
                    assert distributed.auth_provider().name == "tls"
                    custom = distributed.HMACAuth("other")
                    with config.overrides(auth_provider=custom):
                        assert distributed.auth_provider() is custom

    def test_tls_provider_cached_per_config(self):
        with config.overrides(auth_provider=None):
            with config.overrides(distributed_tls={"cafile": "a.pem"}):
                first = distributed.auth_provider()
                assert first is distributed.auth_provider()
            with config.overrides(distributed_tls={"cafile": "b.pem"}):
                assert distributed.auth_provider() is not first

    def test_provider_names(self):
        assert distributed.AuthProvider().name == "plaintext"
        assert distributed.HMACAuth("x").name == "hmac"
        assert distributed.TLSAuth(cafile="ca.pem").name == "tls"
        assert distributed.TLSAuth(
            certfile="c.pem", keyfile="k.pem", cafile="ca.pem"
        ).name == "mtls"

    def test_client_context_requires_a_ca_bundle(self):
        with pytest.raises(ReproError, match="CA bundle"):
            distributed.TLSAuth(certfile=str(CERTS / "client.pem")).client_ssl()

    def test_server_context_requires_cert_and_key(self):
        with pytest.raises(ReproError, match="certificate and key"):
            distributed.TLSAuth(cafile=str(CERTS / "ca.pem")).server_ssl()

    def test_rejects_non_provider_objects(self):
        with pytest.raises(ReproError, match="AuthProvider"):
            config.configure(auth_provider=object())

    def test_hmac_secret_precedence(self):
        with config.overrides(distributed_secret="process-wide"):
            assert distributed.HMACAuth("explicit").secret() == "explicit"
            assert distributed.HMACAuth().secret() == "process-wide"


class TestPipelineKnob:
    def test_default_set_and_scope(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISTRIBUTED_PIPELINE", raising=False)
        assert config.get("pipeline_depth") == 4  # pipelining on by default
        with config.overrides(pipeline_depth=7):
            assert config.get("pipeline_depth") == 7
            with config.overrides(pipeline_depth=None):
                assert config.get("pipeline_depth") == 4
            assert config.get("pipeline_depth") == 7

    def test_floor_is_lockstep(self):
        with config.overrides(pipeline_depth=0):
            assert config.get("pipeline_depth") == 1
        with config.overrides(pipeline_depth=-3):
            assert config.get("pipeline_depth") == 1

    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISTRIBUTED_PIPELINE", "9")
        assert config.get("pipeline_depth") == 9
        monkeypatch.setenv("REPRO_DISTRIBUTED_PIPELINE", "0")
        assert config.get("pipeline_depth") == 1
        monkeypatch.setenv("REPRO_DISTRIBUTED_PIPELINE", "nonsense")
        assert config.get("pipeline_depth") == 4
        monkeypatch.delenv("REPRO_DISTRIBUTED_PIPELINE")
        assert config.get("pipeline_depth") == 4


# --------------------------------------------------------------------------- #
# TLS end-to-end + fault drills (real worker subprocesses)

@pytest.mark.distributed
class TestTLSTransport:
    def _oracle_and_marginals(self, seed: int):
        compiled = compile_circuit(random_circuit(seed))
        marginals = [0.2 + 0.1 * (i % 5) for i in range(len(compiled.variables()))]
        serial = parallel.monte_carlo_hits(
            compiled, marginals, 700, seed=9, workers=0
        )
        return compiled, marginals, serial

    def _mc(self, compiled, marginals, hosts):
        return distributed.monte_carlo_hits(
            compiled, marginals, 700, seed=9, hosts=hosts
        )

    def test_tls_round_trip_bit_identical(self, worker_factory):
        compiled, marginals, serial = self._oracle_and_marginals(70)
        worker = worker_factory(
            tls_cert=str(CERTS / "server.pem"), tls_key=str(CERTS / "server.key")
        )
        before = distributed.pool_stats()
        with config.overrides(distributed_tls={"cafile": str(CERTS / "ca.pem")}):
            assert distributed.auth_provider().name == "tls"
            assert self._mc(compiled, marginals, (worker.address,)) == serial
        after = distributed.pool_stats()
        assert after["tasks_completed"] > before["tasks_completed"]

    def test_mtls_round_trip_bit_identical(self, worker_factory):
        compiled, marginals, serial = self._oracle_and_marginals(71)
        worker = worker_factory(
            tls_cert=str(CERTS / "server.pem"),
            tls_key=str(CERTS / "server.key"),
            tls_ca=str(CERTS / "ca.pem"),  # demand client certificates
        )
        with config.overrides(distributed_tls={
            "certfile": str(CERTS / "client.pem"),
            "keyfile": str(CERTS / "client.key"),
            "cafile": str(CERTS / "ca.pem"),
        }):
            assert distributed.auth_provider().name == "mtls"
            assert self._mc(compiled, marginals, (worker.address,)) == serial

    def test_tls_and_hmac_compose(self, worker_factory):
        """Encryption and authentication are independent layers: a TLS
        worker with a shared secret still challenges, and the right secret
        is still served."""
        compiled, marginals, serial = self._oracle_and_marginals(72)
        worker = worker_factory(
            secret="belt-and-braces",
            tls_cert=str(CERTS / "server.pem"), tls_key=str(CERTS / "server.key"),
        )
        with config.overrides(distributed_tls={"cafile": str(CERTS / "ca.pem")}), \
                config.overrides(distributed_secret="belt-and-braces"):
            assert self._mc(compiled, marginals, (worker.address,)) == serial

    def test_serve_takes_tls_and_secret_from_the_knob_variables(self):
        """``repro serve`` with no flags arms TLS and the HMAC secret from
        the ``distributed_tls`` and ``distributed_secret`` knobs' variables,
        as the CI fleet runs it: a matching coordinator is served, a wrong
        secret over the same TLS link is refused."""
        compiled, marginals, serial = self._oracle_and_marginals(77)
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update({
            "REPRO_DISTRIBUTED_TLS_CERT": str(CERTS / "server.pem"),
            "REPRO_DISTRIBUTED_TLS_KEY": str(CERTS / "server.key"),
            "REPRO_DISTRIBUTED_SECRET": "from-the-variable",
        })
        worker = distributed.LocalWorker(
            *spawn_until_ready(["serve", "--port", "0"], env, 30.0, "worker")
        )
        tls = {"cafile": str(CERTS / "ca.pem")}
        try:
            before = distributed.pool_stats()
            with config.overrides(
                distributed_tls=tls, distributed_secret="from-the-variable"
            ):
                assert self._mc(compiled, marginals, (worker.address,)) == serial
            served = distributed.pool_stats()["per_host_tasks"]
            assert served.get(worker.address, 0) > (
                before["per_host_tasks"].get(worker.address, 0)
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with config.overrides(distributed_tls=tls, distributed_secret="wrong"):
                    distributed.reset_pool()
                    assert self._mc(
                        compiled, marginals, (worker.address,)
                    ) == serial
            assert any("authentication" in str(w.message) for w in caught), (
                [str(w.message) for w in caught]
            )
        finally:
            worker.stop()

    def test_untrusted_certificate_is_never_served(self, worker_factory):
        """Bad-cert drill: a worker presenting a certificate our CA did
        not sign completes zero shards — even when plaintext fallback is
        allowed, verification failure must not downgrade the link."""
        compiled, marginals, serial = self._oracle_and_marginals(73)
        worker = worker_factory(
            tls_cert=str(CERTS / "selfsigned.pem"),
            tls_key=str(CERTS / "selfsigned.key"),
        )
        before = distributed.pool_stats()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with config.overrides(distributed_tls={
                "cafile": str(CERTS / "ca.pem"), "allow_plaintext": True,
            }):
                hits = self._mc(compiled, marginals, (worker.address,))
        after = distributed.pool_stats()
        assert hits == serial  # the local fallback absorbed the work
        assert after["connects"] == before["connects"]
        assert after["per_host_tasks"].get(worker.address, 0) == \
            before["per_host_tasks"].get(worker.address, 0)
        assert any(
            "certificate verification" in str(w.message) for w in caught
        ), [str(w.message) for w in caught]
        assert worker.alive()

    def test_expired_certificate_is_never_served(self, worker_factory):
        compiled, marginals, serial = self._oracle_and_marginals(74)
        worker = worker_factory(
            tls_cert=str(CERTS / "expired.pem"),
            tls_key=str(CERTS / "expired.key"),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with config.overrides(distributed_tls={"cafile": str(CERTS / "ca.pem")}):
                hits = self._mc(compiled, marginals, (worker.address,))
        assert hits == serial
        messages = [str(w.message) for w in caught]
        assert any("certificate verification" in m for m in messages), messages
        assert any("expired" in m for m in messages), messages

    def test_plaintext_peer_refused_without_the_escape_hatch(
        self, inprocess_worker_factory
    ):
        """A TLS coordinator meeting a worker that does not speak TLS at
        all refuses the link (and falls back locally) unless plaintext
        fallback was explicitly allowed."""
        compiled, marginals, serial = self._oracle_and_marginals(75)
        worker = inprocess_worker_factory()  # plaintext, no TLS arguments
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with config.overrides(distributed_tls={"cafile": str(CERTS / "ca.pem")}):
                hits = self._mc(compiled, marginals, (worker.address,))
        assert hits == serial
        assert any(
            "TLS handshake" in str(w.message) for w in caught
        ), [str(w.message) for w in caught]

    def test_plaintext_peer_served_when_explicitly_allowed(
        self, inprocess_worker_factory
    ):
        compiled, marginals, serial = self._oracle_and_marginals(76)
        worker = inprocess_worker_factory()
        before = distributed.pool_stats()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with config.overrides(distributed_tls={
                "cafile": str(CERTS / "ca.pem"), "allow_plaintext": True,
            }):
                hits = self._mc(compiled, marginals, (worker.address,))
        after = distributed.pool_stats()
        assert hits == serial
        assert after["per_host_tasks"].get(worker.address, 0) > \
            before["per_host_tasks"].get(worker.address, 0)
        assert any(
            "retrying in plaintext" in str(w.message) for w in caught
        ), [str(w.message) for w in caught]


# --------------------------------------------------------------------------- #
# mixed-version handshake drills (live)

@pytest.mark.distributed
class TestMixedVersionFleet:
    def test_v2_worker_serves_a_v3_coordinator_lockstep(
        self, inprocess_worker_factory, plaintext_provider
    ):
        """A legacy worker (caps-less version-2 hello) still completes
        batch shards for this coordinator — negotiated down to the v2
        baseline, driven lockstep instead of pipelined, bit-identical
        results. (Its Monte-Carlo shards run elsewhere: see below.)"""
        compiled = compile_circuit(random_circuit(80))
        worlds = np.random.default_rng(80).random(
            (3000, len(compiled.variables()))
        ) < 0.4
        serial = distributed.evaluate_batch_distributed(compiled, worlds, hosts=())
        legacy = inprocess_worker_factory(hello_caps=())
        assert np.array_equal(
            distributed.evaluate_batch_distributed(
                compiled, worlds, hosts=(legacy.address,)
            ),
            serial,
        )
        stats = distributed.pool_stats()
        assert stats["per_host_tasks"].get(legacy.address, 0) > 0
        conn = distributed._HOST_POOL._conns[legacy.address]
        assert conn.caps == distributed.V2_BASELINE_CAPS
        assert "pipeline" not in conn.caps

    @pytest.mark.parametrize(
        "hello_caps",
        (
            sorted(distributed.PROTOCOL_CAPS - {distributed.MC_STREAM_CAP}),
            (),
        ),
        ids=("float32-stream-build", "legacy-hello"),
    )
    def test_worker_without_the_stream_takes_no_monte_carlo_shard(
        self, inprocess_worker_factory, plaintext_provider, monkeypatch,
        hello_caps,
    ):
        """A worker that did not negotiate the Monte-Carlo stream answers
        no ``mc`` shard: the call completes locally on the one stream, the
        skip is counted, and a warning names the host."""
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(83))
        marginals = [0.3] * len(compiled.variables())
        serial = parallel.monte_carlo_hits(
            compiled, marginals, 700, seed=9, workers=0
        )
        older = inprocess_worker_factory(hello_caps=hello_caps)
        before = distributed.pool_stats()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            hits = distributed.monte_carlo_hits(
                compiled, marginals, 700, seed=9, hosts=(older.address,)
            )
        after = distributed.pool_stats()
        assert hits == serial
        assert after["per_host_tasks"].get(older.address, 0) == \
            before["per_host_tasks"].get(older.address, 0)
        assert after["capability_skips"] - before["capability_skips"] == 1
        assert after["plan_offers"] == before["plan_offers"]  # nothing shipped
        messages = [str(w.message) for w in caught]
        assert any(
            older.address in m and distributed.MC_STREAM_CAP in m
            for m in messages
        ), messages

    def test_mc_task_naming_no_stream_is_refused(
        self, inprocess_worker_factory, plaintext_provider, monkeypatch
    ):
        """An older coordinator sends ``mc`` tasks without the ``stream``
        field: the worker answers each with an error reply, not hits, the
        coordinator warns and requeues, and every shard runs locally on
        the coordinator's own stream."""
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        monkeypatch.setattr(distributed, "_WARNED", set())  # re-arm warnings
        compiled = compile_circuit(random_circuit(84))
        n_vars = len(compiled.variables())
        marginals = [0.3] * n_vars
        serial = parallel.monte_carlo_hits(
            compiled, marginals, 700, seed=9, workers=0
        )
        plan_bytes = compiled.wire_bytes()
        checksum = compiled.plan_digest()
        probs_blob = distributed._values_to_bytes(
            "f", parallel.mc_marginals(marginals, n_vars)
        )
        tasks = [
            (slot, {"id": slot, "op": "mc", "plan": checksum, "seed": 9,
                    "index": index, "count": count}, probs_blob)
            for slot, (index, count) in enumerate(parallel._sample_shards(700))
        ]
        decoded = distributed.plan_from_bytes(plan_bytes)
        ran_locally = []

        def run_local(meta):
            ran_locally.append(meta["id"])
            hits = decoded.mc_shard_hits(
                marginals, meta["seed"], meta["index"], meta["count"]
            )
            return {"hits": hits}, b""

        worker = inprocess_worker_factory()
        before = distributed.pool_stats()
        with pytest.warns(RuntimeWarning, match="refused a shard") as caught:
            results = distributed._run_distributed(
                (worker.address,),
                [(distributed.MSG_PLAN, {"checksum": checksum}, plan_bytes)],
                tasks, run_local,
            )
        after = distributed.pool_stats()
        assert any(distributed.MC_STREAM_CAP in str(w.message) for w in caught)
        assert sorted(ran_locally) == [slot for slot, _meta, _blob in tasks]
        assert after["tasks_completed"] == before["tasks_completed"]
        assert sum(meta["hits"] for meta, _blob in results) == serial

    def test_future_worker_with_caps_is_accepted(
        self, inprocess_worker_factory, plaintext_provider
    ):
        """A worker from the future (version 99) negotiates fine as long
        as it advertises capabilities we share."""
        compiled = compile_circuit(random_circuit(81))
        marginals = [0.4] * len(compiled.variables())
        serial = parallel.monte_carlo_hits(
            compiled, marginals, 700, seed=9, workers=0
        )
        future = inprocess_worker_factory(hello_version=99)
        assert distributed.monte_carlo_hits(
            compiled, marginals, 700, seed=9, hosts=(future.address,)
        ) == serial
        assert distributed._HOST_POOL._conns[future.address].caps == \
            distributed.PROTOCOL_CAPS

    def test_capsless_future_worker_is_refused(
        self, inprocess_worker_factory, plaintext_provider
    ):
        """Version drift without a capability set is the one remaining
        hard handshake failure — the old all-or-nothing rule."""
        compiled = compile_circuit(random_circuit(82))
        marginals = [0.5] * len(compiled.variables())
        serial = parallel.monte_carlo_hits(
            compiled, marginals, 700, seed=9, workers=0
        )
        alien = inprocess_worker_factory(hello_caps=(), hello_version=99)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            hits = distributed.monte_carlo_hits(
                compiled, marginals, 700, seed=9, hosts=(alien.address,)
            )
        assert hits == serial
        assert alien.address not in distributed._HOST_POOL._conns
        assert any(
            "speaks protocol 99" in str(w.message) for w in caught
        ), [str(w.message) for w in caught]


# --------------------------------------------------------------------------- #
# pipelining + elastic membership (live)

@pytest.mark.distributed
class TestPipelining:
    def test_depths_agree_with_each_other_and_the_oracle(
        self, worker_factory, monkeypatch
    ):
        """Out-of-order RESULT correlation must not reorder the merge:
        every pipeline depth returns the same bits as lockstep and as the
        0-host oracle."""
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(85))
        marginals = [0.35] * len(compiled.variables())
        samples = 64 * 12
        serial = parallel.monte_carlo_hits(
            compiled, marginals, samples, seed=5, workers=0
        )
        worker = worker_factory()
        results = {}
        for depth in (1, 2, 8):
            with config.overrides(pipeline_depth=depth):
                results[depth] = distributed.monte_carlo_hits(
                    compiled, marginals, samples, seed=5, hosts=(worker.address,)
                )
        assert results == {1: serial, 2: serial, 8: serial}

    def test_pipelined_fault_injection_loses_no_shards(
        self, worker_factory, monkeypatch
    ):
        """A worker dying with several task frames in flight must not lose
        or duplicate any of them — the abandoned in-flight set is requeued
        onto the healthy worker and the merge stays bit-identical."""
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(86))
        marginals = [0.45] * len(compiled.variables())
        samples = 64 * 12
        serial = parallel.monte_carlo_hits(
            compiled, marginals, samples, seed=6, workers=0
        )
        dying = worker_factory(max_tasks=2)
        healthy = worker_factory()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with config.overrides(pipeline_depth=8):
                hits = distributed.monte_carlo_hits(
                    compiled, marginals, samples, seed=6,
                    hosts=(dying.address, healthy.address),
                )
        assert hits == serial
        assert healthy.alive()

    def test_two_pipelined_workers_split_the_samples(
        self, worker_factory, monkeypatch
    ):
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(87))
        marginals = [0.25] * len(compiled.variables())
        samples = 64 * 10
        serial = parallel.monte_carlo_hits(
            compiled, marginals, samples, seed=7, workers=0
        )
        first = worker_factory()
        second = worker_factory()
        before = distributed.pool_stats()
        assert distributed.monte_carlo_hits(
            compiled, marginals, samples, seed=7,
            hosts=(first.address, second.address),
        ) == serial
        after = distributed.pool_stats()
        done = {
            host: after["per_host_tasks"].get(host, 0)
            - before["per_host_tasks"].get(host, 0)
            for host in (first.address, second.address)
        }
        assert sum(done.values()) == 10  # every shard answered exactly once
        assert all(count > 0 for count in done.values())


@pytest.mark.distributed
class TestElasticMembership:
    def test_register_then_drain_matches_the_0_host_oracle(
        self, worker_factory, monkeypatch
    ):
        """The full elastic lifecycle: a worker dials the registry and
        REGISTERs; with no static host list the pool routes shards to it;
        stopping it drains the membership and execution returns to
        local-only — bit-identical at every stage."""
        # Fine shards: the CI distributed job keeps an ambient REGISTERed
        # member in the fleet, and a single-shard call would race it for
        # the whole workload; 22 shards make every live member serve.
        monkeypatch.setattr(parallel, "MC_SHARD", 32)
        compiled = compile_circuit(random_circuit(90))
        marginals = [0.3] * len(compiled.variables())
        serial = parallel.monte_carlo_hits(
            compiled, marginals, 700, seed=9, workers=0
        )
        registry = distributed.start_registry()
        baseline = set(distributed.registered_hosts())
        before = distributed.pool_stats()
        worker = worker_factory(register=registry)
        assert wait_until(
            lambda: set(distributed.registered_hosts()) - baseline
        ), "worker never registered"
        joined = (set(distributed.registered_hosts()) - baseline).pop()
        with config.overrides(distributed_hosts=None):
            assert distributed.effective_hosts(None) == tuple(
                distributed.registered_hosts()
            )
            assert distributed.effective_hosts(()) == ()  # explicit opt-out wins
            hits = distributed.monte_carlo_hits(compiled, marginals, 700, seed=9)
        after = distributed.pool_stats()
        assert hits == serial

        # The first call may finish while the fresh member is still
        # mid-handshake (an ambient fleet member with a pooled connection
        # can drain the queue first), so let warm repeats prove routing.
        def joined_served() -> bool:
            with config.overrides(distributed_hosts=None):
                assert distributed.monte_carlo_hits(
                    compiled, marginals, 700, seed=9
                ) == serial
            return (
                distributed.pool_stats()["per_host_tasks"].get(joined, 0)
                > before["per_host_tasks"].get(joined, 0)
            )

        assert wait_until(joined_served), "joined worker never served a shard"
        assert after["registrations"] - before["registrations"] >= 1
        worker.stop()  # EOF on the registry link = drain
        assert wait_until(
            lambda: joined not in distributed.registered_hosts()
        ), "worker never drained"
        with config.overrides(distributed_hosts=None):
            assert distributed.monte_carlo_hits(
                compiled, marginals, 700, seed=9
            ) == serial  # local-only again, same bits

    def test_admit_and_drain_api(self):
        """The thread-safe membership hooks work without a registry."""
        distributed._HOST_POOL.admit("127.0.0.1:19999")
        try:
            assert "127.0.0.1:19999" in distributed.registered_hosts()
            with config.overrides(distributed_hosts=None):
                assert "127.0.0.1:19999" in distributed.effective_hosts(None)
        finally:
            distributed._HOST_POOL.drain("127.0.0.1:19999")
        assert "127.0.0.1:19999" not in distributed.registered_hosts()

    def test_admit_rejects_malformed_addresses(self):
        with pytest.raises(ReproError):
            distributed._HOST_POOL.admit("not-an-address")

    def test_static_hosts_and_registered_hosts_merge(self):
        distributed._HOST_POOL.admit("127.0.0.1:19998")
        try:
            with config.overrides(distributed_hosts="127.0.0.1:19998,a:1"):
                merged = distributed.effective_hosts(None)
                # Static list first, elastic members appended (the CI
                # distributed job contributes an ambient REGISTERed
                # member, so assert shape rather than the exact tuple).
                assert merged[:2] == ("127.0.0.1:19998", "a:1")
                # dict.fromkeys dedupe: the registered host is not doubled
                assert merged.count("127.0.0.1:19998") == 1
                assert set(distributed.registered_hosts()) <= set(merged)
        finally:
            distributed._HOST_POOL.drain("127.0.0.1:19998")


@pytest.mark.distributed
class TestTransportModeConformance:
    """Every transport mode serves the conformance corpus, pinned hard.

    The acceptance matrix for the fleet transport: plaintext, HMAC, TLS
    and mutual TLS must all return Boolean evaluations exactly equal to
    the per-world scalar oracle and probabilities **bit-identical** to
    the local numpy tier (which ``test_conformance`` in turn holds to
    the scalar oracle) — encrypting or challenging the link must never
    change a single bit of any corpus scenario.
    """

    def _mode(self, name, inprocess_worker_factory):
        """Returns (worker, coordinator-context) for a transport mode."""
        server = dict(
            tls_cert=str(CERTS / "server.pem"),
            tls_key=str(CERTS / "server.key"),
        )
        if name == "plaintext":
            return (
                inprocess_worker_factory(),
                config.overrides(auth_provider=distributed.AuthProvider()),
            )
        if name == "hmac":
            return (
                inprocess_worker_factory(secret="corpus-secret"),
                config.overrides(auth_provider=
                    distributed.HMACAuth("corpus-secret")
                ),
            )
        if name == "tls":
            return (
                inprocess_worker_factory(**server),
                config.overrides(auth_provider=
                    distributed.TLSAuth(cafile=str(CERTS / "ca.pem"))
                ),
            )
        assert name == "mtls"
        return (
            inprocess_worker_factory(**server, tls_ca=str(CERTS / "ca.pem")),
            config.overrides(auth_provider=
                distributed.TLSAuth(
                    certfile=str(CERTS / "client.pem"),
                    keyfile=str(CERTS / "client.key"),
                    cafile=str(CERTS / "ca.pem"),
                )
            ),
        )

    @pytest.mark.parametrize("mode", ["plaintext", "hmac", "tls", "mtls"])
    def test_corpus_bit_identical_under_every_transport(
        self, mode, inprocess_worker_factory
    ):
        import math

        import numpy as np
        import test_conformance as conformance

        worker, coordinator = self._mode(mode, inprocess_worker_factory)
        with coordinator:
            for scenario in sorted(conformance.SCENARIOS):
                compiled, worlds, rows = conformance.scenario_fixture_data(
                    scenario
                )
                n = len(compiled.variables())
                world_matrix = np.asarray(worlds, dtype=np.bool_).reshape(
                    len(worlds), n
                )
                row_matrix = np.asarray(rows, dtype=np.float64).reshape(
                    len(rows), n
                )
                evaluated = distributed.evaluate_batch_distributed(
                    compiled, world_matrix, hosts=(worker.address,)
                )
                probabilities = distributed.probability_batch_distributed(
                    compiled, row_matrix, hosts=(worker.address,)
                )
                oracle = [bool(compiled.evaluate(w)) for w in worlds]
                assert [bool(v) for v in evaluated.tolist()] == oracle, (
                    f"{mode}/{scenario}: Boolean drift over the wire"
                )
                local = [float(v) for v in compiled.probability_batch(row_matrix)]
                assert probabilities.tolist() == local, (
                    f"{mode}/{scenario}: probabilities not bit-identical "
                    "to the local numpy tier"
                )
                for got, want in zip(
                    probabilities.tolist(),
                    (compiled.probability(row) for row in rows),
                ):
                    assert math.isclose(got, want, abs_tol=1e-12), (
                        f"{mode}/{scenario}: drift from the scalar oracle"
                    )
