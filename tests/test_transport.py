"""Tests for the fleet transport: the protocol version, TLS/mTLS,
shard pipelining, and elastic worker registration.

Four layers, matching the transport of :mod:`repro.circuits.distributed`:

- the **protocol version** — a worker's hello carries exactly
  :data:`PROTOCOL_VERSION`; a worker on another version (a test-side
  subclass) is refused before any plan or task reaches it and its share
  runs locally, bit-identical to the 0-host oracle; a worker refuses an
  ``mc`` task that names no stream; bytes that are no frame of the
  protocol raise :class:`ReproError`, and such a reply costs the
  connection, not the call;
- the **auth provider** — knob parsing/scoping for the TLS and pipeline
  knobs, the provider :func:`provider_from_knobs` builds (TLS > secret >
  plaintext), and the :class:`TLSAuth` context preconditions;
- the **TLS fault drills** — real localhost workers with the committed
  ``tests/certs`` material: server-auth TLS and mutual TLS must be
  bit-identical to the 0-host oracle; an untrusted or expired worker
  certificate, or a worker that does not speak TLS, is never served
  (local fallback, warning);
- **pipelining + elastic membership** — deeper pipelines return the same
  bits as lockstep and as the local oracle, and a worker is sent
  ``pipeline_depth`` tasks at once; a worker that dials in and
  REGISTERs serves shards with no static host list, and draining it
  returns the pool to local-only execution with identical results.

Socket tests carry the ``distributed`` marker so socket-free CI jobs can
deselect them.
"""

import asyncio
import json
import os
import socket
import struct
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

    The drills need worker subclasses (another protocol version, broken
    replies) and a worker whose transport is pinned regardless of the
    ambient ``REPRO_DISTRIBUTED_TLS_*`` environment — neither of which
    the CLI spawn path exposes.
    """

    def __init__(self, server_class=distributed.WorkerServer, **kwargs):
        self.server = server_class(**kwargs)
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
    coordinator must not try TLS (or a secret) against them.
    """
    with config.overrides(distributed_tls=None, distributed_secret=None):
        yield


class OtherBuildWorker(distributed.WorkerServer):
    """A worker of another build: its hello is this build's with the
    fields of ``hello`` set on top (say ``{"version": 2}``)."""

    def __init__(self, hello: dict, **kwargs):
        super().__init__(**kwargs)
        self.hello = hello

    def _hello_meta(self) -> dict:
        return dict(super()._hello_meta(), **self.hello)


#: The capabilities a float32-stream build's hello listed: all but the
#: Monte-Carlo stream this build draws.
FLOAT32_STREAM_CAPS = [
    "caps", "eval", "kl", "mc", "pipeline", "ping", "plan-offer", "register",
]


class MalformedReplyWorker(distributed.WorkerServer):
    """Greets and takes plans like a worker of this build, then answers
    every ``TASK`` with the raw bytes ``reply`` instead of a RESULT, or
    with the bytes ``reply(header)`` makes of the task's header."""

    def __init__(self, reply: bytes, **kwargs):
        super().__init__(**kwargs)
        self.reply = reply

    async def _handle(self, reader, writer) -> None:
        send = distributed._send_message
        try:
            await send(writer, distributed.MSG_HELLO, self._hello_meta())
            while True:
                kind, meta, _blob = await distributed._read_message(reader)
                if kind == distributed.MSG_PLAN_OFFER:
                    await send(
                        writer, distributed.MSG_PLAN_NEED,
                        {"checksum": meta["checksum"]},
                    )
                elif kind == distributed.MSG_PING:
                    await send(writer, distributed.MSG_PONG, {})
                elif kind == distributed.MSG_TASK:
                    reply = self.reply
                    writer.write(reply(meta) if callable(reply) else reply)
                    await writer.drain()
        except (asyncio.IncompleteReadError, OSError, ReproError):
            pass  # the coordinator dropped the connection
        finally:
            writer.close()


def wait_until(predicate, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def frame(kind: int, header: bytes, blob: bytes = b"") -> bytes:
    """A protocol frame with ``header`` as its raw JSON header bytes."""
    payload = struct.pack("<BI", kind, len(header)) + header + blob
    return struct.pack("<I", len(payload)) + payload


# --------------------------------------------------------------------------- #
# the protocol version and frame reading (socket-free)

def test_hello_carries_the_protocol_version_and_no_capabilities():
    hello = distributed.WorkerServer()._hello_meta()
    assert hello["version"] == distributed.PROTOCOL_VERSION == 3
    assert "caps" not in hello


def read_frame(data: bytes):
    """What :func:`_read_message` makes of the bytes ``data``."""

    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await distributed._read_message(reader)

    return asyncio.run(read())


class BytesWriter:
    """The writer half of a stream, collecting what is written."""

    def __init__(self):
        self.data = b""

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass


class TestReadMessage:
    def test_reads_what_send_message_writes(self):
        writer = BytesWriter()
        asyncio.run(distributed._send_message(
            writer, distributed.MSG_RESULT, {"id": 4, "hits": 17}, b"\1\2\3"
        ))
        assert read_frame(writer.data) == (
            distributed.MSG_RESULT, {"id": 4, "hits": 17}, b"\1\2\3"
        )

    @pytest.mark.parametrize(
        "data, refusal",
        (
            (frame(distributed.MSG_RESULT, b"{not json"), "not a JSON object"),
            (frame(distributed.MSG_RESULT, b"[1, 2]"), "not a JSON object"),
            (frame(distributed.MSG_RESULT, b"\xff\xfe"), "not a JSON object"),
            (struct.pack("<I", 2) + b"\0\0", "length 2 out of bounds"),
            (
                struct.pack("<I", distributed.MAX_FRAME_BYTES + 1),
                "out of bounds",
            ),
            (
                struct.pack("<IBI", 7, distributed.MSG_RESULT, 9) + b"{}",
                "overruns the frame",
            ),
        ),
        ids=(
            "header-not-json", "header-not-an-object", "header-not-utf8",
            "length-2", "length-over-the-limit", "header-overruns-the-frame",
        ),
    )
    def test_refuses_a_malformed_frame(self, data, refusal):
        """Bytes from a peer that are no frame of this protocol raise
        :class:`ReproError`, the error the pool treats as a lost peer."""
        with pytest.raises(ReproError, match=refusal):
            read_frame(data)


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
        for name in ("CERT", "KEY", "CA"):
            monkeypatch.delenv(f"REPRO_DISTRIBUTED_TLS_{name}", raising=False)
        assert config.get("distributed_tls") is None
        monkeypatch.setenv("REPRO_DISTRIBUTED_TLS_CA", "/tmp/ca.pem")
        assert config.get("distributed_tls") == {
            "certfile": None, "keyfile": None, "cafile": "/tmp/ca.pem",
        }

    def test_provider_resolution_order(self):
        with config.overrides(distributed_tls=None, distributed_secret=None):
            provider = distributed.provider_from_knobs()
            assert provider.name == "plaintext"
            assert provider.secret() is None
            with config.overrides(distributed_secret="s3cret"):
                provider = distributed.provider_from_knobs()
                assert provider.name == "hmac"
                assert provider.secret() == "s3cret"
                with config.overrides(distributed_tls={"cafile": "ca.pem"}):
                    provider = distributed.provider_from_knobs()
                    assert provider.name == "tls"
                    assert provider.secret() == "s3cret"

    def test_tls_provider_cached_per_config(self):
        with config.overrides(distributed_tls={"cafile": "a.pem"}):
            first = distributed.provider_from_knobs()
            assert first is distributed.provider_from_knobs()
        with config.overrides(distributed_tls={"cafile": "b.pem"}):
            assert distributed.provider_from_knobs() is not first

    def test_provider_names(self):
        assert distributed.AuthProvider().name == "plaintext"
        assert distributed.HMACAuth().name == "hmac"
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
            assert distributed.provider_from_knobs().name == "tls"
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
            assert distributed.provider_from_knobs().name == "mtls"
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
        worker = spawn_until_ready(["serve", "--port", "0"], env, 30.0, "worker")
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
        not sign completes zero shards."""
        compiled, marginals, serial = self._oracle_and_marginals(73)
        worker = worker_factory(
            tls_cert=str(CERTS / "selfsigned.pem"),
            tls_key=str(CERTS / "selfsigned.key"),
        )
        before = distributed.pool_stats()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with config.overrides(distributed_tls={"cafile": str(CERTS / "ca.pem")}):
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

    def test_plaintext_peer_is_refused(self, inprocess_worker_factory):
        """A TLS coordinator meeting a worker that does not speak TLS at
        all refuses the link and falls back locally; it never retries in
        plaintext."""
        compiled, marginals, serial = self._oracle_and_marginals(75)
        worker = inprocess_worker_factory()  # plaintext, no TLS arguments
        before = distributed.pool_stats()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with config.overrides(distributed_tls={"cafile": str(CERTS / "ca.pem")}):
                hits = self._mc(compiled, marginals, (worker.address,))
        after = distributed.pool_stats()
        assert hits == serial
        assert after["connects"] == before["connects"]
        assert worker.server._executed == 0
        assert any(
            "TLS handshake" in str(w.message) for w in caught
        ), [str(w.message) for w in caught]


# --------------------------------------------------------------------------- #
# workers of other builds, and malformed replies (live)

def shipping_call(entry: str):
    """The entry point ``entry`` on a fixed workload, as a function of
    ``hosts``; ``hosts=()`` is its 0-host oracle."""
    if entry == "monte_carlo_hits":
        compiled = compile_circuit(random_circuit(83))
        marginals = [0.3] * len(compiled.variables())
        return lambda hosts: distributed.monte_carlo_hits(
            compiled, marginals, 700, seed=9, hosts=hosts
        )
    if entry == "evaluate_batch_distributed":
        compiled = compile_circuit(random_circuit(80))
        worlds = np.random.default_rng(80).random(
            (3000, len(compiled.variables()))
        ) < 0.4
        return lambda hosts: distributed.evaluate_batch_distributed(
            compiled, worlds, hosts=hosts
        )
    assert entry == "karp_luby_hits"
    membership = [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]]
    probs, weights = [0.3, 0.5, 0.2, 0.4], [0.06, 0.1, 0.06]
    return lambda hosts: distributed.karp_luby_hits(
        membership, probs, weights, 400, seed=4, hosts=hosts
    )


@pytest.mark.distributed
class TestMixedVersionFleet:
    @staticmethod
    def _assert_refused(entry, factory, hello):
        """A worker whose hello is ``hello`` is refused at the hello: it is
        offered no plan and sent no task, one warning names it and both
        versions, and its share of ``entry`` runs locally, bit-identical
        to the 0-host oracle."""
        call = shipping_call(entry)
        oracle = call(())
        other = factory(server_class=OtherBuildWorker, hello=hello)
        before = distributed.pool_stats()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = call((other.address,))
        after = distributed.pool_stats()
        assert np.array_equal(got, oracle)
        assert after["connects"] == before["connects"]
        assert after["plan_offers"] == before["plan_offers"]
        assert other.server._executed == 0
        assert other.address not in distributed._HOST_POOL._conns
        named = [str(w.message) for w in caught if other.address in str(w.message)]
        assert len(named) == 1, named
        assert (
            f"protocol {hello['version']!r}, not {distributed.PROTOCOL_VERSION}"
            in named[0]
        ), named

    @pytest.mark.parametrize(
        "entry",
        ("monte_carlo_hits", "evaluate_batch_distributed", "karp_luby_hits"),
    )
    def test_worker_on_another_version_is_refused(
        self, entry, inprocess_worker_factory, plaintext_provider, monkeypatch
    ):
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        self._assert_refused(entry, inprocess_worker_factory, {"version": 2})

    @pytest.mark.parametrize(
        "hello",
        ({"version": 2, "caps": FLOAT32_STREAM_CAPS}, {"version": 2}),
        ids=("float32-stream-build", "legacy-hello"),
    )
    def test_worker_without_the_stream_takes_no_monte_carlo_shard(
        self, hello, inprocess_worker_factory, plaintext_provider, monkeypatch
    ):
        """The hellos of the builds that drew a float32 stream, with and
        without a capability list: their hits never join this build's
        sum, which stays on the one stream."""
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        self._assert_refused("monte_carlo_hits", inprocess_worker_factory, hello)

    def test_capsless_future_worker_is_refused(
        self, inprocess_worker_factory, plaintext_provider, monkeypatch
    ):
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        self._assert_refused(
            "monte_carlo_hits", inprocess_worker_factory, {"version": 99}
        )

    def test_future_worker_with_caps_is_refused(
        self, inprocess_worker_factory, plaintext_provider, monkeypatch
    ):
        """A capability list no longer buys a worker on another version
        its way in."""
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        self._assert_refused(
            "monte_carlo_hits", inprocess_worker_factory,
            {"version": 99, "caps": FLOAT32_STREAM_CAPS + ["mc-lazy24", "warp"]},
        )

    def test_unknown_hello_fields_are_ignored(
        self, inprocess_worker_factory, plaintext_provider, monkeypatch
    ):
        """Only the version decides: a worker on this version whose hello
        carries fields this build does not know is served."""
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        call = shipping_call("monte_carlo_hits")
        oracle = call(())
        worker = inprocess_worker_factory(
            server_class=OtherBuildWorker,
            hello={"caps": ["caps", "mc", "warp"], "build": "next"},
        )
        assert call((worker.address,)) == oracle
        assert worker.server._executed > 0
        assert worker.address in distributed._HOST_POOL._conns

    def test_mc_task_naming_no_stream_is_refused(
        self, inprocess_worker_factory, plaintext_provider, monkeypatch
    ):
        """A coordinator that sends ``mc`` tasks without the ``stream``
        field gets an error reply to each, not hits: it warns and
        requeues, and every shard runs locally on its own stream."""
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
        assert any(distributed.MC_STREAM in str(w.message) for w in caught)
        assert sorted(ran_locally) == [slot for slot, _meta, _blob in tasks]
        assert after["tasks_completed"] == before["tasks_completed"]
        assert sum(meta["hits"] for meta, _blob in results) == serial


@pytest.mark.distributed
class TestMalformedReplies:
    @pytest.mark.parametrize(
        "reply",
        (
            frame(distributed.MSG_RESULT, b"{not json"),
            frame(distributed.MSG_RESULT, b"[1, 2]"),
            struct.pack("<I", 2) + b"\0\0",
        ),
        ids=("header-not-json", "header-not-an-object", "length-2"),
    )
    def test_malformed_reply_requeues_the_shards(
        self, reply, inprocess_worker_factory, plaintext_provider, monkeypatch
    ):
        """A reply to a TASK that is no frame of this protocol costs the
        worker's connection, not the call: the shards in flight are
        requeued, one warning says so, and the hits equal the 0-host
        oracle's."""
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        monkeypatch.setattr(distributed, "_WARNED", set())  # re-arm warnings
        call = shipping_call("monte_carlo_hits")
        oracle = call(())
        broken = inprocess_worker_factory(
            server_class=MalformedReplyWorker, reply=reply
        )
        before = distributed.pool_stats()
        with pytest.warns(RuntimeWarning, match="malformed reply"):
            hits = call((broken.address,))
        after = distributed.pool_stats()
        assert hits == oracle
        assert after["tasks_completed"] == before["tasks_completed"]
        assert after["connects"] > before["connects"]  # it was served tasks
        assert broken.address not in distributed._HOST_POOL._conns

    @pytest.mark.parametrize(
        "entry, fields",
        (
            ("monte_carlo_hits", {}),
            ("monte_carlo_hits", {"hits": -1}),
            ("monte_carlo_hits", {"hits": "7"}),
            ("karp_luby_hits", {}),
            ("evaluate_batch_distributed", {}),
        ),
        ids=("mc-no-hits", "mc-negative-hits", "mc-hits-a-string",
             "kl-no-hits", "eval-no-rows"),
    )
    def test_result_without_its_task_fields_requeues_the_shards(
        self, entry, fields, inprocess_worker_factory, plaintext_provider,
        monkeypatch,
    ):
        """A RESULT frame for a task in flight that lacks what the task's
        op returns (a non-negative int ``hits`` for ``mc`` and ``kl``, one
        value a row for ``eval``) is a malformed reply: the shards are
        requeued, the connection is dropped, one warning says so, and the
        call finishes locally, bit-identical to the 0-host oracle."""
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        monkeypatch.setattr(distributed, "_WARNED", set())  # re-arm warnings
        call = shipping_call(entry)
        oracle = call(())

        def reply(task):
            header = json.dumps({"id": task["id"], **fields}).encode()
            return frame(distributed.MSG_RESULT, header)

        broken = inprocess_worker_factory(
            server_class=MalformedReplyWorker, reply=reply
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = call((broken.address,))
        assert np.array_equal(got, oracle)
        assert len(caught) == 1
        assert "malformed reply" in str(caught[0].message)
        assert "malformed reply" in str(caught[0].message)
        assert broken.address not in distributed._HOST_POOL._conns


def plan_without_size() -> bytes:
    """A checksum-valid plan blob whose header has no ``size``."""
    meta, sections = distributed._unpack_blob(
        compile_circuit(random_circuit(7)).wire_bytes()
    )
    del meta["size"]
    return distributed._pack_blob(
        meta, [(name, "i", values) for name, values in sections.items()]
    )


def tables_without_a_section() -> bytes:
    """A checksum-valid witness-table blob without its ``cumulative``."""
    return distributed._pack_blob(
        {"kind": "tables", "n_witnesses": 1, "n_facts": 2,
         "total_weight": 0.25},
        [("membership", "i", [1, 1]), ("probs", "d", [0.5, 0.5])],
    )


class TestWorkerFrames:
    @pytest.mark.parametrize(
        "kind, header, blob",
        (
            (distributed.MSG_PLAN_OFFER, b'{"kind": "plan"}', None),
            (distributed.MSG_PLAN, b"{}", None),
            (distributed.MSG_TABLES, b"{}", None),
            (distributed.MSG_TASK, b'{"id": 0, "plan": "x"}', None),
            (distributed.MSG_TASK, b'{"op": "mc", "plan": "x"}', None),
            (distributed.MSG_PLAN, b'{"checksum": "x"}', plan_without_size),
            (distributed.MSG_TABLES, b'{"checksum": "y"}',
             tables_without_a_section),
        ),
        ids=("plan-offer-no-checksum", "plan-no-checksum",
             "tables-no-checksum", "task-no-op", "task-no-id",
             "plan-blob-no-size", "tables-blob-no-section"),
    )
    def test_frame_without_a_required_field_ends_the_connection(
        self, kind, header, blob, inprocess_worker_factory
    ):
        """A worker ends the connection on a frame that lacks a field it
        needs, in its header or in the plan or tables it carries,
        answering nothing, like any other malformed frame, and no
        exception escapes its connection handler to the event loop."""
        worker = inprocess_worker_factory()
        escaped = []
        worker.loop.call_soon_threadsafe(
            worker.loop.set_exception_handler,
            lambda _loop, context: escaped.append(context),
        )
        with socket.create_connection(
            ("127.0.0.1", worker.server.port), timeout=5.0
        ) as sock:
            sock.sendall(frame(kind, header, blob() if blob else b""))
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        (length,) = struct.unpack_from("<I", received)
        assert len(received) == 4 + length  # the hello, then end of stream
        asyncio.run_coroutine_threadsafe(
            asyncio.sleep(0.1), worker.loop
        ).result(5)  # let the handler's task finish
        assert escaped == []


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

    def test_worker_is_sent_pipeline_depth_tasks_at_once(
        self, worker_factory, monkeypatch
    ):
        """A worker of this build is served at the knob's depth: the
        coordinator sends ``pipeline_depth`` task frames before it reads
        the first result, and never more."""
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(88))
        marginals = [0.3] * len(compiled.variables())
        samples = 64 * 12
        serial = parallel.monte_carlo_hits(
            compiled, marginals, samples, seed=3, workers=0
        )
        worker = worker_factory()
        send, read = distributed._send_message, distributed._read_message
        in_flight = [0]  # task frames sent and not yet answered, per frame

        async def counting_send(writer, kind, meta, blob=b""):
            await send(writer, kind, meta, blob)
            if kind == distributed.MSG_TASK:
                in_flight.append(in_flight[-1] + 1)

        async def counting_read(reader):
            kind, meta, blob = await read(reader)
            if kind == distributed.MSG_RESULT:
                in_flight.append(in_flight[-1] - 1)
            return kind, meta, blob

        monkeypatch.setattr(distributed, "_send_message", counting_send)
        monkeypatch.setattr(distributed, "_read_message", counting_read)
        for depth in (1, 3):
            in_flight[:] = [0]
            before = distributed.pool_stats()["per_host_tasks"]
            with config.overrides(pipeline_depth=depth):
                assert distributed.monte_carlo_hits(
                    compiled, marginals, samples, seed=3,
                    hosts=(worker.address,),
                ) == serial
            served = distributed.pool_stats()["per_host_tasks"]
            assert served.get(worker.address, 0) - before.get(
                worker.address, 0
            ) == 12
            assert max(in_flight) == depth, in_flight

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
        """Returns (worker, coordinator-context) for a transport mode; the
        coordinator is configured only through the two transport knobs."""
        server = dict(
            tls_cert=str(CERTS / "server.pem"),
            tls_key=str(CERTS / "server.key"),
        )
        if name == "plaintext":
            return (
                inprocess_worker_factory(),
                config.overrides(distributed_tls=None, distributed_secret=None),
            )
        if name == "hmac":
            return (
                inprocess_worker_factory(secret="corpus-secret"),
                config.overrides(
                    distributed_tls=None, distributed_secret="corpus-secret"
                ),
            )
        if name == "tls":
            return (
                inprocess_worker_factory(**server),
                config.overrides(
                    distributed_tls={"cafile": str(CERTS / "ca.pem")},
                    distributed_secret=None,
                ),
            )
        assert name == "mtls"
        return (
            inprocess_worker_factory(**server, tls_ca=str(CERTS / "ca.pem")),
            config.overrides(
                distributed_tls={
                    "certfile": str(CERTS / "client.pem"),
                    "keyfile": str(CERTS / "client.key"),
                    "cafile": str(CERTS / "ca.pem"),
                },
                distributed_secret=None,
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
            assert distributed.provider_from_knobs().name == mode
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
