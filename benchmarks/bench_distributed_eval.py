"""E15 — distributed shard execution over wire-serialized circuit plans.

The fifth lowering stage, measured end to end on localhost: the R–S–T chain
Monte-Carlo workload of E14 is fanned out to real ``repro serve`` worker
*subprocesses* over the length-prefixed TCP protocol of
:mod:`repro.circuits.distributed`. Compared paths:

- **fused, in-process** — the stage-4 deterministic ``(seed, shard)``
  kernels with ``workers=0``: the local reference every distributed row
  must match bit for bit;
- **distributed, 1 / 2 workers** — the same shards streamed to localhost
  worker processes that rebuilt the plan from its wire form;
- **amortization** — the headline of the persistent runtime: the same
  small workload issued cold (``reset_pool`` first, so the call pays TCP
  connect + hello + plan publish, the old per-call baseline) versus
  issued again over the warm :class:`~repro.circuits.distributed.HostPool`
  (connections alive, plan digest-confirmed on every worker) — the repeat
  call must show the setup cost gone, on any machine, because it is
  overhead elimination rather than parallel speedup.

The bench also records the wire-format footprint (plan bytes for the
benchmark circuit, serialize + deserialize wall time) and a row-sharded
``probability_batch`` over TCP. On one machine the distributed rows mostly
measure protocol overhead — the point is the end-to-end proof (spawn,
serve, stream, merge, verify) plus honest per-shard cost numbers; the
wall-clock scaling story needs real second hosts, which CI cannot give us.
Every distributed row must produce the *same hit count* as the in-process
path for the fixed seed — the bench asserts it, after a full
serialize/deserialize round trip of the plan.

Run the table:  python benchmarks/bench_distributed_eval.py
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro import config
from repro.circuits import compile_circuit
from repro.circuits import distributed, parallel
from repro.core import build_lineage
from repro.queries import atom, cq, variables
from repro.util import ReproError
from repro.util.helpers import LocalProcess
from repro.workloads import rst_chain_tid

CHAIN_LENGTH = 120  # ~5.2k reachable gates, ~360 variables
FACT_PROBABILITY = 0.15
MC_SAMPLES = 200_000
PROBABILITY_ROWS = 20_000
SEED = 0

_REPO_ROOT = Path(__file__).resolve().parents[1]


def build_compiled():
    x, y = variables("x", "y")
    query = cq(atom("R", x), atom("S", x, y), atom("T", y))
    tid = rst_chain_tid(CHAIN_LENGTH, probability=FACT_PROBABILITY, seed=0)
    lineage = build_lineage(tid.instance, query)
    return compile_circuit(lineage.circuit), tid.event_space()


class _LatencyRelay:
    """A localhost TCP relay injecting fixed one-way delay per direction.

    Loopback has no link latency, so lockstep-vs-pipelined on the bare
    socket measures scheduler jitter, not the transport change. The relay
    restores the fleet regime pipelining targets: every byte stream
    crosses a FIFO that delivers data ``delay`` seconds after it was
    read — order-preserving and bandwidth-unlimited, so the only thing
    simulated is latency. Runs on a private loop thread; ``address`` is
    what the coordinator dials instead of the worker.
    """

    def __init__(self, target: str, delay: float):
        host, port = target.rsplit(":", 1)
        self._target = (host, int(port))
        self._delay = delay
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        port = asyncio.run_coroutine_threadsafe(
            self._start(), self._loop
        ).result(10)
        self.address = f"127.0.0.1:{port}"

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    async def _start(self) -> int:
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        return self._server.sockets[0].getsockname()[1]

    async def _pump(self, src, dst) -> None:
        queue: asyncio.Queue = asyncio.Queue()

        async def deliver():
            while True:
                due, data = await queue.get()
                await asyncio.sleep(max(0.0, due - self._loop.time()))
                if not data:
                    return
                dst.write(data)
                await dst.drain()

        delivery = asyncio.ensure_future(deliver())
        try:
            while True:
                data = await src.read(1 << 16)
                queue.put_nowait((self._loop.time() + self._delay, data))
                if not data:
                    break
            await delivery
        finally:
            delivery.cancel()
            try:
                dst.close()
            except Exception:
                pass

    async def _handle(self, reader, writer) -> None:
        # Swallow the stop()-time cancellation: asyncio.streams attaches a
        # done-callback that calls task.exception(), which re-raises out
        # of a task that ended *cancelled* and spams the log at teardown.
        try:
            try:
                up_reader, up_writer = await asyncio.open_connection(
                    *self._target
                )
            except OSError:
                writer.close()
                return
            await asyncio.gather(
                self._pump(reader, up_writer), self._pump(up_reader, writer),
                return_exceptions=True,
            )
        except asyncio.CancelledError:
            pass

    def stop(self) -> None:
        async def shut_down():
            self._server.close()
            await self._server.wait_closed()
            tasks = [task for task in asyncio.all_tasks()
                     if task is not asyncio.current_task()]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        asyncio.run_coroutine_threadsafe(shut_down(), self._loop).result(10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10)
        self._loop.close()


def _timed(fn, repeats: int = 3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> None:
    print("E15 — distributed shard execution over wire-serialized plans")
    compiled, space = build_compiled()
    probs = [space.probability(n) for n in compiled.variables()]
    cpu_count = os.cpu_count() or 1
    print(f"lineage circuit: {compiled.size} gates, "
          f"{len(compiled.variables())} variables; {cpu_count} CPU(s) visible")

    # Wire-format footprint: the whole point of shipping plans, not circuits.
    # plan_to_bytes packs afresh on every call; the plan keeps one packing.
    serialize_seconds, plan_bytes = _timed(
        lambda: distributed.plan_to_bytes(compiled.plan)
    )
    deserialize_seconds, _plan = _timed(
        lambda: distributed.plan_from_bytes(plan_bytes)
    )
    print(f"wire plan: {len(plan_bytes)} bytes "
          f"(serialize {serialize_seconds * 1e3:.2f} ms once, "
          f"deserialize+verify {deserialize_seconds * 1e3:.2f} ms per worker)")
    print(f"Monte-Carlo workload: {MC_SAMPLES} samples, seed {SEED}, "
          f"{len(parallel._sample_shards(MC_SAMPLES))} shards")

    local_seconds, local_hits = _timed(
        lambda: parallel.monte_carlo_hits(
            compiled, probs, MC_SAMPLES, seed=SEED, workers=0
        )
    )
    rows = [("fused in-process (reference)", local_seconds, 1.0, local_hits)]

    workers: list[LocalProcess] = []
    result: dict = {
        "gates": compiled.size,
        "variables": len(compiled.variables()),
        "cpu_count": cpu_count,
        "mc_samples": MC_SAMPLES,
        "seed": SEED,
        "plan_wire_bytes": len(plan_bytes),
        "plan_serialize_seconds": serialize_seconds,
        "plan_deserialize_seconds": deserialize_seconds,
        "local_seconds": local_seconds,
        "estimate": local_hits / MC_SAMPLES,
    }
    try:
        try:
            workers.append(distributed.spawn_local_worker())
            workers.append(distributed.spawn_local_worker())
        except (ReproError, OSError) as exc:
            print(f"could not spawn localhost workers ({exc}); "
                  "recording the local reference only")

        if len(workers) == 2:
            # Amortization — measured FIRST, while the workers have never
            # seen this plan, so the cold call pays the full per-call
            # baseline the pre-persistent protocol paid on *every* call:
            # TCP connect + hello + plan transfer + decode/verify. The
            # reconnect row resets the pool between calls (connections
            # re-opened, but the workers answer PLAN_HAVE, so the plan
            # does not cross the wire again); the warm row repeats over
            # live pooled connections. One small shard of samples keeps
            # the setup cost a visible fraction of the call.
            hosts = [worker.address for worker in workers]
            amort_samples = 4096
            local_ref = parallel.monte_carlo_hits(
                compiled, probs, amort_samples, seed=SEED, workers=0
            )
            start = time.perf_counter()
            first_hits = distributed.monte_carlo_hits(
                compiled, probs, amort_samples, seed=SEED, hosts=hosts
            )
            first_seconds = time.perf_counter() - start

            def reconnect_call():
                distributed.reset_pool()
                return distributed.monte_carlo_hits(
                    compiled, probs, amort_samples, seed=SEED, hosts=hosts
                )

            reconnect_seconds, reconnect_hits = _timed(reconnect_call)
            stats_before = distributed.pool_stats()
            warm_seconds, warm_hits = _timed(
                lambda: distributed.monte_carlo_hits(
                    compiled, probs, amort_samples, seed=SEED, hosts=hosts
                ),
                repeats=5,
            )
            stats_after = distributed.pool_stats()
            assert local_ref == first_hits == reconnect_hits == warm_hits, (
                "amortized calls must stay bit-identical"
            )
            republished = (
                stats_after["plans_published"] - stats_before["plans_published"]
            )
            assert republished == 0, (
                f"warm calls must not re-publish the plan ({republished} did)"
            )
            amortized_speedup = first_seconds / warm_seconds
            print(f"\namortization ({amort_samples} samples, 2 workers):")
            print(f"{'first call (connect + plan publish)':<38} "
                  f"{first_seconds * 1e3:>8.1f} ms")
            print(f"{'reconnect each call (digest hit)':<38} "
                  f"{reconnect_seconds * 1e3:>8.1f} ms "
                  f"{first_seconds / reconnect_seconds:>8.2f}x")
            print(f"{'persistent pool, warm repeat':<38} "
                  f"{warm_seconds * 1e3:>8.1f} ms "
                  f"{amortized_speedup:>8.2f}x")
            result["amortization"] = {
                "samples": amort_samples,
                "first_call_seconds": first_seconds,
                "reconnect_call_seconds": reconnect_seconds,
                "persistent_repeat_seconds": warm_seconds,
                "overhead_eliminated_seconds": first_seconds - warm_seconds,
                "amortized_speedup": amortized_speedup,
                "plans_republished_during_warm_repeats": republished,
            }

            # Pipelining — the second transport headline. Measured over a
            # simulated-latency link (see :class:`_LatencyRelay`): on bare
            # loopback the round trip is scheduler jitter and the
            # lockstep-vs-pipelined ratio swings around 1.0x; on any real
            # fleet link every frame pays latency, which is exactly what
            # keeping PIPELINE_DEPTH task frames in flight hides. One
            # worker behind a 1 ms one-way relay, shard grid shrunk so
            # the link crossing is a visible fraction of each shard:
            # lockstep (depth 1, the old wire) pays a full round trip of
            # dead air between a shard's RESULT and the next TASK;
            # pipelined correlates out-of-order RESULTs by shard id and
            # amortizes the latency across the in-flight window.
            pipe_samples = 65_536
            link_delay = 0.001
            saved_shard = parallel.MC_SHARD
            parallel.MC_SHARD = 1024
            relay = _LatencyRelay(workers[0].address, delay=link_delay)
            try:
                n_pipe_shards = len(parallel._sample_shards(pipe_samples))
                pipe_local = parallel.monte_carlo_hits(
                    compiled, probs, pipe_samples, seed=SEED, workers=0
                )

                def pipe_call():
                    return distributed.monte_carlo_hits(
                        compiled, probs, pipe_samples, seed=SEED,
                        hosts=[relay.address],
                    )

                with config.overrides(pipeline_depth=1):
                    pipe_call()  # warm the relayed link on this shard grid
                    lockstep_seconds, lockstep_hits = _timed(pipe_call)
                pipe_depth = config.get("pipeline_depth")
                pipelined_seconds, pipelined_hits = _timed(pipe_call)
                assert pipe_local == lockstep_hits == pipelined_hits, (
                    "pipelined dispatch must stay bit-identical to lockstep "
                    "and to the local oracle"
                )
                pipelining_speedup = lockstep_seconds / pipelined_seconds
                print(f"\npipelining ({pipe_samples} samples, "
                      f"{n_pipe_shards} shards, 1 worker behind a "
                      f"{link_delay * 1e3:.0f} ms one-way relay):")
                print(f"{'lockstep (depth 1, old wire)':<38} "
                      f"{lockstep_seconds * 1e3:>8.1f} ms")
                print(f"{f'pipelined (depth {pipe_depth})':<38} "
                      f"{pipelined_seconds * 1e3:>8.1f} ms "
                      f"{pipelining_speedup:>8.2f}x")
                result["pipelining"] = {
                    "samples": pipe_samples,
                    "shards": n_pipe_shards,
                    "depth": pipe_depth,
                    "link_delay_seconds": link_delay,
                    "warm_unpipelined_seconds": lockstep_seconds,
                    "warm_pipelined_seconds": pipelined_seconds,
                    "speedup_vs_unpipelined": pipelining_speedup,
                    "estimates_identical": True,
                }
            finally:
                parallel.MC_SHARD = saved_shard
                relay.stop()

        host_lists = [
            [worker.address for worker in workers[:count]]
            for count in range(1, len(workers) + 1)
        ]
        distributed_seconds: dict[int, float] = {}
        hit_counts = {0: local_hits}
        for hosts in host_lists:
            seconds, hits = _timed(
                lambda hosts=hosts: distributed.monte_carlo_hits(
                    compiled, probs, MC_SAMPLES, seed=SEED, hosts=hosts
                )
            )
            distributed_seconds[len(hosts)] = seconds
            hit_counts[len(hosts)] = hits
            rows.append(
                (f"distributed, {len(hosts)} localhost worker(s)", seconds,
                 local_seconds / seconds, hits)
            )
        assert len(set(hit_counts.values())) == 1, (
            f"fixed-seed estimates must be identical across host counts: "
            f"{hit_counts}"
        )
        result["estimates_identical_across_host_counts"] = True
        result["distributed_seconds"] = {
            str(count): seconds for count, seconds in distributed_seconds.items()
        }

        print(f"\n{'path':<38} {'wall':>10} {'speedup':>9} {'estimate':>10}")
        for label, seconds, speedup, hits in rows:
            print(f"{label:<38} {seconds:>8.3f} s {speedup:>8.2f}x"
                  f" {hits / MC_SAMPLES:>10.6f}")

        if workers:
            hosts = [worker.address for worker in workers]
            matrix = np.tile(np.asarray(probs), (PROBABILITY_ROWS, 1))
            serial_seconds, serial_probs = _timed(
                lambda: compiled.probability_batch(matrix)
            )
            wire_seconds, wire_probs = _timed(
                lambda: distributed.probability_batch_distributed(
                    compiled, matrix, hosts=hosts
                )
            )
            assert wire_probs.tolist() == serial_probs, "wire rows must agree"
            print(f"\nprobability_batch, {PROBABILITY_ROWS} rows:")
            print(f"{'in-process float pass':<38} {serial_seconds:>8.3f} s")
            print(f"{'distributed, 2 workers':<38} {wire_seconds:>8.3f} s")
            result["probability_batch_rows"] = PROBABILITY_ROWS
            result["probability_batch_serial_seconds"] = serial_seconds
            result["probability_batch_distributed_seconds"] = wire_seconds
    finally:
        for worker in workers:
            worker.stop()

    result["note"] = (
        "all rows ran on one machine, so the distributed timings measure "
        "protocol + scheduling overhead on localhost, not multi-host "
        "scaling; estimates are asserted bit-identical across 0/1/2 workers "
        "after a serialize/deserialize round trip of the plan; the "
        "amortization rows isolate the persistent-pool win (connect + plan "
        "publish eliminated on warm calls), which holds on any CPU count"
    )
    out_path = _REPO_ROOT / "BENCH_distributed_eval.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {out_path}")
    print("determinism: estimates bit-identical across 0/1/2 localhost "
          "workers — PASS")


if __name__ == "__main__":
    main()
