"""Tests for the always-on query service (:mod:`repro.service`).

Three layers, matching the package:

- the **components** — result cache (LRU + TTL + counters), valuation
  hashing, latency histograms, the coalescer driven in-process with a stub
  evaluation hook, query parsing, the columnar instance payload round
  trip, and the batch-pass counters. No sockets, so these run
  everywhere;
- the **application** — :meth:`QueryService.dispatch` driven directly
  (the transport-independence the app layer promises): routing errors,
  plan registration, served marginals bit-identical to the library's
  ``probability_batch``, and result-cache behaviour across requests;
- the **service over a real socket** — a ``repro serve-http`` subprocess
  (or the live server named by ``REPRO_SERVICE_URL``, the CI job's mode):
  N concurrent clients coalesced into one matrix pass with bit-identical
  marginals, cache hits across requests, streaming Monte-Carlo
  bit-identical to :func:`repro.circuits.parallel.monte_carlo_hits`, the
  server-side compile path, and a hypothesis property pinning served
  marginals to the scalar ``compiled.probability`` oracle.

Socket tests carry the ``distributed`` marker so socket-free CI jobs can
deselect them.
"""

import asyncio
import base64
import json
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits import (
    batch_stats,
    compile_circuit,
    reset_batch_stats,
)
from repro.core import build_lineage, compile_query_plan
from repro.instances.columnar import ColumnarInstance
from repro.queries import atom, cq, variables
from repro.queries.cq import ConjunctiveQuery, UnionOfConjunctiveQueries, Variable
from repro.service import (
    Coalescer,
    LatencyHistogram,
    QueryService,
    ResultCache,
    ServiceClient,
    ServiceClientError,
    ServiceError,
    parse_query,
    spawn_service,
    valuation_hash,
)
from repro.util import ReproError, stable_rng
from repro.workloads import rst_chain_tid


def chain_setup(n: int = 40, probability: float = 0.25, seed: int = 7):
    """The R–S–T chain lineage: compiled circuit + its marginal row."""
    x, y = variables("x", "y")
    query = cq(atom("R", x), atom("S", x, y), atom("T", y))
    tid = rst_chain_tid(n, probability=probability, seed=seed)
    compiled = compile_circuit(build_lineage(tid.instance, query).circuit)
    space = tid.event_space()
    marginals = [space.probability(name) for name in compiled.variables()]
    return compiled, marginals


def direct_marginals(compiled, rows):
    """What the library computes for ``rows`` — the bit-identity oracle."""
    return compiled.probability_batch(np.asarray(rows, dtype=np.float64))


def unique_rows(count: int, width: int, rng) -> list[list[float]]:
    """Rows no earlier test can have cached (fresh random valuations)."""
    return [[rng.random() for _ in range(width)] for _ in range(count)]


# --------------------------------------------------------------------------- #
# valuation hashing


class TestValuationHash:
    def test_deterministic_and_order_sensitive(self):
        assert valuation_hash([0.25, 0.5]) == valuation_hash([0.25, 0.5])
        assert valuation_hash([0.25, 0.5]) != valuation_hash([0.5, 0.25])

    def test_numeric_type_does_not_matter(self):
        assert valuation_hash([1, 0]) == valuation_hash([1.0, 0.0])

    def test_width_matters(self):
        assert valuation_hash([0.5]) != valuation_hash([0.5, 0.5])


# --------------------------------------------------------------------------- #
# result cache


class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache(4)
        assert cache.get(("d", "h")) is None
        cache.put(("d", "h"), 0.25)
        assert cache.get(("d", "h")) == 0.25
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_lru_eviction_respects_recency(self):
        cache = ResultCache(2)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        assert cache.get("a") == 1.0  # refresh a; b is now oldest
        cache.put("c", 3.0)
        assert cache.get("b") is None
        assert cache.get("a") == 1.0
        assert cache.get("c") == 3.0
        assert cache.stats()["evictions"] == 1

    def test_zero_capacity_stores_nothing(self):
        cache = ResultCache(0)
        cache.put("k", 1.0)
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ReproError):
            ResultCache(-1)


# --------------------------------------------------------------------------- #
# latency histograms


class TestLatencyHistogram:
    def test_percentiles_are_bucket_bounds(self):
        histogram = LatencyHistogram()
        for _ in range(99):
            histogram.observe(0.0003)  # 0.3 ms -> the 0.5 ms bucket
        histogram.observe(0.010)  # 10 ms -> the 16 ms bucket
        stats = histogram.stats()
        assert stats["count"] == 100
        assert stats["p50_ms"] == 0.5
        assert stats["p99_ms"] == 0.5
        assert histogram.percentile(1.0) == 16.0

    def test_overflow_bucket_reports_observed_max(self):
        histogram = LatencyHistogram()
        histogram.observe(20.0)  # 20 000 ms, beyond the last bound
        assert histogram.percentile(0.99) == pytest.approx(20_000.0)
        assert histogram.stats()["max_ms"] == pytest.approx(20_000.0)

    def test_errors_counted_separately(self):
        histogram = LatencyHistogram()
        histogram.observe(0.001)
        histogram.observe(0.001, error=True)
        assert histogram.stats()["errors"] == 1
        assert histogram.stats()["count"] == 2


# --------------------------------------------------------------------------- #
# the coalescer, driven in-process with a stub pass


class _StubPass:
    """Evaluation hook standing in for the batch kernels: sum of the row.

    ``held=True`` keeps the first pass running until ``release`` is set,
    so a test can submit requests while a pass runs; ``fail_first`` makes
    that first pass raise instead of answering.
    """

    def __init__(self, held: bool = False, fail_first: bool = False):
        self.calls: list[list[list[float]]] = []
        self.release = asyncio.Event()
        if not held:
            self.release.set()
        self.fail_first = fail_first

    async def __call__(self, digest, rows):
        self.calls.append([list(row) for row in rows])
        if len(self.calls) == 1:
            await self.release.wait()
            if self.fail_first:
                raise ReproError("kernel exploded")
        return [sum(row) for row in rows]


def _submit_one(coalescer, value: float, peers=None):
    """One single-row request as a task on the running loop."""
    return asyncio.create_task(coalescer.submit(
        "digest", [valuation_hash([value])], [[value]], peers=peers
    ))


async def _yield_to_loop(times: int = 3) -> None:
    for _ in range(times):
        await asyncio.sleep(0)


class TestCoalescer:
    def test_barrier_merges_concurrent_requests_into_one_pass(self):
        stub = _StubPass()
        coalescer = Coalescer(stub)

        async def drive():
            rows = [[[float(i)], [float(i) + 10.0]] for i in range(4)]
            results = await asyncio.gather(*[
                coalescer.submit(
                    "digest", [valuation_hash(r) for r in client_rows],
                    client_rows, peers=4,
                )
                for client_rows in rows
            ])
            return rows, results

        rows, results = asyncio.run(drive())
        assert len(stub.calls) == 1, "peers=4 must produce exactly one pass"
        for client_rows, result in zip(rows, results):
            for row in client_rows:
                assert result[valuation_hash(row)] == sum(row)
        stats = coalescer.stats()
        assert stats["passes"] == 1
        assert stats["requests"] == 4
        assert stats["coalesced_requests"] == 3
        assert stats["max_requests_per_pass"] == 4

    def test_identical_rows_deduplicated_across_requests(self):
        stub = _StubPass()
        coalescer = Coalescer(stub)
        row = [0.25, 0.75]

        async def drive():
            return await asyncio.gather(*[
                coalescer.submit("digest", [valuation_hash(row)], [row], peers=3)
                for _ in range(3)
            ])

        results = asyncio.run(drive())
        assert len(stub.calls) == 1
        assert len(stub.calls[0]) == 1, "the stampeded row evaluates once"
        assert all(r[valuation_hash(row)] == 1.0 for r in results)
        assert coalescer.counters["rows_evaluated"] == 1
        assert coalescer.counters["rows_in"] == 3

    def test_nothing_held_at_rest_after_many_digests(self):
        """Once no pass is running, no bucket is open and no drain task
        runs for any digest, including digests whose passes overlapped."""
        stub = _StubPass()
        coalescer = Coalescer(stub)
        digests = [f"digest-{k}" for k in range(12)]

        async def drive():
            for digest in digests:
                await coalescer.submit(digest, [valuation_hash([1.0])], [[1.0]])
            await asyncio.gather(*[
                coalescer.submit(digest, [valuation_hash([float(i)])],
                                 [[float(i)]])
                for i in range(3) for digest in digests[:4]
            ])
            return dict(coalescer._drains), dict(coalescer._buckets)

        drains, buckets = asyncio.run(drive())
        assert drains == {} and buckets == {}
        assert coalescer.stats()["passes"] >= len(digests)

    def test_disabled_coalescer_runs_one_pass_per_request(self):
        stub = _StubPass()
        coalescer = Coalescer(stub, enabled=False)

        async def drive():
            return await asyncio.gather(*[
                coalescer.submit(
                    "digest", [valuation_hash([float(i)])], [[float(i)]]
                )
                for i in range(3)
            ])

        asyncio.run(drive())
        assert len(stub.calls) == 3
        assert coalescer.stats()["passes"] == 3
        assert coalescer.stats()["coalesced_requests"] == 0

    def test_lone_request_starts_its_pass_without_a_timer(self):
        """A lone request's pass starts within a few loop iterations and no
        timer is scheduled: nothing waits out a window."""
        stub = _StubPass()
        coalescer = Coalescer(stub)
        timers: list = []

        async def drive():
            loop = asyncio.get_running_loop()
            call_at = loop.call_at

            def counting_call_at(when, callback, *args, **kwargs):
                timers.append(callback)
                return call_at(when, callback, *args, **kwargs)

            loop.call_at = counting_call_at  # call_later goes through it
            try:
                request = _submit_one(coalescer, 2.0)
                await _yield_to_loop()
                started = list(stub.calls)
                return started, await request
            finally:
                del loop.call_at

        started, result = asyncio.run(drive())
        assert started == [[[2.0]]]
        assert timers == []
        assert result[valuation_hash([2.0])] == 2.0

    def test_requests_arriving_during_a_pass_share_the_next_one(self):
        """A first request runs its pass alone; the three that arrive while
        it runs make exactly one second pass, their rows in arrival order."""
        stub = _StubPass(held=True)
        coalescer = Coalescer(stub)
        values = (1.0, 2.0, 3.0, 4.0)

        async def drive():
            first = _submit_one(coalescer, values[0])
            await _yield_to_loop()
            started = list(stub.calls)
            later = [_submit_one(coalescer, value) for value in values[1:]]
            await _yield_to_loop()
            during = list(stub.calls)
            stub.release.set()
            return started, during, await asyncio.gather(first, *later)

        started, during, results = asyncio.run(drive())
        assert started == [[[1.0]]], "the first request starts pass 1 alone"
        assert during == started, "no second pass while the first runs"
        assert stub.calls == [[[1.0]], [[2.0], [3.0], [4.0]]]
        for value, result in zip(values, results):
            assert result == {valuation_hash([value]): value}
        stats = coalescer.stats()
        assert stats["passes"] == 2
        assert stats["max_requests_per_pass"] == 3
        assert stats["coalesced_requests"] == 2
        assert coalescer._buckets == {} and coalescer._drains == {}

    def test_failed_pass_fans_out_its_error_and_the_digest_recovers(self):
        """Every waiter of a failed pass gets its error; the request that
        arrived during that pass, and a request after it, are served."""
        stub = _StubPass(held=True, fail_first=True)
        coalescer = Coalescer(stub)

        async def drive():
            failing = [_submit_one(coalescer, value, peers=2)
                       for value in (1.0, 2.0)]
            await _yield_to_loop(10)  # the barrier wait takes a few more
            assert len(stub.calls) == 1, "the failing pass has started"
            arrived_during = _submit_one(coalescer, 3.0)
            stub.release.set()
            failed = await asyncio.gather(*failing, return_exceptions=True)
            served = await arrived_during
            after = await _submit_one(coalescer, 4.0)
            return failed, served, after

        failed, served, after = asyncio.run(drive())
        assert len(failed) == 2
        assert all(isinstance(r, ReproError) for r in failed)
        assert served == {valuation_hash([3.0]): 3.0}
        assert after == {valuation_hash([4.0]): 4.0}
        assert len(stub.calls) == 3
        assert coalescer._buckets == {} and coalescer._drains == {}

    def test_next_request_after_flush_opens_a_fresh_bucket(self):
        stub = _StubPass()
        coalescer = Coalescer(stub)

        async def drive():
            first = await coalescer.submit(
                "digest", [valuation_hash([1.0])], [[1.0]]
            )
            second = await coalescer.submit(
                "digest", [valuation_hash([2.0])], [[2.0]]
            )
            return first, second

        first, second = asyncio.run(drive())
        assert first[valuation_hash([1.0])] == 1.0
        assert second[valuation_hash([2.0])] == 2.0
        assert len(stub.calls) == 2


# --------------------------------------------------------------------------- #
# query parsing


class TestParseQuery:
    def test_atom_list_and_dict_forms_agree(self):
        as_lists = parse_query(
            {"atoms": [["R", ["?x"]], ["S", ["?x", "?y"]]]}
        )
        as_dicts = parse_query({"atoms": [
            {"relation": "R", "terms": ["?x"]},
            {"relation": "S", "terms": ["?x", "?y"]},
        ]})
        assert isinstance(as_lists, ConjunctiveQuery)
        assert as_lists == as_dicts

    def test_question_mark_means_variable_everything_else_constant(self):
        query = parse_query({"atoms": [["R", ["?x", "alice", 3]]]})
        terms = query.atoms[0].terms
        assert terms[0] == Variable("x")
        assert terms[1] == "alice"
        assert terms[2] == 3

    def test_disjuncts_build_a_ucq(self):
        query = parse_query({"disjuncts": [
            {"atoms": [["R", ["?x"]]]},
            {"atoms": [["T", ["?y"]]]},
        ]})
        assert isinstance(query, UnionOfConjunctiveQueries)
        assert len(query.disjuncts) == 2

    @pytest.mark.parametrize("spec", [
        "not an object",
        {},
        {"atoms": []},
        {"atoms": [["R"]]},
        {"atoms": [["", ["?x"]]]},
        {"atoms": [["R", ["?"]]]},
        {"atoms": [["R", [None]]]},
        {"disjuncts": []},
    ])
    def test_malformed_specs_rejected_with_400(self, spec):
        with pytest.raises(ServiceError) as excinfo:
            parse_query(spec)
        assert excinfo.value.status == 400


# --------------------------------------------------------------------------- #
# the serving compile entry point


class TestCompileQueryPlan:
    def test_unknown_method_rejected(self):
        tid = rst_chain_tid(5, probability=0.5, seed=0)
        x = variables("x")[0]
        with pytest.raises(ReproError, match="unknown compile method"):
            compile_query_plan(tid.instance, cq(atom("R", x)), method="magic")

    def test_lineage_plan_matches_the_tid_oracle(self):
        from repro.core import tid_probability

        x, y = variables("x", "y")
        query = cq(atom("R", x), atom("S", x, y), atom("T", y))
        tid = rst_chain_tid(12, probability=0.3, seed=3)
        space = tid.event_space()
        _lineage, plan = compile_query_plan(tid.instance, query)
        row = [space.probability(name) for name in plan.variables()]
        assert plan.probability(row) == pytest.approx(
            tid_probability(query, tid), abs=1e-12
        )

    def test_lineage_works_on_columnar_instances(self):
        x, y = variables("x", "y")
        query = cq(atom("R", x), atom("S", x, y), atom("T", y))
        tid = rst_chain_tid(10, probability=0.3, seed=4)
        space = tid.event_space()
        _lineage, from_tid = compile_query_plan(tid.instance, query)
        instance = ColumnarInstance.from_instance(tid.instance)
        _lineage, from_columnar = compile_query_plan(instance, query)
        row = [space.probability(name) for name in from_tid.variables()]
        columnar_row = [
            space.probability(name) for name in from_columnar.variables()
        ]
        assert from_columnar.probability(columnar_row) == pytest.approx(
            from_tid.probability(row), abs=1e-12
        )

    def test_provenance_method_builds_the_monotone_circuit(self):
        x = variables("x")[0]
        tid = rst_chain_tid(6, probability=0.5, seed=5)
        lineage, _plan = compile_query_plan(
            tid.instance, cq(atom("R", x)), method="provenance"
        )
        kinds = {
            lineage.circuit.gate(g).kind
            for g in lineage.circuit.reachable_from_output()
        }
        assert "not" not in kinds


# --------------------------------------------------------------------------- #
# columnar instance payloads (the /compile ingest format)


class TestColumnarPayload:
    def test_round_trip_preserves_facts_and_codes(self):
        tid = rst_chain_tid(15, probability=0.4, seed=5)
        original = ColumnarInstance.from_instance(tid.instance)
        payload = original.to_payload()
        restored, fids = ColumnarInstance.ingest_payload(payload)
        assert payload == restored.to_payload()
        for relation, columns in payload["relations"].items():
            n_rows = len(columns[0]) if columns else 0
            assert len(fids[relation]) == n_rows

    def test_payload_is_json_serializable(self):
        tid = rst_chain_tid(6, probability=0.5, seed=1)
        payload = ColumnarInstance.from_instance(tid.instance).to_payload()
        assert json.loads(json.dumps(payload)) == payload

    def test_wrong_version_rejected(self):
        tid = rst_chain_tid(4, probability=0.5, seed=2)
        payload = ColumnarInstance.from_instance(tid.instance).to_payload()
        payload["version"] = 99
        with pytest.raises(ReproError):
            ColumnarInstance.ingest_payload(payload)

    def test_out_of_range_code_rejected(self):
        tid = rst_chain_tid(4, probability=0.5, seed=2)
        payload = ColumnarInstance.from_instance(tid.instance).to_payload()
        name = next(iter(payload["relations"]))
        payload["relations"][name][0][0] = 2**30
        with pytest.raises(ReproError):
            ColumnarInstance.ingest_payload(payload)


# --------------------------------------------------------------------------- #
# batch-pass counters (the "passes executed" proof the service tests use)


class TestBatchStats:
    def test_probability_batch_counts_passes_and_rows(self):
        compiled, marginals = chain_setup(n=8, seed=11)
        reset_batch_stats()
        before = batch_stats()
        direct_marginals(compiled, [marginals, marginals])
        after = batch_stats()
        assert after["probability_passes"] == before["probability_passes"] + 1
        assert after["probability_rows"] == before["probability_rows"] + 2

    def test_evaluate_batch_counts_worlds(self):
        compiled, _marginals = chain_setup(n=6, seed=12)
        n = len(compiled.variables())
        reset_batch_stats()
        compiled.evaluate_batch([[0] * n, [1] * n, [0] * n])
        stats = batch_stats()
        assert stats["evaluate_passes"] == 1
        assert stats["evaluate_rows"] == 3

    def test_lifetime_totals_survive_reset(self):
        compiled, marginals = chain_setup(n=6, seed=13)
        direct_marginals(compiled, [marginals])
        lifetime_before = batch_stats(lifetime=True)["probability_passes"]
        reset_batch_stats()
        assert batch_stats()["probability_passes"] == 0
        direct_marginals(compiled, [marginals])
        lifetime_after = batch_stats(lifetime=True)["probability_passes"]
        assert lifetime_after == lifetime_before + 1


# --------------------------------------------------------------------------- #
# the application layer, driven without a socket


#: Row values both marginal endpoints refuse, by test id.
BAD_MARGINALS = {
    "true": True, "false": False, "negative": -0.25, "above-one": 1.5,
    "two": 2.0, "nan": math.nan, "inf": math.inf, "minus-inf": -math.inf,
    "huge-int": 10 ** 400, "numeric-string": "0.5", "null": None,
    "list": [0.5],
}


def dispatch(service, method, path, payload=None):
    body = b"" if payload is None else json.dumps(payload).encode()
    return asyncio.run(service.dispatch(method, path, body))


@pytest.fixture
def app():
    service = QueryService()
    yield service
    service.close()


class TestQueryServiceDispatch:
    def test_unknown_path_404_and_wrong_method_405(self, app):
        status, payload = dispatch(app, "GET", "/nope")
        assert status == 404
        status, payload = dispatch(app, "GET", "/probability")
        assert status == 405
        assert "error" in payload

    def test_invalid_json_body_400(self, app):
        status, payload = asyncio.run(
            app.dispatch("POST", "/probability", b"{not json")
        )
        assert status == 400

    def test_unknown_digest_404_names_the_registration_paths(self, app):
        status, payload = dispatch(
            app, "POST", "/probability",
            {"digest": "0" * 32, "rows": [[0.5]]},
        )
        assert status == 404
        assert "/plans" in payload["error"]

    def test_register_then_serve_bit_identical(self, app):
        compiled, marginals = chain_setup(n=20, seed=21)
        encoded = base64.b64encode(compiled.wire_bytes()).decode("ascii")
        status, registered = dispatch(app, "POST", "/plans",
                                      {"plan_b64": encoded})
        assert status == 200
        assert registered["digest"] == compiled.plan_digest()
        assert registered["n_vars"] == len(compiled.variables())
        assert registered["already_registered"] is False
        rng = stable_rng(97)
        rows = [marginals] + unique_rows(3, len(marginals), rng)
        status, served = dispatch(
            app, "POST", "/probability",
            {"digest": registered["digest"], "rows": rows},
        )
        assert status == 200
        expected = [float(v) for v in direct_marginals(compiled, rows)]
        assert served["marginals"] == expected
        assert served["cache_misses"] == len(rows)

    def test_second_request_is_served_from_the_result_cache(self, app):
        compiled, marginals = chain_setup(n=10, seed=22)
        encoded = base64.b64encode(compiled.wire_bytes()).decode("ascii")
        _status, registered = dispatch(app, "POST", "/plans",
                                       {"plan_b64": encoded})
        body = {"digest": registered["digest"], "rows": [marginals]}
        _status, first = dispatch(app, "POST", "/probability", body)
        _status, second = dispatch(app, "POST", "/probability", body)
        assert second["cache_hits"] == 1
        assert second["cache_misses"] == 0
        assert second["marginals"] == first["marginals"]
        assert app.cache.stats()["hits"] >= 1

    def test_row_width_validated(self, app):
        compiled, marginals = chain_setup(n=10, seed=23)
        encoded = base64.b64encode(compiled.wire_bytes()).decode("ascii")
        _status, registered = dispatch(app, "POST", "/plans",
                                       {"plan_b64": encoded})
        status, payload = dispatch(
            app, "POST", "/probability",
            {"digest": registered["digest"], "rows": [marginals[:-1]]},
        )
        assert status == 400
        assert str(len(marginals)) in payload["error"]

    @pytest.mark.parametrize(
        "endpoint, bad",
        [pytest.param(endpoint, value, id=prefix + name)
         for endpoint, prefix in (("/probability", ""), ("/sample", "sample-"))
         for name, value in BAD_MARGINALS.items()],
    )
    def test_marginals_outside_the_unit_interval_refused(
        self, app, endpoint, bad
    ):
        """A bool, a non-number (a numeric string included) or a value
        outside [0, 1] (NaN, ±inf and an integer too large for a float
        included) is refused with 400 before the result cache, the
        coalescer or a Monte-Carlo stream sees the request's rows."""
        compiled, marginals = chain_setup(n=10, seed=25)
        encoded = base64.b64encode(compiled.wire_bytes()).decode("ascii")
        _status, registered = dispatch(app, "POST", "/plans",
                                       {"plan_b64": encoded})
        row = list(marginals)
        row[3] = bad
        if endpoint == "/probability":
            body = {"digest": registered["digest"], "rows": [marginals, row]}
        else:
            body = {"digest": registered["digest"], "row": row,
                    "samples": 64, "seed": 0}
        cache_before = app.cache.stats()
        coalescer_before = dict(app.coalescer.counters)
        streams_before = dict(app.stream_stats)
        response = dispatch(app, "POST", endpoint, body)
        assert isinstance(response, tuple), "a stream was started"
        status, payload = response
        assert status == 400
        assert "[0, 1]" in payload["error"]
        assert app.cache.stats() == cache_before
        assert app.coalescer.counters == coalescer_before
        assert app.stream_stats == streams_before

    def test_sample_runs_a_compiled_plans_own_level_plan(self, app, monkeypatch):
        """``/sample`` on a compiled plan draws through that circuit's level
        plan, decoding no wire bytes, and counts the pool's hits."""
        from repro.circuits import distributed, parallel
        from repro.service.app import _PlanEntry

        def no_decode(_data):
            raise AssertionError("/sample decoded the plan's wire bytes")

        compiled, marginals = chain_setup(n=10, seed=29)
        app._register(_PlanEntry(compiled.plan_digest(), compiled=compiled))
        monkeypatch.setattr(distributed, "plan_from_bytes", no_decode)
        samples = parallel.MC_SHARD + 100
        stream = dispatch(app, "POST", "/sample", {
            "digest": compiled.plan_digest(), "row": marginals,
            "samples": samples, "seed": 2,
        })

        async def drain():
            return [update async for update in stream.factory(asyncio.Event())]

        updates = asyncio.run(drain())
        assert updates[-1]["done"] and updates[-1]["samples"] == samples
        assert updates[-1]["hits"] == parallel.monte_carlo_hits(
            compiled, marginals, samples, seed=2, workers=0
        )

    def test_served_digests_leave_nothing_in_the_coalescer(self, app):
        """A service that has served K distinct digests holds no open
        bucket and no drain task once their passes are done."""
        for n in (6, 7, 8, 9):
            compiled, marginals = chain_setup(n=n, seed=27)
            encoded = base64.b64encode(compiled.wire_bytes()).decode("ascii")
            _status, registered = dispatch(app, "POST", "/plans",
                                           {"plan_b64": encoded})
            status, _served = dispatch(
                app, "POST", "/probability",
                {"digest": registered["digest"], "rows": [marginals]},
            )
            assert status == 200
        assert app.coalescer.stats()["passes"] == 4
        assert app.coalescer._buckets == {} and app.coalescer._drains == {}

    def test_unit_interval_bounds_and_negative_zero_accepted(self, app):
        compiled, marginals = chain_setup(n=10, seed=26)
        encoded = base64.b64encode(compiled.wire_bytes()).decode("ascii")
        _status, registered = dispatch(app, "POST", "/plans",
                                       {"plan_b64": encoded})
        rows = [[0.0] * len(marginals), [1.0] * len(marginals),
                [-0.0] * len(marginals), marginals]
        status, served = dispatch(
            app, "POST", "/probability",
            {"digest": registered["digest"], "rows": rows},
        )
        assert status == 200
        expected = direct_marginals(compiled, rows)
        assert np.array_equal(
            np.asarray(served["marginals"]).view(np.uint64),
            np.asarray(expected).view(np.uint64),
        )

    @pytest.mark.parametrize(
        "field, value",
        (("seed", -1), ("seed", True), ("samples", True), ("samples", 0)),
    )
    def test_sample_request_validated(self, app, field, value):
        compiled, marginals = chain_setup(n=10, seed=24)
        encoded = base64.b64encode(compiled.wire_bytes()).decode("ascii")
        _status, registered = dispatch(app, "POST", "/plans",
                                       {"plan_b64": encoded})
        body = {"digest": registered["digest"], "row": marginals,
                "samples": 64, "seed": 0, field: value}
        status, payload = dispatch(app, "POST", "/sample", body)
        assert status == 400
        assert repr(field) in payload["error"]

    def test_corrupt_wire_plan_rejected(self, app):
        status, payload = dispatch(
            app, "POST", "/plans",
            {"plan_b64": base64.b64encode(b"garbage").decode("ascii")},
        )
        assert status == 400
        assert "rejected wire plan" in payload["error"]

    def test_stats_exposes_every_layer(self, app):
        status, stats = dispatch(app, "GET", "/stats")
        assert status == 200
        for key in ("plans", "result_cache", "coalescer", "streams",
                    "pool", "compile", "batch", "endpoints"):
            assert key in stats
        status, _ = dispatch(app, "GET", "/health")
        assert status == 200
        status, stats = dispatch(app, "GET", "/stats")
        assert stats["endpoints"]["/health"]["count"] >= 1


# --------------------------------------------------------------------------- #
# the service over a real socket


@pytest.fixture(scope="module")
def chain():
    return chain_setup()


@pytest.fixture(scope="module")
def live_service():
    """The CI job's live server if ``REPRO_SERVICE_URL`` names one, else a
    subprocess spawned (and torn down) for this module."""
    url = os.environ.get("REPRO_SERVICE_URL")
    if url:
        yield url
        return
    handle = spawn_service()
    try:
        yield handle.url
    finally:
        try:
            handle.client(timeout=5.0).shutdown()
        except Exception:
            pass
        handle.stop()


@pytest.fixture
def client(live_service):
    service_client = ServiceClient(live_service)
    yield service_client
    service_client.close()


@pytest.mark.distributed
class TestServiceOverSocket:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0

    def test_served_marginals_bit_identical_to_library(self, client, chain):
        compiled, marginals = chain
        digest = client.register_compiled(compiled)
        assert digest == compiled.plan_digest()
        rng = stable_rng(101)
        rows = [marginals] + unique_rows(5, len(marginals), rng)
        response = client.probability(digest, rows)
        expected = [float(v) for v in direct_marginals(compiled, rows)]
        assert response["marginals"] == expected

    def test_repeat_request_hits_the_result_cache(self, client, chain):
        compiled, marginals = chain
        digest = client.register_compiled(compiled)
        rows = unique_rows(4, len(marginals), stable_rng(202))
        first = client.probability(digest, rows)
        assert first["cache_misses"] == len(rows)
        second = client.probability(digest, rows)
        assert second["cache_hits"] == len(rows)
        assert second["cache_misses"] == 0
        assert second["marginals"] == first["marginals"]

    def test_concurrent_requests_coalesce_into_one_pass(
        self, live_service, chain
    ):
        """The tentpole claim over real sockets: N clients, one matrix pass,
        bit-identical marginals."""
        compiled, marginals = chain
        n_clients = 8
        registrar = ServiceClient(live_service)
        try:
            digest = registrar.register_compiled(compiled)
            passes_before = registrar.stats()["coalescer"]["passes"]
        finally:
            registrar.close()
        rng = stable_rng(303)
        per_client = [unique_rows(2, len(marginals), rng)
                      for _ in range(n_clients)]
        results: list = [None] * n_clients
        errors: list = []
        start = threading.Barrier(n_clients)

        def worker(index: int) -> None:
            service_client = ServiceClient(live_service)
            try:
                start.wait(timeout=10.0)
                results[index] = service_client.probability(
                    digest, per_client[index], peers=n_clients
                )
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                service_client.close()

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors, errors
        checker = ServiceClient(live_service)
        try:
            passes_after = checker.stats()["coalescer"]["passes"]
        finally:
            checker.close()
        assert passes_after - passes_before == 1, (
            "8 coalesced requests must execute exactly one matrix pass"
        )
        for rows, response in zip(per_client, results):
            expected = [float(v) for v in direct_marginals(compiled, rows)]
            assert response["marginals"] == expected

    def test_streaming_monte_carlo_matches_the_parallel_estimator(
        self, client, chain
    ):
        from repro.circuits import parallel

        compiled, marginals = chain
        digest = client.register_compiled(compiled)
        samples = 2 * parallel.MC_SHARD + 500
        updates = list(client.sample(digest, marginals, samples=samples))
        assert len(updates) == 3
        assert [u["done"] for u in updates] == [False, False, True]
        assert updates[-1]["samples"] == samples
        local_hits = parallel.monte_carlo_hits(
            compiled, marginals, samples, seed=0
        )
        assert updates[-1]["hits"] == local_hits
        assert updates[-1]["estimate"] == local_hits / samples

    def test_unknown_digest_is_a_clean_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.probability("f" * 32, [[0.5]])
        assert excinfo.value.status == 404

    def test_row_width_rejected_with_400(self, client, chain):
        compiled, marginals = chain
        digest = client.register_compiled(compiled)
        with pytest.raises(ServiceClientError) as excinfo:
            client.probability(digest, [marginals[:-1]])
        assert excinfo.value.status == 400

    def test_server_side_compile_matches_local_compile(self, client):
        tid = rst_chain_tid(18, probability=0.35, seed=31)
        instance = ColumnarInstance.from_instance(tid.instance)
        payload = instance.to_payload()
        space = tid.event_space()
        _restored, fids = ColumnarInstance.ingest_payload(payload)
        probabilities = {
            relation: [space.probability(name)
                       for name in _restored.variable_names_for(row_fids)]
            for relation, row_fids in fids.items()
        }
        query_spec = {
            "atoms": [["R", ["?x"]], ["S", ["?x", "?y"]], ["T", ["?y"]]]
        }
        response = client.compile(payload, query_spec,
                                  probabilities=probabilities)
        x, y = variables("x", "y")
        query = cq(atom("R", x), atom("S", x, y), atom("T", y))
        # The local oracle compiles the *ingested* instance: ingest is
        # deterministic, so server and client agree on the exact plan.
        _lineage, plan = compile_query_plan(_restored, query)
        assert response["digest"] == plan.plan_digest()
        assert response["variables"] == list(plan.variables())
        served = client.probability(
            response["digest"], [response["default_row"]]
        )
        expected = direct_marginals(plan, [response["default_row"]])
        assert served["marginals"] == [float(v) for v in expected]
        from repro.core import tid_probability

        assert served["marginals"][0] == pytest.approx(
            tid_probability(query, tid), abs=1e-12
        )

    def test_compile_rejects_non_probability_methods(self, client):
        tid = rst_chain_tid(4, probability=0.5, seed=32)
        payload = ColumnarInstance.from_instance(tid.instance).to_payload()
        with pytest.raises(ServiceClientError) as excinfo:
            client.compile(payload, {"atoms": [["R", ["?x"]]]},
                           method="provenance")
        assert excinfo.value.status == 400
        assert "probability-valid" in str(excinfo.value)

    def test_stats_covers_every_layer_over_the_wire(self, client):
        stats = client.stats()
        for key in ("plans", "result_cache", "coalescer", "streams", "pool",
                    "compile", "batch", "endpoints"):
            assert key in stats
        assert stats["endpoints"], "latency histograms must be populated"
        sample = next(iter(stats["endpoints"].values()))
        for key in ("count", "p50_ms", "p99_ms", "mean_ms", "errors"):
            assert key in sample


@pytest.mark.distributed
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_property_served_marginal_matches_scalar_oracle(
    live_service, chain, data
):
    """Property: any valuation row served over the wire equals the scalar
    ``compiled.probability`` oracle (through caching and coalescing)."""
    compiled, marginals = chain
    width = len(marginals)
    row = data.draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=width, max_size=width,
    ))
    service_client = ServiceClient(live_service)
    try:
        digest = service_client.register_compiled(compiled)
        response = service_client.probability(digest, [row])
    finally:
        service_client.close()
    oracle = compiled.probability([float(v) for v in row])
    assert response["marginals"][0] == pytest.approx(oracle, abs=1e-12)
