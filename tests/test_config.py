"""The unified knob registry: configure / overrides / the legacy shims."""

import pytest

from repro import config
from repro.circuits import (
    default_engine,
    default_engine_set,
    distributed_hosts,
    distributed_hosts_set,
    engine_forced,
    forced_engine,
    parallel_workers,
    parallel_workers_set,
    pipeline_depth,
    plan_cache_dir,
    plan_cache_dir_set,
)
from repro.instances import instance_backend, instance_backend_set
from repro.util import ReproError

EXPECTED_KNOBS = (
    "auth_provider",
    "distributed_hosts",
    "distributed_secret",
    "distributed_tls",
    "engine",
    "forced_engine",
    "instance_backend",
    "parallel_workers",
    "pipeline_depth",
    "plan_cache_dir",
    "plan_cache_limit_bytes",
    "plan_cache_min_gates",
)


class TestRegistry:
    def test_knob_names(self):
        assert config.knobs() == EXPECTED_KNOBS

    def test_get_matches_owning_module(self):
        assert config.get("engine") == default_engine()
        assert config.get("forced_engine") == forced_engine()
        assert config.get("parallel_workers") == parallel_workers()
        assert config.get("distributed_hosts") == distributed_hosts()
        assert config.get("pipeline_depth") == pipeline_depth()
        assert config.get("plan_cache_dir") == plan_cache_dir()

    def test_unknown_knob_rejected(self):
        with pytest.raises(ReproError, match="unknown knob 'turbo'"):
            config.get("turbo")
        with pytest.raises(ReproError, match="unknown knob"):
            config.configure(turbo=11)
        with pytest.raises(ReproError, match="unknown knob"):
            with config.overrides(turbo=11):
                pass

    def test_describe_lists_every_knob(self):
        described = config.describe()
        assert tuple(described) == EXPECTED_KNOBS
        for name, entry in described.items():
            assert set(entry) == {"value", "doc", "env"}
            assert entry["doc"]
        assert described["parallel_workers"]["env"] == "REPRO_PARALLEL_WORKERS"
        assert described["engine"]["env"] is None


class TestConfigure:
    def test_round_trip(self):
        previous = config.get("engine")
        config.configure(engine="shannon")
        assert default_engine() == "shannon"
        config.configure(engine=previous)
        assert default_engine() == previous

    def test_multiple_knobs_one_call(self):
        config.configure(engine="dd", parallel_workers=3)
        assert default_engine() == "dd" and parallel_workers() == 3

    def test_setter_failure_rolls_back(self):
        engine_before = config.get("engine")
        workers_before = config.get("parallel_workers")
        with pytest.raises(ReproError):
            # Sorted application order sets 'engine' first; the invalid
            # worker count must roll it back.
            config.configure(engine="shannon", parallel_workers=-2)
        assert config.get("engine") == engine_before
        assert config.get("parallel_workers") == workers_before

    def test_invalid_engine_rejected_upfront(self):
        with pytest.raises(ReproError):
            config.configure(engine="warp-drive")


class TestOverrides:
    def test_scoped_and_restored(self):
        engine_before = default_engine()
        workers_before = parallel_workers()
        with config.overrides(engine="shannon", parallel_workers=2):
            assert default_engine() == "shannon" and parallel_workers() == 2
        assert default_engine() == engine_before
        assert parallel_workers() == workers_before

    def test_nesting(self):
        with config.overrides(engine="dd"):
            with config.overrides(engine="shannon"):
                assert default_engine() == "shannon"
            assert default_engine() == "dd"

    def test_restores_on_exception(self):
        before = default_engine()
        with pytest.raises(ValueError):
            with config.overrides(engine="shannon"):
                raise ValueError("boom")
        assert default_engine() == before

    def test_instance_backend_env_fallback_not_pinned(self, monkeypatch):
        # The override snapshot must capture "no override" (None), so the
        # env fallback stays live after restore rather than being frozen
        # to its value at entry.
        from repro.instances import columnar

        monkeypatch.setattr(columnar, "_BACKEND", None)
        monkeypatch.setenv("REPRO_INSTANCE_BACKEND", "object")
        with config.overrides(instance_backend="columnar"):
            assert instance_backend() == "columnar"
        assert columnar._BACKEND is None
        monkeypatch.setenv("REPRO_INSTANCE_BACKEND", "columnar")
        assert instance_backend() == "columnar"  # env still consulted

    def test_works_as_decorator(self):
        @config.overrides(engine="shannon")
        def inner():
            return default_engine()

        before = default_engine()
        assert inner() == "shannon"
        assert default_engine() == before


class TestLegacyShims:
    def test_default_engine_set(self):
        before = default_engine()
        with default_engine_set("shannon"):
            assert default_engine() == "shannon"
        assert default_engine() == before

    def test_engine_forced(self):
        assert forced_engine() is None
        with engine_forced("dd"):
            assert forced_engine() == "dd"
        assert forced_engine() is None

    def test_parallel_workers_set(self):
        before = parallel_workers()
        with parallel_workers_set(2):
            assert parallel_workers() == 2
        assert parallel_workers() == before

    def test_distributed_hosts_set(self):
        before = distributed_hosts()
        with distributed_hosts_set("127.0.0.1:7761"):
            assert distributed_hosts() == ("127.0.0.1:7761",)
        assert distributed_hosts() == before

    def test_instance_backend_set(self):
        with instance_backend_set("columnar"):
            assert instance_backend() == "columnar"

    def test_plan_cache_dir_set(self, tmp_path):
        with plan_cache_dir_set(str(tmp_path)):
            assert str(plan_cache_dir()) == str(tmp_path)

    def test_facade_exports(self):
        import repro

        assert repro.configure is config.configure
        assert repro.overrides is config.overrides
