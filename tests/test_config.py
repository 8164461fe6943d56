"""The knob registry: one declaration, one read rule, scoped overrides."""

import pytest

import repro
from repro import config
from repro.util import ReproError

EXPECTED_KNOBS = (
    "distributed_hosts",
    "distributed_secret",
    "distributed_tls",
    "engine",
    "forced_engine",
    "instance_backend",
    "parallel_workers",
    "pipeline_depth",
)

EXPECTED_ENV = {
    "distributed_hosts": "REPRO_DISTRIBUTED_HOSTS",
    "distributed_secret": "REPRO_DISTRIBUTED_SECRET",
    "distributed_tls": "REPRO_DISTRIBUTED_TLS_*",
    "engine": None,
    "forced_engine": None,
    "instance_backend": "REPRO_INSTANCE_BACKEND",
    "parallel_workers": "REPRO_PARALLEL_WORKERS",
    "pipeline_depth": "REPRO_DISTRIBUTED_PIPELINE",
}

#: Every variable a knob reads, cleared so each test sees the defaults.
KNOB_VARIABLES = [
    variable for variable in EXPECTED_ENV.values()
    if variable and not variable.endswith("*")
] + [
    "REPRO_DISTRIBUTED_TLS_CERT",
    "REPRO_DISTRIBUTED_TLS_KEY",
    "REPRO_DISTRIBUTED_TLS_CA",
]


@pytest.fixture
def clean_environment(monkeypatch):
    for variable in KNOB_VARIABLES:
        monkeypatch.delenv(variable, raising=False)
    return monkeypatch


def tls(certfile=None, keyfile=None, cafile=None):
    return {"certfile": certfile, "keyfile": keyfile, "cafile": cafile}


class TestRegistry:
    def test_knob_names(self):
        assert config.knobs() == EXPECTED_KNOBS

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
            assert entry["env"] == EXPECTED_ENV[name]
            assert entry["value"] == config.get(name)

    def test_facade_exports(self):
        assert repro.configure is config.configure
        assert repro.overrides is config.overrides


#: ``(knob, override, its read, (variable, text, the text's read))``: the
#: variable is set only after the override is gone, to show it is read.
ROUND_TRIPS = [
    ("engine", "shannon", "shannon", None),
    ("forced_engine", "dd", "dd", None),
    ("instance_backend", "columnar", "columnar",
     ("REPRO_INSTANCE_BACKEND", " columnar ", "columnar")),
    ("parallel_workers", 3, 3, ("REPRO_PARALLEL_WORKERS", "2", 2)),
    ("distributed_hosts", "a:1; b:2", ("a:1", "b:2"),
     ("REPRO_DISTRIBUTED_HOSTS", "h:7001", ("h:7001",))),
    ("distributed_secret", "hunter2", "hunter2",
     ("REPRO_DISTRIBUTED_SECRET", "s3cret", "s3cret")),
    ("distributed_tls", {"cafile": "ca.pem"}, tls(cafile="ca.pem"),
     ("REPRO_DISTRIBUTED_TLS_CERT", "c.pem", tls(certfile="c.pem"))),
    ("pipeline_depth", 7, 7, ("REPRO_DISTRIBUTED_PIPELINE", "9", 9)),
]


def test_round_trips_cover_every_knob():
    assert tuple(sorted(case[0] for case in ROUND_TRIPS)) == EXPECTED_KNOBS


@pytest.mark.parametrize(
    "name, value, expected, variable", ROUND_TRIPS,
    ids=[case[0] for case in ROUND_TRIPS],
)
def test_override_round_trip_restores_no_override(
    clean_environment, name, value, expected, variable
):
    """``get`` reads an override; on exit "no override" returns, so the
    knob's variable is read again rather than pinned at entry."""
    unset = config.get(name)
    with config.overrides(**{name: value}):
        assert config.get(name) == expected
    assert config.get(name) == unset
    if variable is not None:
        env, text, parsed = variable
        clean_environment.setenv(env, text)
        assert config.get(name) == parsed


#: Malformed configured values: each is refused naming its knob.
MALFORMED = [
    ("parallel_workers", 2.7),
    ("parallel_workers", True),
    ("parallel_workers", "x"),
    ("pipeline_depth", 2.5),
    ("pipeline_depth", "x"),
    ("distributed_hosts", 7761),
    ("distributed_hosts", ["127.0.0.1:7761", 7762]),
    ("distributed_tls", {"cafile": "c", "bogus": 1}),
    ("distributed_tls", "ca.pem"),
]


@pytest.mark.parametrize("name, value", MALFORMED)
def test_configure_refuses_malformed_values(name, value):
    before = {knob: config.get(knob) for knob in ("engine", name)}
    overrides_before = dict(config._OVERRIDES)
    with pytest.raises(ReproError, match=f"^{name}="):
        # A valid change in the same call must not be applied either.
        config.configure(engine="shannon", **{name: value})
    assert config._OVERRIDES == overrides_before
    assert {knob: config.get(knob) for knob in before} == before


class TestConfigure:
    def test_round_trip(self):
        previous = config.get("engine")
        config.configure(engine="shannon")
        assert config.get("engine") == "shannon"
        config.configure(engine=previous)
        assert config.get("engine") == previous

    def test_multiple_knobs_one_call(self):
        config.configure(engine="dd", parallel_workers=3)
        assert config.get("engine") == "dd"
        assert config.get("parallel_workers") == 3

    def test_refusal_rolls_back(self):
        engine_before = config.get("engine")
        workers_before = config.get("parallel_workers")
        with pytest.raises(ReproError, match="parallel_workers"):
            config.configure(engine="shannon", parallel_workers=-2)
        assert config.get("engine") == engine_before
        assert config.get("parallel_workers") == workers_before

    def test_invalid_engine_rejected_upfront(self):
        with pytest.raises(ReproError, match="unknown engine 'warp-drive'"):
            config.configure(engine="warp-drive")
        with pytest.raises(ReproError, match="forced_engine"):
            config.configure(forced_engine="warp-drive")


class TestOverrides:
    def test_scoped_and_restored(self):
        engine_before = config.get("engine")
        workers_before = config.get("parallel_workers")
        with config.overrides(engine="shannon", parallel_workers=2):
            assert config.get("engine") == "shannon"
            assert config.get("parallel_workers") == 2
        assert config.get("engine") == engine_before
        assert config.get("parallel_workers") == workers_before

    def test_nesting(self):
        with config.overrides(engine="dd"):
            with config.overrides(engine="shannon"):
                assert config.get("engine") == "shannon"
            assert config.get("engine") == "dd"

    def test_restores_on_exception(self):
        before = config.get("engine")
        with pytest.raises(ValueError):
            with config.overrides(engine="shannon"):
                raise ValueError("boom")
        assert config.get("engine") == before

    def test_instance_backend_none_follows_the_environment(self, clean_environment):
        clean_environment.setenv("REPRO_INSTANCE_BACKEND", "columnar")
        with config.overrides(instance_backend="object"):
            assert config.get("instance_backend") == "object"
            with config.overrides(instance_backend=None):
                assert config.get("instance_backend") == "columnar"
            assert config.get("instance_backend") == "object"

    def test_works_as_decorator(self):
        @config.overrides(engine="shannon")
        def inner():
            return config.get("engine")

        before = config.get("engine")
        assert inner() == "shannon"
        assert config.get("engine") == before
