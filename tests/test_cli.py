"""Tests for the experiment CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import config
from repro.cli import EXPERIMENTS, command_list, command_run, main


class TestCli:
    def test_experiment_index_complete(self):
        # E16 stays unassigned: the service-layer bench it was reserved
        # for landed as E19 once E17/E18 had taken the next slots.
        assert set(EXPERIMENTS) == (
            {f"E{i}" for i in range(1, 16)} | {"E17", "E18", "E19", "E20"}
        )

    def test_run_unknown_engine(self):
        with pytest.raises(SystemExit, match="unknown engine"):
            command_run("E1", engine="not-an-engine")

    def test_list_prints_all(self, capsys):
        command_list()
        output = capsys.readouterr().out
        for exp_id in EXPERIMENTS:
            assert exp_id in output

    def test_paper_command(self, capsys):
        assert main(["paper"]) == 0
        assert "Structurally Tractable" in capsys.readouterr().out

    def test_engines_command(self, capsys):
        from repro.circuits import parallel_available

        assert main(["engines"]) == 0
        output = capsys.readouterr().out
        for engine in ("enumerate", "shannon", "message_passing", "dd"):
            assert engine in output
        assert "numpy" in output
        assert "sharded multi-process backend" in output
        expected = "available" if parallel_available() else "unavailable"
        assert expected in output
        assert "distributed backend" in output

    def test_forced_engine_does_not_leak_out_of_run(self, capsys):
        assert main(["run", "E2", "--engine", "enumerate"]) == 0
        capsys.readouterr()
        assert config.get("forced_engine") is None

    def test_workers_flag_is_scoped_to_the_run(self, capsys):
        before = config.get("parallel_workers")
        assert main(["run", "E1", "--workers", "2"]) == 0
        capsys.readouterr()
        assert config.get("parallel_workers") == before

    def test_workers_flag_rejects_negative(self):
        with pytest.raises(SystemExit, match="workers"):
            command_run("E1", workers=-3)

    def test_run_unknown_experiment(self):
        with pytest.raises(SystemExit):
            command_run("E99")

    def test_unknown_experiment_names_the_table_range(self, capsys):
        """``python -m repro run E99`` and ``run --help`` name the range of
        the experiment table, first id to last."""
        span = f"{next(iter(EXPERIMENTS))}..{list(EXPERIMENTS)[-1]}"
        root = Path(__file__).resolve().parents[1]
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(root / "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run", "E99"], cwd=root, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode != 0
        assert f"unknown experiment 'E99'; use 'list' to see {span}" in (
            result.stderr
        )
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        assert f"({span})" in capsys.readouterr().out

    def test_run_small_experiment(self, capsys):
        # E1 is fast enough to run inside the test suite.
        assert main(["run", "E1"]) == 0
        output = capsys.readouterr().out
        assert "Figure 1" in output
        assert "0.9" in output

    def test_run_is_case_insensitive(self, capsys):
        assert main(["run", "e2"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_serve_http_refuses_a_cache_ttl(self, capsys):
        """The result cache has no TTL, so ``--cache-ttl`` is a usage error."""
        with pytest.raises(SystemExit) as exited:
            main(["serve-http", "--cache-ttl", "5"])
        assert exited.value.code == 2
        assert "--cache-ttl" in capsys.readouterr().err


class TestDistributedCli:
    def test_hosts_flag_rejects_malformed_spec(self):
        from repro.cli import command_run

        with pytest.raises(SystemExit, match="--hosts"):
            command_run("E1", hosts="not-a-hostport")

    def test_hosts_flag_is_scoped_to_the_run(self, capsys):
        before = config.get("distributed_hosts")
        # Port 1 is never listened on; the run must fall back to local
        # execution (warning once) and leave the knob untouched afterwards.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["run", "E1", "--hosts", "127.0.0.1:1"]) == 0
        capsys.readouterr()
        assert config.get("distributed_hosts") == before

    def test_dist_eval_without_hosts_stays_local(self, capsys, monkeypatch):
        from repro.circuits import distributed

        # Elastic members legitimately extend the empty default (the CI
        # distributed job keeps one REGISTERed worker around for the whole
        # suite), so neutralize them too: this test is about the truly
        # unconfigured path and its "start workers" hint.
        monkeypatch.setattr(distributed, "registered_hosts", lambda: ())
        with config.overrides(distributed_hosts=()):
            assert main(["dist-eval", "--samples", "2000"]) == 0
        output = capsys.readouterr().out
        assert "in-process estimate" in output
        assert "start workers" in output

    @pytest.mark.distributed
    def test_dist_eval_against_real_worker(self, capsys, worker_factory):
        worker = worker_factory()
        from repro.cli import worker_main

        assert worker_main(
            ["dist-eval", "--hosts", worker.address, "--samples", "2000"]
        ) == 0
        output = capsys.readouterr().out
        assert "determinism verified" in output

    def test_worker_main_requires_command(self):
        from repro.cli import worker_main

        with pytest.raises(SystemExit):
            worker_main([])
