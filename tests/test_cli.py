"""Tests for the experiment CLI."""

import pytest

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
        from repro.circuits import forced_engine

        assert main(["run", "E2", "--engine", "enumerate"]) == 0
        capsys.readouterr()
        assert forced_engine() is None

    def test_workers_flag_is_scoped_to_the_run(self, capsys):
        from repro.circuits import parallel_workers

        before = parallel_workers()
        assert main(["run", "E1", "--workers", "2"]) == 0
        capsys.readouterr()
        assert parallel_workers() == before

    def test_workers_flag_rejects_negative(self):
        with pytest.raises(SystemExit, match="workers"):
            command_run("E1", workers=-3)

    def test_run_unknown_experiment(self):
        with pytest.raises(SystemExit):
            command_run("E99")

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


class TestDistributedCli:
    def test_hosts_flag_rejects_malformed_spec(self):
        from repro.cli import command_run

        with pytest.raises(SystemExit, match="--hosts"):
            command_run("E1", hosts="not-a-hostport")

    def test_hosts_flag_is_scoped_to_the_run(self, capsys):
        from repro.circuits import distributed_hosts

        before = distributed_hosts()
        # Port 1 is never listened on; the run must fall back to local
        # execution (warning once) and leave the knob untouched afterwards.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["run", "E1", "--hosts", "127.0.0.1:1"]) == 0
        capsys.readouterr()
        assert distributed_hosts() == before

    def test_dist_eval_without_hosts_stays_local(self, capsys, monkeypatch):
        from repro.circuits import distributed

        # Elastic members legitimately extend the empty default (the CI
        # distributed job keeps one REGISTERed worker around for the whole
        # suite), so neutralize them too: this test is about the truly
        # unconfigured path and its "start workers" hint.
        monkeypatch.setattr(distributed, "registered_hosts", lambda: ())
        with distributed.distributed_hosts_set(()):
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
