"""Toy-size smoke test of the benchmark.

Runs every workload at ``--scale toy`` and checks the result contract:
every end-to-end and per-layer metric is emitted with its unit, every
answer passes its oracle, and a deliberately corrupted answer is counted
as wrong rather than passed. Run it with::

    python3 -m pytest perfbench/smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import END_TO_END, PER_LAYER
from run import WORKLOADS


def bench(workload: str, trace: int, *extra: str, cwd: Path = HERE.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "toy", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == (PER_LAYER if trace else END_TO_END)
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert f"error_rate 0 (0 of {result['attempted']} answers wrong)" in lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_answer_counts_as_an_error(workload):
    done = bench(workload, 0, "--corrupt")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    attempted = result["attempted"]
    assert result["failed"] == 1 and not result["correct"]
    assert (f"error_rate {1 / attempted:.6g} (1 of {attempted} answers wrong)"
            in lines)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_fails_without_the_program(tmp_path):
    """Given only the benchmark's own files, it exits non-zero, no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
