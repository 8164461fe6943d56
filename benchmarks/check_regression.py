"""Gate the benchmark JSONs against their committed trajectory.

CI regenerates ``BENCH_*.json`` on every push, but until this check the
fresh numbers were only *uploaded*, never *compared* — a perf regression
could merge silently as long as the benches still ran. This script closes
that hole: each job snapshots the committed JSONs into a baseline
directory before running its bench, then calls this checker, which fails
the job when a headline metric drops below an explicit tolerance.

Two kinds of metric are distinguished deliberately:

- **gated** — correctness booleans (estimates bit-identical across
  worker/host counts) and machine-independent wins (the persistent-pool
  amortization, which eliminates protocol overhead rather than exploiting
  cores) fail the job when they regress;
- **report-only** — wall-clock parallel/batch speedups, which on the known
  1-CPU CI containers honestly collapse to ~1x and swing run to run, are
  printed with their committed counterpart but never fail the job. The
  tolerance column keeps them visible so a future multicore runner can
  flip them to gated.

Usage::

    python benchmarks/check_regression.py --baseline .bench-baseline \
        BENCH_distributed_eval.json            # one file
    python benchmarks/check_regression.py      # every known file

Exit status 0 means every gated metric held; 1 means at least one
regressed (or a bench stopped emitting a headline metric entirely).
Metrics present in the fresh file but absent from the committed baseline
are treated as newly introduced and pass with a note.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: (file, dotted metric path, mode, threshold).
#:
#: Modes: ``ratio`` gates ``fresh >= threshold * committed`` (a guard
#: against losing an already-achieved speedup), ``min`` gates an absolute
#: floor, ``max`` an absolute ceiling, ``true`` a correctness boolean, and
#: ``report`` prints without gating (known 1-CPU-container metrics).
HEADLINES: list[tuple[str, str, str, float | None]] = [
    ("BENCH_compiled_eval.json", "batch_speedup", "ratio", 0.2),
    ("BENCH_compiled_eval.json", "probability_batch_speedup", "ratio", 0.3),
    ("BENCH_compiled_eval.json", "kernel_batch_speedup", "report", None),
    ("BENCH_parallel_eval.json", "estimates_identical_across_worker_counts",
     "true", None),
    ("BENCH_parallel_eval.json", "speedup_at_4_workers", "report", None),
    ("BENCH_parallel_eval.json", "fused_kernel_speedup", "report", None),
    ("BENCH_distributed_eval.json", "estimates_identical_across_host_counts",
     "true", None),
    ("BENCH_distributed_eval.json", "amortization.amortized_speedup",
     "min", 1.2),
    ("BENCH_distributed_eval.json",
     "amortization.plans_republished_during_warm_repeats", "max", 0),
    ("BENCH_distributed_eval.json", "plan_wire_bytes", "report", None),
    # Shard pipelining (the fleet-transport change): keeping PIPELINE_DEPTH
    # task frames in flight must never be slower than lockstep. The bench
    # measures through a 1 ms latency relay (bare loopback has no round
    # trip to hide, so the ratio there is scheduler noise) — in that
    # regime pipelining's removal of one RTT of dead air per shard is
    # structural, machine-independent, and holds on 1 CPU. The floor is
    # 1.0 (pipelined >= unpipelined, same warm pool, same shard grid,
    # same link); the boolean pins the pipelined estimate bit-identical
    # to the local oracle.
    ("BENCH_distributed_eval.json", "pipelining.speedup_vs_unpipelined",
     "min", 1.0),
    ("BENCH_distributed_eval.json", "pipelining.estimates_identical",
     "true", None),
    # E17 compile path. The speedup floor sits under the measured number
    # with CI-noise headroom; the booleans pin the array lowering
    # bit-identical to the per-gate python lowering, on E13's lineage and
    # on a lineage 11,998 levels deep, which must lower on the array path.
    ("BENCH_compile_path.json", "vectorized_speedup", "min", 4.0),
    ("BENCH_compile_path.json", "vectorized_equals_python", "true", None),
    ("BENCH_compile_path.json", "deep_vectorized_equals_python", "true", None),
    ("BENCH_compile_path.json", "monitor_requery_seconds", "report", None),
    # E18 columnar pipeline. The speedup floor sits under the measured
    # ~12x with CI-noise headroom; the booleans pin the columnar pipeline
    # bit-identical (circuits, lowerings, Monte-Carlo marginals) to the
    # object path, and the 10^6-fact run must finish without materializing
    # a single Fact object.
    ("BENCH_columnar_pipeline.json", "speedup_at_1e5", "min", 6.0),
    ("BENCH_columnar_pipeline.json", "pipeline_bit_identical", "true", None),
    ("BENCH_columnar_pipeline.json", "marginals_bit_identical", "true", None),
    ("BENCH_columnar_pipeline.json", "columnar_1e6_completed", "true", None),
    ("BENCH_columnar_pipeline.json", "columnar_1e6_facts_materialized",
     "max", 0),
    # The 10^6-fact query and provenance layers and the whole pipeline,
    # printed beside the committed times so a change to the join or the
    # witness-DNF append shows in the job log. Wall-clock: report-only.
    ("BENCH_columnar_pipeline.json", "sizes.1e6.columnar_seconds.query",
     "report", None),
    ("BENCH_columnar_pipeline.json", "sizes.1e6.columnar_seconds.provenance",
     "report", None),
    ("BENCH_columnar_pipeline.json", "sizes.1e6.columnar_seconds.total",
     "report", None),
    # E19 query service. The speedup floor sits well under the measured
    # ~3x (coalescing eliminates per-request kernel launches, so like the
    # E15 amortization headline it holds on 1 CPU); the passes ceiling
    # pins that coalescing actually merges requests (measured 0.023
    # passes/request at 64 clients — 0.5 allows heavy scheduler jitter
    # but not a silent fall-back to one-pass-per-request); the boolean
    # pins every served marginal to probability_batch *bitwise* — the
    # batch plan routes single-row passes through the wide-batch
    # reduction order, so even the one-row-per-pass uncoalesced baseline
    # produces identical doubles (see bench_service.py). The ratio's
    # denominator is the uncoalesced QPS, which a cheaper lone pass raises,
    # so the absolute QPS of both modes at 64 clients is reported beside it.
    # At one client coalescing must cost a lone request next to nothing: a
    # bucket runs as soon as no pass for its digest is running. The ratio
    # is measured with one client alternating between the two services
    # (bench_service.one_client_ratio): 0.98-0.99 over three runs on a
    # 2-vCPU container, where the fixed 2 ms flush window it replaced read
    # 0.67-0.71. The floor is 0.75, not ROADMAP item 5's 0.9: the window's
    # cost is a share of the pass time, so its reading drifts with the
    # host's speed, and 0.9 leaves too little room below 1 for CI noise.
    ("BENCH_service.json", "coalesced_vs_uncoalesced_qps_at_1", "min", 0.75),
    ("BENCH_service.json", "coalescing_speedup_at_64", "min", 1.5),
    ("BENCH_service.json", "modes.coalesced.cells.64.qps", "report", None),
    ("BENCH_service.json", "modes.uncoalesced.cells.64.qps", "report", None),
    ("BENCH_service.json", "passes_per_request_at_64", "max", 0.5),
    ("BENCH_service.json", "served_matches_direct", "true", None),
    ("BENCH_service.json", "p99_ms_coalesced_at_64", "report", None),
    ("BENCH_service.json", "p99_ms_uncoalesced_at_64", "report", None),
    # E20 certain answers. All machine-independent: the classifier must
    # keep the three canonical Koutris–Wijsen queries in their published
    # trichotomy classes (stable under atom reordering), every routed
    # answer must bit-match the all-repairs oracle across the whole
    # rate x seed grid, and the FO route must answer without compiling a
    # single circuit. The rewrite-vs-circuit-fallback speedup is
    # wall-clock and stays report-only like every other timing headline.
    ("BENCH_cqa.json", "classifier_matches_published_classes", "true", None),
    ("BENCH_cqa.json", "fo_matches_oracle", "true", None),
    ("BENCH_cqa.json", "ptime_matches_oracle", "true", None),
    ("BENCH_cqa.json", "conp_matches_oracle", "true", None),
    ("BENCH_cqa.json", "fo_no_circuit_compiles", "true", None),
    ("BENCH_cqa.json", "fo_speedup_vs_circuit", "report", None),
]


def _lookup(blob: dict, dotted: str):
    value = blob
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def _format(value) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def check_file(name: str, fresh_dir: Path, baseline_dir: Path,
               report_only: bool) -> list[str]:
    """Check one bench file; returns the list of failure descriptions."""
    failures: list[str] = []
    fresh_path = fresh_dir / name
    if not fresh_path.exists():
        return [f"{name}: fresh benchmark output missing at {fresh_path}"]
    fresh = json.loads(fresh_path.read_text())
    baseline_path = baseline_dir / name
    committed = (
        json.loads(baseline_path.read_text()) if baseline_path.exists() else None
    )
    if committed is None:
        print(f"{name}: no committed baseline at {baseline_path}; "
              "reporting fresh values only")
    for file_name, metric, mode, threshold in HEADLINES:
        if file_name != name:
            continue
        fresh_value = _lookup(fresh, metric)
        committed_value = _lookup(committed, metric) if committed else None
        label = f"{name}:{metric}"
        if fresh_value is None:
            failures.append(f"{label}: missing from the fresh benchmark output")
            continue
        if mode != "report" and committed is not None and committed_value is None:
            print(f"  {label} = {_format(fresh_value)} "
                  "(newly introduced metric; nothing committed to gate against)")
            continue
        # A ratio gate is relative to the committed number; without any
        # baseline snapshot there is nothing to anchor it, so report.
        effective_mode = (
            "report"
            if (report_only and mode != "true")
            or (mode == "ratio" and committed_value is None)
            else mode
        )
        verdict, detail = _judge(
            effective_mode, fresh_value, committed_value, threshold
        )
        print(f"  {label}: fresh {_format(fresh_value)}"
              + (f" vs committed {_format(committed_value)}"
                 if committed_value is not None else "")
              + f" — {detail}")
        if not verdict:
            # Failure lines must stand alone in the job log: say what was
            # measured and what would have passed, not just which gate fired.
            expected = {
                "true": "expected true",
                "min": f"expected >= {threshold}",
                "max": f"expected <= {threshold}",
                "ratio": (f"expected >= {threshold}x committed "
                          f"{_format(committed_value)}"),
            }.get(effective_mode, "")
            failures.append(
                f"{label}: {detail} (actual {_format(fresh_value)}"
                + (f", committed {_format(committed_value)}"
                   if committed_value is not None else "")
                + (f"; {expected}" if expected else "") + ")"
            )
    return failures


def _judge(mode: str, fresh, committed, threshold) -> tuple[bool, str]:
    if mode == "report":
        return True, "report-only (not gated; see module docstring)"
    if mode == "true":
        ok = bool(fresh)
        return ok, "holds" if ok else "correctness flag regressed to falsy"
    if mode == "min":
        ok = float(fresh) >= float(threshold)
        return ok, (f"gated at >= {threshold}" if ok
                    else f"below the {threshold} floor")
    if mode == "max":
        ok = float(fresh) <= float(threshold)
        return ok, (f"gated at <= {threshold}" if ok
                    else f"above the {threshold} ceiling")
    if mode == "ratio":
        floor = float(threshold) * float(committed)
        ok = float(fresh) >= floor
        return ok, (f"gated at >= {threshold}x committed ({floor:.4g})" if ok
                    else f"dropped below {threshold}x committed ({floor:.4g})")
    raise ValueError(f"unknown gate mode {mode!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files", nargs="*",
        default=sorted({name for name, *_rest in HEADLINES}),
        help="bench JSONs to check (default: every known one)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=Path(".bench-baseline"),
        help="directory holding the committed BENCH_*.json snapshots",
    )
    parser.add_argument(
        "--fresh", type=Path, default=Path(__file__).resolve().parents[1],
        help="directory holding the freshly generated BENCH_*.json files "
        "(default: the repository root)",
    )
    parser.add_argument(
        "--report-only", action="store_true",
        help="never fail on speedup gates (correctness booleans still gate)",
    )
    args = parser.parse_args(argv)
    known = {name for name, *_rest in HEADLINES}
    failures: list[str] = []
    for name in args.files:
        if name not in known:
            failures.append(f"{name}: no headline metrics registered "
                            f"(known: {', '.join(sorted(known))})")
            continue
        print(f"checking {name}")
        failures.extend(
            check_file(name, args.fresh, args.baseline, args.report_only)
        )
    if failures:
        print("\nBENCH REGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nall gated benchmark metrics held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
