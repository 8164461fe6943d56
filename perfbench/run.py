"""Instance-in, probability-out benchmark of the repro pipeline.

One command runs one named workload in one process and prints every metric
by name with its unit; the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``::

    python3 perfbench/run.py --workload bulk-rst-1e6 --seed 1 --seconds 50 --trace 0

Workloads (``perfbench/README.md`` records why each was chosen):

- ``bulk-rst-1e6``  columnar Q_RST chain at ~10^6 facts, fused Monte-Carlo;
- ``exact-ktree``   Theorem 1 path: treewidth, automaton lineage, d-D pass;
- ``serve-1conn``   ``repro serve-http``, one closed-loop connection;
- ``serve-2conn``   the same service, two connections and a hot row set.

``--trace 0`` reports the end-to-end metrics with no per-layer timers.
``--trace 1`` times every call into a layer from the outside and reports
the per-layer metrics instead, with the tracing overhead measured against
untraced work in the same run. Every answer is checked against an oracle;
wrong or failed answers count in ``failed`` (error rate = failed /
attempted).

``--scale toy`` shrinks every workload to a smoke run and ``--corrupt``
perturbs the first answer before it is checked; ``perfbench/smoke.py``
uses both.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up clock: starts before any repro import

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from common import END_TO_END, PER_LAYER, SETUP_SAMPLES, Tally, median

SRC = Path(__file__).resolve().parents[1] / "src"

WORKLOADS = ("bulk-rst-1e6", "exact-ktree", "serve-1conn", "serve-2conn")


def setup_probe_samples(args, count: int) -> list[float]:
    """Set up ``count`` more times, each in a fresh interpreter.

    Import cost and first-call warm-up show only in a fresh process, so
    the extra set-up samples of a batch workload come from children that
    run nothing but the set-up and report its duration.
    """
    samples = []
    for _ in range(count):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--scale", args.scale],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Knobs come from the environment: pin every one to its default so the
    # benchmark, and any service it spawns, measure the shipped set-up.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]

    tally = Tally(corrupt=args.corrupt)
    if args.workload.startswith("serve"):
        import served

        result = served.run(args, tally)
    else:
        import jobs

        workload = jobs.WORKLOADS[args.workload](args.seed, args.scale)
        workload.warm_up()
        first_setup = time.perf_counter() - START
        if args.setup_probe:
            print(json.dumps({"setup_s": first_setup}))
            return 0
        setup_s = 0.0
        if not args.trace:
            setup_s = median(
                [first_setup] + setup_probe_samples(args, SETUP_SAMPLES - 1)
            )
        result = workload.run(args, tally, setup_s)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(result[name]), "unit": unit}
               for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"{name:32s} {entry['value']:14.6g} {entry['unit']}")
    if "samples" in result:
        print(f"samples {result['samples']} (jobs or requests timed)")
    for note in result.get("notes", ()):
        print(note)
    for miss in tally.misses:
        print(f"MISS {miss}")
    print(f"error_rate {tally.failed / max(1, tally.attempted):.6g} "
          f"({tally.failed} of {tally.attempted} answers wrong)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
