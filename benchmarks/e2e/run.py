"""Run one benchmark workload and print its result line.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload fleet_scalar --seed 7 --seconds 20 --trace 0

Human-readable detail goes first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
``end_to_end`` metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
``per_layer`` metrics).  A failed correctness gate, a metric that could
not be measured or a run that broke off (a child process failed, the
server never came up) gives ``"correct": false`` and exit code 1.
Without the program's source tree next to it, the script fails at
import and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Import the benchmark as a package and the program from its source
# tree; the script's own directory must not shadow module names.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.runner import (  # noqa: E402
    WORKLOADS,
    benchmark_spec,
    contract_line,
    failed_run,
    run_workload,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, trace)
    except Exception as exc:
        # A child that failed or passed its time limit, a server that
        # never answered, output the benchmark could not read: the run
        # still ends with a result line, marked incorrect.
        traceback.print_exc()
        result = failed_run(args.workload, args.seed, args.seconds, trace,
                            f"{type(exc).__name__}: {exc}")
    for failure in result["failures"]:
        print(f"GATE FAILED: {failure}")
    print(json.dumps({"detail": result["detail"]}))
    line = contract_line(result, benchmark_spec())
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
