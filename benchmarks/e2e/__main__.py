"""Package command line: several workloads, repeats, traced pass, compare.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.e2e --seed 7 [--workloads a,b] \\
        [--repeat N] [--trace] [--out results.json]
    PYTHONPATH=src python -m benchmarks.e2e compare --base A.json ... \\
        --change B.json ...

A run executes each workload untraced ``--repeat`` times (seeds
``seed .. seed+N-1``, workloads interleaved), then with ``--trace`` once
more traced at ``seed``; tracing overhead is the traced
``records_per_s`` against the untraced one at the same seed.  When both
fleet workloads ran on a seed their tip hashes must match.  Exits 1 when
any correctness gate fails.

``compare`` reads result files of this command and gives, per workload
and end-to-end metric, both sides' medians and quartiles, the share of
index-paired runs the change wins, and a verdict (improved, unchanged,
regressed, unresolved) against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Any

from .runner import ROOT, WORKLOADS, benchmark_spec, run_workload
from .stats import spread, verdict


def machine() -> dict[str, Any]:
    """Where the numbers were taken."""
    model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def _line(result: dict[str, Any]) -> str:
    values = ", ".join(
        f"{name}={value:.4g}" for name, value in result["metrics"].items()
        if not name.endswith((".calls", ".self_s"))
    )
    status = "ok" if result["correct"] else "GATE FAILED " + "; ".join(result["failures"])
    return f"{result['workload']} seed={result['seed']} trace={result['trace']}: {values} [{status}]"


def _layer_shares(traced: dict[str, Any]) -> dict[str, float]:
    """The shares later changes argue about: is ledger hashing the floor
    of the fleets, and how much of a served request is the HTTP front."""
    keys = ["chain.self_share", "chain.hashing.self_share", "chain.merkle.self_share",
            "unattributed_share"]
    if traced["workload"] == "serve_mixed":
        keys.append("serve.http.front_share")
    shares = {key: traced["metrics"][key] for key in keys}
    shares["tracing_overhead"] = traced["detail"]["tracing_overhead"]
    return shares


def run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write every run and the summary to this JSON file")
    args = parser.parse_args(argv)
    spec = benchmark_spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",")
    for name in workloads:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r} (have {', '.join(WORKLOADS)})")

    runs = []
    for repeat in range(args.repeat):
        for name in workloads:
            runs.append(run_workload(name, args.seed + repeat, seconds, trace=False))
            print(_line(runs[-1]), flush=True)
    traced = []
    if args.trace:
        for name in workloads:
            result = run_workload(name, args.seed, seconds, trace=True)
            untraced = next(r for r in runs if r["workload"] == name and r["seed"] == args.seed)
            result["detail"]["tracing_overhead"] = (
                1.0 - result["detail"]["traced_records_per_s"] / untraced["metrics"]["records_per_s"]
            )
            traced.append(result)
            print(_line(traced[-1]), flush=True)

    checks = []
    for repeat in range(args.repeat):
        tips = {
            r["workload"]: r["detail"]["tip_hash"]
            for r in runs
            if r["seed"] == args.seed + repeat and r["workload"] in ("fleet_scalar", "fleet_vector")
        }
        if len(tips) == 2 and len(set(tips.values())) != 1:
            checks.append(f"seed {args.seed + repeat}: fleet tip hashes differ {tips}")
    for check in checks:
        print(f"GATE FAILED: {check}")

    summary = {
        name: {
            metric: spread([r["metrics"][metric] for r in runs if r["workload"] == name])
            for metric in (entry["name"] for entry in spec["end_to_end"])
        }
        for name in workloads
    }
    for name, metrics in summary.items():
        for metric, stats in metrics.items():
            print(f"{name:13s} {metric:15s} median={stats['median']:.4g} "
                  f"q1={stats['q1']:.4g} q3={stats['q3']:.4g} iqr/median={stats['iqr_share']:.3f}")
    layer_shares = {r["workload"]: _layer_shares(r) for r in traced}
    for name, shares in layer_shares.items():
        print(name, " ".join(f"{key}={value:.3f}" for key, value in shares.items()))
    if args.out:
        report = {
            "machine": machine(),
            "seconds": seconds,
            "seed": args.seed,
            "repeat": args.repeat,
            "runs": runs,
            "traced": traced,
            "summary": summary,
            "layer_shares": layer_shares,
            "checks": checks,
        }
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    ok = not checks and all(r["correct"] for r in runs + traced)
    return 0 if ok else 1


def compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
    parser.add_argument("--base", nargs="+", required=True, help="parent result files")
    parser.add_argument("--change", nargs="+", required=True, help="change result files")
    args = parser.parse_args(argv)
    spec = benchmark_spec()

    def values(paths: list[str]) -> dict[tuple[str, str], list[float]]:
        found: dict[tuple[str, str], list[float]] = {}
        for path in paths:
            with open(path) as handle:
                for result in json.load(handle)["runs"]:
                    for metric, value in result["metrics"].items():
                        found.setdefault((result["workload"], metric), []).append(value)
        return found

    base, change = values(args.base), values(args.change)
    regressed = False
    for workload in WORKLOADS:
        for entry in spec["end_to_end"]:
            key = (workload, entry["name"])
            if key not in base or key not in change:
                continue
            result = verdict(base[key], change[key], entry["better"], entry["bound"])
            regressed |= result["verdict"] == "regressed"
            b, c = result["base"], result["change"]
            print(
                f"{workload:13s} {entry['name']:15s} {result['verdict']:10s} "
                f"base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] "
                f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
                f"{result['change_share']:+.1%} wins {result['pair_wins']:.0%} "
                f"of {result['pairs']} bound {entry['bound']:.0%}"
            )
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    return run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
