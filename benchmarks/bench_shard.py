"""E7 — sharded-execution scaling curve.

Runs the same direct-transport fleet serially and partitioned across
kernel shards, and records the scaling curve committed in
``BENCH_shard.json``.

Throughput basis: **critical path**.  Shards are executed in-process,
one at a time per window, and each shard's compute is timed separately;
``events_per_s`` is total events over the *slowest shard's* accumulated
compute time — the wall-clock rate a machine with one core per shard
achieves, measured without multi-process scheduler noise.  ``wall_s``
(this process's real elapsed time) and ``available_cpus`` are recorded
alongside so single-core CI boxes produce honest, comparable artifacts.
Every case also records the merged ledger digest; any digest divergence
between shard counts fails the run — the benchmark doubles as the
determinism gate.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_shard.py --out BENCH_shard.json
    PYTHONPATH=src python benchmarks/bench_shard.py --smoke \
        --out bench-artifacts/BENCH_shard.json --check BENCH_shard.json
    PYTHONPATH=src python benchmarks/bench_shard.py --validate BENCH_shard.json
"""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import check_regression, write_results
from validate import validate_shard
from repro.parallel import available_cpus
from repro.runtime.spec import MeshSpec, TransportSpec
from repro.shard.runner import run_sharded
from repro.workloads.scenarios import scaled_spec

# Fast-join direct transport: the stock scan/assoc/connect latencies
# (~5.8 s) would spend most of a short horizon joining instead of
# reporting.
FAST_DIRECT = TransportSpec(kind="direct", scan_s=0.05, assoc_s=0.05, connect_s=0.02)

# (fleet name, networks, devices per network, horizon s, shard counts)
# Fleets stay at 20 devices per network: the aggregator feeder's INA219
# model saturates (+/-3200 mA) when many more duty cycles align, so
# scale comes from network count — which is also what sharding splits.
FULL_FLEETS = [
    ("fleet_10k", 500, 20, 10.0, (1, 2, 4)),
    ("fleet_100k", 5000, 20, 2.0, (1, 4)),
]
SMOKE_FLEETS = [
    ("fleet_100", 5, 20, 2.0, (1, 4)),
]

def fleet_spec(n_networks: int, devices_per_network: int):
    # A line mesh keeps the link count linear in the network count (a
    # full mesh over 5,000 networks is 12.5M edges of pure overhead).
    spec = scaled_spec(
        n_networks,
        devices_per_network,
        seed=77,
        transport=FAST_DIRECT,
        mesh_topology="line",
    )
    # A 10 ms mesh keeps the window count proportionate to the horizon
    # (1,000 windows for 10 s) without touching the digest: spec-driven
    # direct fleets generate no backhaul traffic, so the lookahead only
    # sets the barrier cadence.
    return dataclasses.replace(
        spec, mesh=MeshSpec(topology="line", latency_s=0.01)
    )


def run_case(
    n_networks: int, devices_per_network: int, until: float, shards: int
) -> dict:
    spec = fleet_spec(n_networks, devices_per_network)
    start = time.perf_counter()
    run = run_sharded(spec, until, shards=shards, processes=False)
    wall = time.perf_counter() - start
    critical_path = max(run.shard_busy_s)
    events = run.events_executed
    return {
        "events": int(events),
        "wall_s": round(wall, 3),
        "critical_path_s": round(critical_path, 3),
        "events_per_s": int(events / critical_path) if critical_path > 0 else 0,
        "shards": shards,
        "basis": "critical_path",
        "available_cpus": available_cpus(),
        "digest": run.ledger_digest,
    }


def run_config(fleets) -> tuple[dict, list[str]]:
    """Run every fleet at every shard count; returns (cases, problems)."""
    cases: dict[str, dict] = {}
    problems: list[str] = []
    for name, n_networks, devices, until, shard_counts in fleets:
        serial_rate = None
        serial_digest = None
        for shards in shard_counts:
            case_name = f"{name}_shards{shards}"
            record = run_case(n_networks, devices, until, shards)
            if shards == 1:
                serial_rate = record["events_per_s"]
                serial_digest = record["digest"]
            else:
                if serial_rate:
                    record["speedup_vs_serial"] = round(
                        record["events_per_s"] / serial_rate, 2
                    )
                if serial_digest is not None and record["digest"] != serial_digest:
                    problems.append(
                        f"{case_name}: digest {record['digest'][:16]}... != "
                        f"serial {serial_digest[:16]}..."
                    )
            cases[case_name] = record
            print(
                f"{case_name}: {record['events']:,} events, "
                f"critical path {record['critical_path_s']}s, "
                f"{record['events_per_s']:,} events/s"
                + (
                    f" ({record['speedup_vs_serial']}x vs serial)"
                    if "speedup_vs_serial" in record
                    else ""
                )
            )
    return cases, problems


def validate_bench(data: dict) -> list[str]:
    """Schema + invariant check for a ``BENCH_shard.json`` payload.

    Delegates to the shared artifact validator
    (``python -m benchmarks.validate``); this alias keeps the script's
    ``--validate`` flag working.
    """
    return validate_shard(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny fleet (CI gate), seconds not minutes"
    )
    parser.add_argument("--out", metavar="JSON", help="write results to this file")
    parser.add_argument(
        "--check",
        metavar="JSON",
        help="fail if events/s regressed >30%% vs this committed file",
    )
    parser.add_argument(
        "--validate",
        metavar="JSON",
        help="validate an existing artifact's schema and digest invariants, then exit",
    )
    args = parser.parse_args(argv)

    if args.validate:
        problems = validate_bench(json.loads(Path(args.validate).read_text()))
        for problem in problems:
            print(f"INVALID: {problem}")
        print(f"{args.validate}: {'INVALID' if problems else 'ok'}")
        return 1 if problems else 0

    config = "smoke" if args.smoke else "full"
    cases, problems = run_config(SMOKE_FLEETS if args.smoke else FULL_FLEETS)
    for problem in problems:
        print(f"DIGEST MISMATCH: {problem}")

    if args.out:
        write_results(args.out, "shard", config, cases)
        print(f"wrote {args.out}")
    if args.check:
        failures = check_regression(cases, args.check, config)
        for failure in failures:
            print(f"REGRESSION: {failure}")
        if failures:
            return 1
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
