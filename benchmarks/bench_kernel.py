"""Kernel throughput benchmark: raw event loop and the 1k-device fleet.

Measures the discrete-event hot path at four grains:

* ``raw_chain`` — bare schedule/dispatch cycles (parallel callback
  chains, no model code): the kernel's ceiling.
* ``periodic_tasks`` — the :meth:`Simulator.every` re-arm path.
* ``same_instant_burst`` — many events at identical timestamps, the
  batched-execution path (clock written once per instant).
* ``fleet_1k_direct`` — the headline: 1,000 devices across 50 direct-
  transport networks, 20 simulated seconds, unobserved.  This is the
  case the committed ``BENCH_kernel.json`` tracks against the
  pre-optimisation kernel.
* ``fleet_1k_vector`` — the same world with the vectorized fleet actor
  (``vector.enabled``).  Throughput is reported in **device-equivalent
  events/s**: the scalar run's event count divided by the vector wall
  time, since the whole point is executing the same simulated work with
  far fewer kernel events.  ``kernel_events`` records the raw count.
  ``reference_events_per_s``/``speedup`` compare against the scalar
  ``fleet_1k_direct`` measured in the *same* invocation.
* ``fleet_100k_direct`` (full config only) — the shards × vector
  ceiling: ``BENCH_shard.json``'s ``fleet_100k`` world (fast-join
  transport, line mesh, same horizon) run with sharding and the
  vector actor together, raw merged kernel events/s.

Run standalone (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_kernel.py --smoke \
        --out BENCH_kernel.json --check BENCH_kernel.json
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import attach_reference, case, check_regression, measure, write_results
from repro.runtime import TransportSpec, build
from repro.runtime.spec import VectorSpec
from repro.sim.kernel import Simulator
from repro.workloads.scenarios import scaled_spec


def run_raw_chain(n_events: int, chains: int = 100) -> Simulator:
    """Parallel callback chains: schedule + pop + dispatch, nothing else."""
    sim = Simulator()
    per_chain = n_events // chains
    call_later = sim.call_later

    def make_tick() -> object:
        remaining = per_chain

        def tick() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining > 0:
                call_later(0.001, tick)

        return tick

    for i in range(chains):
        call_later(0.001 * (1 + i / chains), make_tick())
    sim.run(max_events=n_events * 2)
    return sim


def run_periodic(n_events: int, tasks: int = 200) -> Simulator:
    """Periodic tasks re-arming through :class:`PeriodicTask`."""
    sim = Simulator()
    interval = 0.01
    for i in range(tasks):
        sim.every(interval, lambda: None, first_at=interval + i * 1e-5)
    sim.run_until(interval * (n_events // tasks))
    return sim


def run_same_instant_burst(n_events: int, burst: int = 1000) -> Simulator:
    """Bursts of events at one timestamp (the clock moves once per burst)."""
    sim = Simulator()
    for instant in range(max(1, n_events // burst)):
        at = 1.0 + instant * 0.01
        for _ in range(burst):
            sim.schedule(at, lambda: None)
    sim.run()
    return sim


def _fleet_spec(n_networks: int, devices_per_network: int, vector: bool):
    spec = scaled_spec(
        n_networks=n_networks,
        devices_per_network=devices_per_network,
        seed=77,
        transport=TransportSpec(kind="direct"),
    )
    if vector:
        spec = dataclasses.replace(spec, vector=VectorSpec(enabled=True))
    return spec


def run_fleet(
    n_networks: int,
    devices_per_network: int,
    horizon_s: float,
    vector: bool = False,
) -> Simulator:
    """The direct-transport fleet, unobserved (the headline case)."""
    spec = _fleet_spec(n_networks, devices_per_network, vector)
    scenario = build(spec)
    scenario.simulator.run_until(horizon_s)
    return scenario.simulator


class _ShardedSim:
    """Adapter so :func:`measure` callers see a Simulator-shaped result."""

    def __init__(self, events_executed: int) -> None:
        self.events_executed = events_executed


def run_fleet_sharded(
    n_networks: int, devices_per_network: int, horizon_s: float
) -> _ShardedSim:
    """The shards × vector ceiling: every composition layer engaged.

    Reuses ``bench_shard.fleet_spec`` (fast-join transport, line mesh)
    so the world matches ``BENCH_shard.json``'s ``fleet_100k`` case —
    the only delta is the vector actor.
    """
    from bench_shard import fleet_spec
    from repro.shard import run_sharded

    spec = dataclasses.replace(
        fleet_spec(n_networks, devices_per_network), vector=VectorSpec(enabled=True)
    )
    result = run_sharded(spec, horizon_s, "auto", processes=False)
    return _ShardedSim(result.events_executed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small event counts and a tiny fleet (the CI configuration)",
    )
    parser.add_argument(
        "--out", metavar="JSON", help="write/update this BENCH_kernel.json file"
    )
    parser.add_argument(
        "--check",
        metavar="JSON",
        help="fail when any case drops >30%% below this file's committed rates",
    )
    parser.add_argument(
        "--reference",
        metavar="JSON",
        help=(
            "a prior run of this script (e.g. against the pre-optimisation "
            "tree) to record as reference_events_per_s/speedup"
        ),
    )
    args = parser.parse_args(argv)

    config = "smoke" if args.smoke else "full"
    if args.smoke:
        # Repeats + best-of screen out scheduler noise: the smoke cases
        # are sub-second and CI gates on them with a 30% threshold.
        kernel_events, fleet_shape, repeats = 50_000, (4, 5, 10.0), 5
    else:
        kernel_events, fleet_shape, repeats = 500_000, (50, 20, 20.0), 1

    cases = {}
    for name, fn, fn_args in (
        ("raw_chain", run_raw_chain, (kernel_events,)),
        ("periodic_tasks", run_periodic, (kernel_events,)),
        ("same_instant_burst", run_same_instant_burst, (kernel_events,)),
        ("fleet_1k_direct", run_fleet, fleet_shape),
    ):
        sim, wall = measure(fn, *fn_args, repeats=repeats)
        cases[name] = case(sim.events_executed, wall)
        print(
            f"{name}: {cases[name]['events']:,} events in "
            f"{cases[name]['wall_s']:.2f}s = {cases[name]['events_per_s']:,} events/s"
        )

    # The vector curve: same world, device-equivalent throughput (the
    # scalar run's event count over the vector wall time), compared
    # against the scalar fleet measured moments ago on this machine.
    scalar_fleet = cases["fleet_1k_direct"]
    vsim, vwall = measure(run_fleet, *fleet_shape, vector=True, repeats=repeats)
    record = case(scalar_fleet["events"], vwall)
    record["kernel_events"] = vsim.events_executed
    record["reference_events_per_s"] = scalar_fleet["events_per_s"]
    if scalar_fleet["events_per_s"] > 0:
        record["speedup"] = round(
            record["events_per_s"] / scalar_fleet["events_per_s"], 2
        )
    cases["fleet_1k_vector"] = record
    print(
        f"fleet_1k_vector: {record['events']:,} device-equivalent events in "
        f"{record['wall_s']:.2f}s = {record['events_per_s']:,} events/s "
        f"({record.get('speedup', '?')}x scalar, "
        f"{record['kernel_events']:,} kernel events)"
    )

    if not args.smoke:
        # The composition ceiling: 100k devices, shards × vector, in
        # BENCH_shard.json's fleet_100k world (same shape and horizon,
        # so the two artifacts compare directly).  Raw merged kernel
        # events/s.  20 devices/network keeps feeder currents inside
        # the INA219 range (1,000/network saturates the +/-3200 mA
        # feeder sensor).
        ssim, swall = measure(run_fleet_sharded, 5000, 20, 2.0, repeats=1)
        cases["fleet_100k_direct"] = case(ssim.events_executed, swall)
        record = cases["fleet_100k_direct"]
        print(
            f"fleet_100k_direct: {record['events']:,} events in "
            f"{record['wall_s']:.2f}s = {record['events_per_s']:,} events/s"
        )

    if args.reference:
        attach_reference(cases, args.reference, config)
        for name, record in cases.items():
            if "speedup" in record:
                print(
                    f"{name}: {record['speedup']}x vs reference "
                    f"{record['reference_events_per_s']:,} events/s"
                )

    failures = []
    if args.check and Path(args.check).exists():
        failures = check_regression(cases, args.check, config)
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)

    if args.out:
        write_results(args.out, "kernel", config, cases)
        print(f"wrote {args.out} [{config}]")

    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
