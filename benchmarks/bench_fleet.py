"""A13 — fleet stress: many networks, many devices, mobility churn.

A city-block-scale run: 6 networks x 6 devices with four devices
continuously migrating between networks.  Asserts the architecture's
global invariants hold under churn — ledger valid, every device billed,
roaming consolidated, anomaly rate at noise level — and reports the
simulation cost.  The fleet also runs on the lightweight ``direct``
transport backend, and ``python bench_fleet.py --smoke`` drives a tiny
fleet through both backends without pytest (the CI smoke step).
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import case, check_regression, write_results
from repro.runtime import ObsSpec, TransportSpec, build
from repro.workloads.scenarios import scaled_spec


def _run_fleet(
    kind="mqtt", n_networks=6, devices_per_network=6, horizon_s=40.0, seed=77, obs=ObsSpec()
):
    """One churned fleet run on the chosen backend; returns (scenario, wall)."""
    spec = scaled_spec(
        n_networks=n_networks,
        devices_per_network=devices_per_network,
        seed=seed,
        enter_devices=True,
        transport=TransportSpec(kind=kind),
    )
    scenario = build(dataclasses.replace(spec, obs=obs))
    # Roamers hop to a neighbour network mid-run.
    for i in range(min(4, n_networks)):
        roamer = f"dev-{i}-0"
        target = f"net-{(i + 1) % n_networks}"
        device = scenario.device(roamer)
        scenario.simulator.schedule(
            15.0 + i, lambda d=device: d.leave_network()
        )
        scenario.simulator.schedule(
            19.0 + i,
            lambda d=device, t=target, s=scenario: d.enter_network(
                s.aggregator(t)
            ),
        )
    start = time.perf_counter()
    scenario.run_until(horizon_s)
    wall = time.perf_counter() - start
    return scenario, wall


def test_fleet_with_mobility_churn(once):
    def run():
        # Observed: the anomaly check below reads trace points.
        return _run_fleet(kind="mqtt", obs=ObsSpec(enabled=True, profile=False))

    scenario, wall = once(run)
    scenario.chain.validate()
    events = scenario.simulator.events_executed

    # Every device has ledger records; roamers have roaming records.
    for name, device in scenario.devices.items():
        assert scenario.chain.records_for_device(device.device_id.uid), name
    roaming = [
        r
        for block in scenario.chain
        for r in block.records
        if r.get("roaming")
    ]
    assert roaming
    roamer_names = {r["device"] for r in roaming}
    assert roamer_names == {f"dev-{i}-0" for i in range(4)}

    # Network anomalies under churn are dominated by the *correct*
    # alarms for unmetered consumption: a roamer electrically attached
    # at its destination but still mid-registration (arrivals at
    # t = 19..22 plus the ~6 s handshake) and the windows straddling a
    # departure.  Outside those, only square-load-edge straddle noise
    # remains, bounded at a couple of percent of all checks.
    total_checks = sum(
        u.verifier.stats.network_checks for u in scenario.aggregators.values()
    )
    assert total_checks > 500
    anomaly_times = [
        span.start for span in scenario.simulator.spans.by_name("agg.network_anomaly")
    ]
    churn_windows = [(19.0 + i, 19.0 + i + 9.0) for i in range(4)] + [
        (15.0 + i, 15.0 + i + 2.5) for i in range(4)
    ]
    strays = [
        t for t in anomaly_times
        if not any(lo <= t <= hi for lo, hi in churn_windows)
    ]
    assert anomaly_times  # the unmetered arrivals ARE detected
    assert len(strays) <= 0.02 * total_checks

    records = sum(b.header.record_count for b in scenario.chain)
    print(
        f"\nfleet: 36 devices / 6 networks / 40 s, {records} records, "
        f"{scenario.chain.height} blocks, {events} events in {wall:.2f}s wall "
        f"({events / max(wall, 1e-9):,.0f} events/s)"
    )


def test_fleet_on_direct_backend(once):
    """The same churned fleet holds its invariants on the fast backend."""
    scenario, wall = once(_run_fleet, kind="direct")
    scenario.chain.validate()
    assert scenario.channel is None
    for name, device in scenario.devices.items():
        assert scenario.chain.records_for_device(device.device_id.uid), name
    roaming = [
        r
        for block in scenario.chain
        for r in block.records
        if r.get("roaming")
    ]
    assert {r["device"] for r in roaming} == {f"dev-{i}-0" for i in range(4)}
    events = scenario.simulator.events_executed
    print(
        f"\nfleet[direct]: 36 devices / 6 networks / 40 s, "
        f"{scenario.chain.height} blocks, {events} events in {wall:.2f}s wall"
    )


def main(argv=None):
    """CI smoke entry point: a tiny fleet once per backend, no pytest.

    Asserts both backends complete (devices registered, blocks written,
    valid ledger) and records the mqtt-vs-direct wall-clock ratio.
    """
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny fleet (2 networks x 3 devices, 30 s) instead of the full one",
    )
    parser.add_argument(
        "--out", metavar="JSON", help="write/update this BENCH_fleet.json file"
    )
    parser.add_argument(
        "--check",
        metavar="JSON",
        help="fail when any case drops >30%% below this file's committed rates",
    )
    args = parser.parse_args(argv)
    config = "smoke" if args.smoke else "full"
    shape = (
        dict(n_networks=2, devices_per_network=3, horizon_s=30.0)
        if args.smoke
        else dict()
    )
    # Best-of repeats for the sub-second smoke shape: CI gates on these
    # rates with a 30% threshold, and single tiny runs are too noisy.
    repeats = 3 if args.smoke else 1
    walls = {}
    cases = {}
    for kind in ("mqtt", "direct"):
        scenario, wall = _run_fleet(kind=kind, **shape)
        for _ in range(repeats - 1):
            rerun, rerun_wall = _run_fleet(kind=kind, **shape)
            if rerun_wall < wall:
                scenario, wall = rerun, rerun_wall
        scenario.chain.validate()
        registered = sum(
            unit.registry.member_count for unit in scenario.aggregators.values()
        )
        # Roamers also register as visitors at their destination, so the
        # sum over registries can exceed the device count.
        assert registered >= len(scenario.devices), (kind, registered)
        assert scenario.chain.height > 0, kind
        for name, device in scenario.devices.items():
            assert scenario.chain.records_for_device(device.device_id.uid), (kind, name)
        walls[kind] = wall
        cases[f"fleet_{kind}"] = case(scenario.simulator.events_executed, wall)
        print(
            f"{kind}: {len(scenario.devices)} devices, "
            f"{scenario.chain.height} blocks, {wall:.2f}s wall"
        )
    print(f"mqtt/direct wall-clock ratio: {walls['mqtt'] / walls['direct']:.2f}x")

    failures = []
    if args.check and Path(args.check).exists():
        failures = check_regression(cases, args.check, config)
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
    if args.out:
        write_results(args.out, "fleet", config, cases)
        print(f"wrote {args.out} [{config}]")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
