"""The three simulation workloads and their correctness gates.

Every input is generated here from the seed; the program only sees the
resulting :class:`~repro.runtime.spec.ScenarioSpec` and mobility
itineraries.

* ``fleet_scalar`` — 50 direct-transport networks x 20 devices (the
  world of ``BENCH_kernel``'s ``fleet_1k_direct``).  Puts the most work on
  the kernel, device, direct-transport and monitoring layers.
* ``fleet_vector`` — the same world with the vectorized fleet actor.
  Device and kernel work shrink, so the shared per-report costs
  (aggregation, canonical JSON + SHA-256, Merkle, series append) become
  the largest share.  Its tip hash must equal the scalar one.
* ``roaming_mqtt`` — 10 MQTT/Wi-Fi networks x 10 devices; half the devices
  (seeded) make the paper's Fig. 6 move to the next network of a ring.
  The only workload exercising membership handshakes, roaming
  verification, backhaul forwarding and the MQTT/channel/codec layers.

Every device enters its home network at t = 0 and finishes joining by
``JOIN_S``; the reports buffered meanwhile are backfilled in one burst.
That join phase runs in one call and is reported, not measured: it is a
one-time transient, and the workloads are chosen for steady reporting.
The steady phase after it is advanced one 100 ms reporting interval at a
time, keeping the wall time of each, with a host speed probe between
intervals.  Stepping never changes the simulation: ``run_until`` keeps
event order.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Any

from repro.errors import ChainError
from repro.runtime import TransportSpec, build
from repro.runtime.spec import VectorSpec
from repro.workloads.mobility import MobilityEvent, MobilityTrace
from repro.workloads.scenarios import scaled_spec

from .hostspeed import probe_ms

INTERVAL_S = 0.1
# A host speed probe before every this many intervals, and one at the end.
PROBE_EVERY = 5

# Direct-transport devices join at 5.84 s and MQTT ones after a ~6 s
# handshake; both have backfilled their buffered reports by 7 s.  Times
# end mid-interval (off the 0.1 s tick grid), where the world is
# quiescent and the scalar and vector ledgers are byte-identical.
JOIN_S = 7.05
FLEET_HORIZON_S = 12.05
# The roaming itinerary is the repository's Fig. 6 experiment
# (``repro.experiments.fig6.run_fig6`` defaults): 20 s at home, 10 s in
# transit, 25 s in the foreign network.
HOME_S = 20.0
TRANSIT_S = 10.0
FOREIGN_S = 25.0
ROAMING_HORIZON_S = HOME_S + TRANSIT_S + FOREIGN_S + 0.05
# The scalar/vector byte-identity gate runs both modes of a 2-network
# world with the same seed and per-network shape to the end of the join.
TWIN_NETWORKS = 2


def fleet_spec(seed: int, vector: bool, networks: int = 50):
    """The direct-transport fleet: 20 devices per network."""
    spec = scaled_spec(networks, 20, seed=seed, transport=TransportSpec(kind="direct"))
    if vector:
        spec = dataclasses.replace(spec, vector=VectorSpec(enabled=True))
    return spec


def roaming_inputs(seed: int):
    """Spec, itineraries and mover set of the roaming world.

    Every device enters its home network at t = 0.  Half of them (the
    seeded choice) leave after ``HOME_S``, spend ``TRANSIT_S`` in transit
    and enter the next network of the ring, whose slots the devices
    leaving it free, for the rest of the run.
    """
    spec = scaled_spec(10, 10, seed=seed, enter_devices=False)
    rng = random.Random(seed)
    names = [device.name for device in spec.devices]
    movers = set(rng.sample(names, len(names) // 2))
    networks = spec.network_names
    itineraries = {}
    for device in spec.devices:
        events = [MobilityEvent(0.0, "enter", device.network)]
        if device.name in movers:
            destination = networks[(networks.index(device.network) + 1) % len(networks)]
            events += [
                MobilityEvent(HOME_S, "leave"),
                MobilityEvent(HOME_S + TRANSIT_S, "enter", destination),
            ]
        itineraries[device.name] = MobilityTrace(events)
    return spec, itineraries, movers


def build_world(workload: str, seed: int):
    """``(scenario, movers, horizon_s)`` for a sim workload."""
    if workload in ("fleet_scalar", "fleet_vector"):
        scenario = build(fleet_spec(seed, vector=workload == "fleet_vector"))
        return scenario, set(), FLEET_HORIZON_S
    if workload == "roaming_mqtt":
        spec, itineraries, movers = roaming_inputs(seed)
        scenario = build(spec)
        for name, trace in itineraries.items():
            scenario.schedule_mobility(name, trace)
        return scenario, movers, ROAMING_HORIZON_S
    raise ValueError(f"not a simulation workload: {workload!r}")


def run_join(scenario: Any) -> tuple[float, int]:
    """Run the join phase in one call: ``(wall s, records committed)``."""
    before = time.perf_counter()
    scenario.simulator.run_until(JOIN_S)
    return time.perf_counter() - before, scenario.chain.records_total


def run_steady(scenario: Any, horizon_s: float) -> tuple[list[float], list[float]]:
    """Run from ``JOIN_S`` to ``horizon_s`` one reporting interval at a time.

    Returns the wall ms of each interval (interval ``j`` ends at
    ``JOIN_S + (j + 1) * INTERVAL_S``) and the host speed probes taken
    between them, outside the timed calls.
    """
    run_until = scenario.simulator.run_until
    clock = time.perf_counter
    intervals_ms = []
    probes_ms = []
    for j in range(round((horizon_s - JOIN_S) / INTERVAL_S)):
        if j % PROBE_EVERY == 0:
            probes_ms.append(probe_ms())
        before = clock()
        run_until(round(JOIN_S + (j + 1) * INTERVAL_S, 6))
        intervals_ms.append((clock() - before) * 1000.0)
    probes_ms.append(probe_ms())
    return intervals_ms, probes_ms


def twin_tips(seed: int) -> dict[str, str]:
    """Tip hashes of the scalar and vector twin worlds (must be equal)."""
    tips = {}
    for mode in ("scalar", "vector"):
        scenario = build(fleet_spec(seed, vector=mode == "vector", networks=TWIN_NETWORKS))
        scenario.run_until(JOIN_S)
        tips[mode] = scenario.chain.tip_hash
    return tips


def check_gates(
    scenario: Any, movers: set[str], validate: bool
) -> tuple[list[str], int]:
    """Correctness gates: ``(failures, forwarded-home record count)``."""
    failures = []
    chain = scenario.chain
    if validate:
        try:
            chain.validate()
        except ChainError as exc:
            failures.append(f"chain.validate: {type(exc).__name__}: {exc}")
    uid_names = {device.device_id.uid: name for name, device in scenario.devices.items()}
    committed = set()
    roaming_from = set()
    forwarded = 0
    for block in chain:
        for record in block.records:
            uid = record.get("device_uid")
            committed.add(uid)
            if record.get("roaming"):
                forwarded += 1
                roaming_from.add(uid_names.get(uid, uid))
    missing = sorted(name for uid, name in uid_names.items() if uid not in committed)
    if missing:
        failures.append(f"{len(missing)} devices without ledger records, e.g. {missing[:3]}")
    if movers:
        if not roaming_from:
            failures.append("no forwarded-home (roaming) records")
        strays = sorted(roaming_from - movers)
        if strays:
            failures.append(f"roaming records from non-movers: {strays[:3]}")
    elif roaming_from:
        failures.append(f"unexpected roaming records from {sorted(roaming_from)[:3]}")
    return failures, forwarded


def outcome(scenario: Any) -> dict[str, Any]:
    """Counts the parent aggregates: records, verdicts, events."""
    units = scenario.aggregators.values()
    chain = scenario.chain
    return {
        "records": chain.records_total,
        "blocks": chain.height,
        "tip_hash": chain.tip_hash,
        "events": scenario.simulator.events_executed,
        "acks": sum(unit.acks_sent for unit in units),
        "nacks": sum(unit.nacks_sent for unit in units),
        "rejected": sum(unit.verifier.stats.reports_rejected for unit in units),
    }
