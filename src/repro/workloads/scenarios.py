"""Canonical scenario shapes as :class:`ScenarioSpec` factories.

:func:`paper_testbed_spec` describes the paper's experimental setup
(§III-A): two networks, each with one aggregator and two devices,
reporting every 100 ms, aggregators joined by a ~1 ms backhaul.
:func:`scaled_spec` generalises to N networks x M devices for the
scalability experiments, and :func:`blackout_spec` /
:func:`crash_spec` / :func:`partition_spec` put the testbed under
deterministic fault schedules.

Every factory returns plain data that :func:`repro.runtime.build.build`
compiles into a wired world (``scenario.fault_plan`` arms the faults).
Only :func:`build_partition_scenario` also builds: its mobility
itinerary is a callable over scenario state, not spec data.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.runtime.build import build
from repro.runtime.scenario import Scenario
from repro.runtime.spec import (
    DeviceSpec,
    FaultSpec,
    MeshSpec,
    NetworkSpec,
    ProfileSpec,
    ScenarioSpec,
    TransportSpec,
)
from repro.workloads.mobility import MobilityTrace

__all__ = [
    "Scenario",
    "paper_testbed_spec",
    "scaled_spec",
    "blackout_spec",
    "crash_spec",
    "partition_spec",
    "build_partition_scenario",
]

# Smooth wide-range profiles: the network load sweeps from tens of mA
# to hundreds across intervals, which is what spreads the Fig. 5 gap
# over ~1-8 %.
_PAPER_PROFILES: dict[str, ProfileSpec] = {
    "device1": ProfileSpec(
        "sinusoid", {"mean_ma": 120.0, "amplitude_ma": 100.0, "period_s": 13.0}
    ),
    "device2": ProfileSpec(
        "sinusoid",
        {"mean_ma": 60.0, "amplitude_ma": 45.0, "period_s": 17.0, "phase_s": 5.0},
    ),
    "device3": ProfileSpec(
        "sinusoid",
        {"mean_ma": 90.0, "amplitude_ma": 70.0, "period_s": 11.0, "phase_s": 2.0},
    ),
    "device4": ProfileSpec(
        "sinusoid",
        {"mean_ma": 70.0, "amplitude_ma": 55.0, "period_s": 19.0, "phase_s": 7.0},
    ),
}
_PAPER_HOMES = {
    "device1": "agg1",
    "device2": "agg1",
    "device3": "agg2",
    "device4": "agg2",
}


def paper_testbed_spec(
    seed: int = 0,
    t_measure_s: float = 0.1,
    enter_devices: bool = True,
    device_retry: bool = True,
    faults: tuple[FaultSpec, ...] = (),
    name: str = "paper-testbed",
    transport: TransportSpec | None = None,
) -> ScenarioSpec:
    """The paper's testbed: 2 networks ("agg1", "agg2") x 2 devices each.

    Devices ``device1``/``device2`` start in network agg1 and
    ``device3``/``device4`` in agg2, with sinusoid load profiles that
    span a wide dynamic range.

    Args:
        seed: Master seed for every random stream.
        t_measure_s: Reporting interval (paper: 0.1 s).
        enter_devices: Schedule all four devices to enter their home
            networks at t=0 (disable for custom itineraries).
        device_retry: Whether devices run the Ack-timeout retry path.
        faults: Optional deterministic fault schedule.
        name: Scenario name recorded in provenance.
        transport: Wire backend (default: full-fidelity ``mqtt``).
    """
    # Wiring losses sized so the per-interval feeder overhead spans the
    # paper's observed 0.9-8.2 % across low/high load phases: constant
    # leakage dominates at light load (large relative gap), I2R adds
    # little even at heavy load (small relative gap).
    return ScenarioSpec(
        name=name,
        seed=seed,
        t_measure_s=t_measure_s,
        device_retry=device_retry,
        networks=(
            NetworkSpec("agg1", wire_resistance_ohms=0.1, wire_leakage_ma=2.5),
            NetworkSpec("agg2", wire_resistance_ohms=0.1, wire_leakage_ma=2.5),
        ),
        devices=tuple(
            DeviceSpec(
                name=device,
                network=_PAPER_HOMES[device],
                profile=profile,
                enter_at=0.0 if enter_devices else None,
            )
            for device, profile in _PAPER_PROFILES.items()
        ),
        mesh=MeshSpec(topology="full", latency_s=0.001),
        transport=transport if transport is not None else TransportSpec(),
        faults=faults,
    )


def scaled_spec(
    n_networks: int,
    devices_per_network: int,
    seed: int = 0,
    t_measure_s: float = 0.1,
    slot_count: int | None = None,
    enter_devices: bool = True,
    mesh_topology: str = "full",
    transport: TransportSpec | None = None,
) -> ScenarioSpec:
    """N networks with M duty-cycled devices each.

    Device ``dev-<i>-<j>`` lives in network ``net-<i>``.  The backhaul
    ("mesh/cloud network" in the paper) can be shaped:

    * ``"full"`` — every aggregator pair directly linked (the default),
    * ``"line"`` — a chain net-0 — net-1 — ... (worst-case hop count),
    * ``"star"`` — everyone through net-0 (the "cloud" reading: one
      central broker/exchange).

    Used by the A4 scalability experiments and the multi-hop roaming
    tests.
    """
    if n_networks < 1:
        raise ConfigError(f"need at least one network, got {n_networks}")
    if devices_per_network < 0:
        raise ConfigError(f"devices per network must be >= 0, got {devices_per_network}")
    if mesh_topology not in ("full", "line", "star"):
        raise ConfigError(
            f"mesh topology must be full/line/star, got {mesh_topology!r}"
        )
    slots = slot_count if slot_count is not None else max(16, devices_per_network + 4)
    return ScenarioSpec(
        name=f"scaled-{n_networks}x{devices_per_network}",
        seed=seed,
        t_measure_s=t_measure_s,
        networks=tuple(
            NetworkSpec(
                f"net-{i}",
                wire_resistance_ohms=0.15,
                wire_leakage_ma=1.0,
                slot_count=slots,
            )
            for i in range(n_networks)
        ),
        devices=tuple(
            DeviceSpec(
                name=f"dev-{i}-{j}",
                network=f"net-{i}",
                profile=ProfileSpec(
                    "duty_cycle",
                    {
                        "high_ma": 40.0 + 10.0 * (j % 5),
                        "low_ma": 5.0 + (j % 3),
                        "period_s": 4.0 + (j % 7),
                        "duty": 0.3 + 0.1 * (j % 4),
                        "phase_s": 0.7 * j,
                    },
                ),
                enter_at=0.0 if enter_devices else None,
            )
            for i in range(n_networks)
            for j in range(devices_per_network)
        ),
        mesh=MeshSpec(topology=mesh_topology, latency_s=0.001),
        transport=transport if transport is not None else TransportSpec(),
    )


def blackout_spec(
    seed: int = 0,
    blackout_at: float = 10.0,
    blackout_s: float = 30.0,
    t_measure_s: float = 0.1,
    retry: bool = True,
) -> ScenarioSpec:
    """Paper testbed under a radio blackout window.

    Every uplink frame during ``[blackout_at, blackout_at +
    blackout_s)`` is lost; sampling continues, so the §II-B
    store-and-forward path must buffer the whole window and backfill
    (``buffered=True``) once the link returns — the Fig. 6 shape,
    caused by a fault instead of mobility.
    """
    return paper_testbed_spec(
        seed=seed,
        t_measure_s=t_measure_s,
        device_retry=retry,
        name="paper-testbed-blackout",
        faults=(
            FaultSpec(
                kind="channel_blackout",
                name="radio-blackout",
                start_at=blackout_at,
                duration_s=blackout_s,
                target="radio",
            ),
        ),
    )


def crash_spec(
    seed: int = 0,
    crash_at: float = 10.0,
    outage_s: float = 15.0,
    t_measure_s: float = 0.1,
    retry: bool = True,
    aggregator: str = "agg1",
) -> ScenarioSpec:
    """Paper testbed with one aggregator crashing and restarting.

    During the outage the broker drops everything, so in-flight reports
    go unacknowledged; the devices' retry path re-buffers them and the
    post-restart ``Nack(NOT_A_MEMBER)`` → re-registration sequence
    (vouched by the surviving ledger) backfills the window.
    """
    return paper_testbed_spec(
        seed=seed,
        t_measure_s=t_measure_s,
        device_retry=retry,
        name="paper-testbed-crash",
        faults=(
            FaultSpec(
                kind="aggregator_crash",
                name=f"{aggregator}-crash",
                start_at=crash_at,
                duration_s=outage_s,
                target=aggregator,
            ),
        ),
    )


def partition_spec(
    seed: int = 0,
    partition_at: float = 18.0,
    partition_s: float = 20.0,
    t_measure_s: float = 0.1,
    retry: bool = True,
) -> ScenarioSpec:
    """Roaming into a partitioned backhaul.

    ``device1`` does not auto-enter (its mobility itinerary is
    imperative — see :func:`build_partition_scenario`); the mesh splits
    into {agg1} | {agg2} during the window, so the host cannot verify
    the claimed master until the heal.
    """
    base = paper_testbed_spec(
        seed=seed,
        t_measure_s=t_measure_s,
        device_retry=retry,
        enter_devices=False,
        name="paper-testbed-partition",
        faults=(
            FaultSpec(
                kind="backhaul_partition",
                name="mesh-split",
                start_at=partition_at,
                duration_s=partition_s,
                groups=(("agg1",), ("agg2",)),
            ),
        ),
    )
    # device2/3/4 enter their homes at t=0; device1 rides mobility.
    return dataclasses.replace(
        base,
        devices=tuple(
            device if device.name == "device1"
            else dataclasses.replace(device, enter_at=0.0)
            for device in base.devices
        ),
    )


def build_partition_scenario(
    seed: int = 0,
    partition_at: float = 18.0,
    partition_s: float = 20.0,
    t_measure_s: float = 0.1,
    retry: bool = True,
) -> tuple[Scenario, FaultPlan]:
    """Compile :func:`partition_spec` and arm device1's move.

    The itinerary (agg1 → agg2, leaving two seconds into the partition)
    stays imperative: mobility traces are callables over scenario state,
    not spec data.
    """
    scenario = build(
        partition_spec(
            seed=seed,
            partition_at=partition_at,
            partition_s=partition_s,
            t_measure_s=t_measure_s,
            retry=retry,
        )
    )
    scenario.schedule_mobility(
        "device1",
        MobilityTrace.single_move(
            home="agg1",
            destination="agg2",
            enter_home_at=0.0,
            leave_home_at=partition_at + 2.0,
            idle_s=5.0,
        ),
    )
    return scenario, scenario.fault_plan
