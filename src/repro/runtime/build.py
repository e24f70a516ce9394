"""Compile a :class:`~repro.runtime.spec.ScenarioSpec` into a world.

One :func:`build` function replaces the five hand-rolled scenario
builders' duplicated wiring: it creates the shared
:class:`~repro.runtime.context.SimContext`, wires grid, chain, mesh and
channel from it (so every layer emits into the same counter bank and
span stream, which ``spec.obs`` or an active capture session turns
on), adds the networks and devices the spec declares, shapes the
backhaul, and arms the spec's fault schedule on a plan that records
into the same counters.

The compilation is deterministic: the same spec yields a bit-identical
world — same ledger digest, same snapshot — every time.
"""

from __future__ import annotations

from repro.aggregator.unit import AggregatorConfig, AggregatorUnit
from repro.chain.ledger import Blockchain
from repro.chain.store import BlockStore
from repro.chain.sync import SyncPolicy
from repro.device.stack import DeviceConfig, MeteringDevice
from repro.errors import ConfigError
from repro.faults.injectors import LinkFaultInjector, LinkFaultSpec
from repro.faults.retry import RetryPolicy
from repro.grid.topology import GridNetwork, GridTopology
from repro.hw.powerline import WireSegment
from repro.ids import AggregatorId, DeviceId
from repro.net.backhaul import BackhaulLink, BackhaulMesh
from repro.net.channel import ChannelParams, WirelessChannel
from repro.obs.session import active as _active_obs_session
from repro.runtime.context import SimContext
from repro.runtime.scenario import Scenario
from repro.runtime.spec import FaultSpec, NetworkSpec, ScenarioSpec


def _aggregator_config(spec: ScenarioSpec, network: NetworkSpec) -> AggregatorConfig:
    if network.slot_count is None:
        return AggregatorConfig(t_measure_s=spec.t_measure_s)
    return AggregatorConfig(t_measure_s=spec.t_measure_s, slot_count=network.slot_count)


def _device_config(spec: ScenarioSpec, context: SimContext) -> DeviceConfig:
    ledger_sync = (
        SyncPolicy(
            batch_size=spec.ledger.header_batch_size,
            interval_s=spec.ledger.sync_interval_s,
        )
        if spec.ledger.sync_enabled
        else None
    )
    if not spec.device_retry:
        return DeviceConfig(
            t_measure_s=spec.t_measure_s, retry=None, ledger_sync=ledger_sync
        )
    retry = context.default_retry if context.default_retry is not None else RetryPolicy()
    return DeviceConfig(
        t_measure_s=spec.t_measure_s, retry=retry, ledger_sync=ledger_sync
    )


def _channel_injector(
    scenario: Scenario, cache: dict[str, LinkFaultInjector], target: str
) -> LinkFaultInjector:
    # Environment-scale faults (a jammer, an AP power loss) install on
    # the transport so chaos schedules work on every backend.
    injector = cache.get(target)
    if injector is None:
        injector = scenario.fault_plan.make_injector(target)
        scenario.transport.set_fault_injector(injector)
        cache[target] = injector
    return injector


def _broker_injector(
    scenario: Scenario, cache: dict[str, LinkFaultInjector], target: str
) -> LinkFaultInjector:
    key = f"broker:{target}"
    injector = cache.get(key)
    if injector is None:
        injector = scenario.fault_plan.make_injector(key)
        scenario.aggregator(target).endpoint.set_fault_injector(injector)
        cache[key] = injector
    return injector


def _arm_fault(
    scenario: Scenario, fault: FaultSpec, injectors: dict[str, LinkFaultInjector]
) -> None:
    plan = scenario.fault_plan
    if fault.kind == "channel_blackout":
        injector = _channel_injector(scenario, injectors, fault.target or "radio")
        plan.link_blackout(fault.name, injector, fault.start_at, fault.duration_s)
    elif fault.kind == "channel_noise":
        injector = _channel_injector(scenario, injectors, fault.target or "radio")
        plan.link_noise(
            fault.name, injector, LinkFaultSpec(**fault.params), fault.start_at,
            fault.duration_s,
        )
    elif fault.kind == "broker_noise":
        injector = _broker_injector(scenario, injectors, fault.target)
        plan.link_noise(
            fault.name, injector, LinkFaultSpec(**fault.params), fault.start_at,
            fault.duration_s,
        )
    elif fault.kind == "aggregator_crash":
        plan.aggregator_crash(
            fault.name, scenario.aggregator(fault.target), fault.start_at,
            fault.duration_s,
        )
    elif fault.kind == "backhaul_partition":
        groups = [{AggregatorId(member) for member in group} for group in fault.groups]
        plan.backhaul_partition(
            fault.name, scenario.mesh, groups, fault.start_at, fault.duration_s
        )
    else:  # pragma: no cover - spec validation rejects unknown kinds
        raise ConfigError(f"unknown fault kind {fault.kind!r}")


def add_network(
    scenario: Scenario,
    name: str,
    aggregator_config: AggregatorConfig,
    supply_voltage_v: float,
    segment: WireSegment,
) -> AggregatorUnit:
    """Wire one grid network + aggregator into ``scenario`` and start it."""
    aggregator_id = AggregatorId(name)
    network = GridNetwork(
        aggregator_id,
        supply_voltage_v=supply_voltage_v,
        default_segment=segment,
    )
    scenario.grid.add_network(network)
    unit = AggregatorUnit(
        scenario.context if scenario.context is not None else scenario.simulator,
        aggregator_id,
        scenario.chain,
        scenario.mesh,
        network,
        aggregator_config,
        transport=scenario.transport,
    )
    scenario.aggregators[name] = unit
    unit.start()
    return unit


def add_device(
    scenario: Scenario,
    name: str,
    profile,
    device_config: DeviceConfig,
) -> MeteringDevice:
    """Wire one metering device into ``scenario`` (no network entry)."""
    device = MeteringDevice(
        scenario.context if scenario.context is not None else scenario.simulator,
        DeviceId(name),
        device_config,
        scenario.grid,
        scenario.transport,
        profile,
    )
    scenario.devices[name] = device
    return device


def build(
    spec: ScenarioSpec,
    *,
    device_config: DeviceConfig | None = None,
    aggregator_config: AggregatorConfig | None = None,
    segment: WireSegment | None = None,
    store: BlockStore | None = None,
) -> Scenario:
    """Compile ``spec`` into a fully wired :class:`Scenario`.

    Args:
        spec: The declarative world description.
        device_config: Override every device's config (ablations pass
            non-serializable configs here; the spec still records the
            world shape).
        aggregator_config: Override every aggregator's config.
        segment: Override every network's default wire segment.
        store: Block storage for the chain (default: in memory).

    Returns:
        The wired scenario, carrying the context, the originating spec
        and the master seed as provenance; when the spec schedules
        faults, ``scenario.fault_plan`` is armed and records into the
        shared counter bank.
    """
    session = _active_obs_session()
    # The spec's own obs block wins; otherwise an active capture session
    # (the CLI's --obs-dir, sweep workers) force-enables observability
    # without rewriting every spec in flight.
    obs = spec.obs
    if not obs.enabled and session is not None:
        obs = session.obs
    ctx = SimContext.create(seed=spec.seed, obs=obs)
    channel = (
        WirelessChannel(ChannelParams(), ctx.stream("channel"), counters=ctx.counters)
        if spec.transport.kind == "mqtt"
        else None
    )
    chain = Blockchain(
        store,
        authorized=set(),
        counters=ctx.counters,
        checkpoint_interval=spec.ledger.checkpoint_interval_blocks or None,
        pruning_depth=(
            spec.ledger.pruning_depth_blocks
            if spec.ledger.pruning_depth_blocks > 0
            else None
        ),
    )
    scenario = Scenario(
        simulator=ctx.simulator,
        grid=GridTopology(),
        chain=chain,
        mesh=BackhaulMesh(ctx),
        channel=channel,
        transport=spec.transport.build(channel),
        context=ctx,
        spec=spec,
        master_seed=ctx.master_seed,
    )
    dev_config = device_config if device_config is not None else _device_config(spec, ctx)

    for network in spec.networks:
        agg_config = (
            aggregator_config
            if aggregator_config is not None
            else _aggregator_config(spec, network)
        )
        wire = (
            segment
            if segment is not None
            else WireSegment(
                resistance_ohms=network.wire_resistance_ohms,
                leakage_ma=network.wire_leakage_ma,
            )
        )
        add_network(scenario, network.name, agg_config, network.supply_voltage_v, wire)

    for a, b in spec.mesh.resolve_links(spec.network_names):
        scenario.mesh.connect(
            BackhaulLink(AggregatorId(a), AggregatorId(b), latency_s=spec.mesh.latency_s)
        )

    for device in spec.devices:
        add_device(scenario, device.name, device.profile.build(), dev_config)
        if device.enter_at is not None:
            scenario.enter_at(device.name, device.network, device.enter_at, device.distance_m)

    if spec.faults:
        scenario.fault_plan = ctx.new_fault_plan()
        injectors: dict[str, LinkFaultInjector] = {}
        for fault in spec.faults:
            _arm_fault(scenario, fault, injectors)
    if spec.vector.enabled and spec.transport.kind == "direct":
        # Imported lazily so worlds that never vectorize don't pay for
        # the numpy probe at import time.
        from repro.vector.fleet import VectorFleet

        scenario.vector_fleet = VectorFleet(scenario)
    if session is not None:
        session.register(scenario)
    return scenario
