"""One shard's wired world and its window-drive API.

A :class:`ShardEngine` builds the shard's networks, devices and faults
on a private kernel via :func:`~repro.runtime.build.build_partial`,
with a :class:`~repro.shard.proxy.ShardBackhaulProxy` as the mesh and a
:class:`RecordingChain` as the ledger.  The runner drives it window by
window: :meth:`run_window` executes ``[now, boundary)`` and drains the
proxy's outbox, :meth:`absorb` injects the inbound batch at the
boundary, :meth:`finish` runs the final inclusive step, and
:meth:`result` packages everything the parent needs to rebuild the
serial view — as plain picklable data, because in multi-process mode it
crosses a pipe.

Determinism notes:

* Every random stream is derived from ``sha256(master_seed:name)``, so
  a shard reproduces its actors' randomness exactly regardless of which
  other streams exist elsewhere.
* The shard chain records *append operations* keyed by the aggregator's
  declaration index in the full spec; the parent stable-merges the logs
  by ``(timestamp, declaration index)`` and replays them, recovering
  the serial chain hash-for-hash (serial same-instant flushes happen in
  declaration order because aggregator duties are armed in build
  order).
"""

from __future__ import annotations

import math
from typing import Any

from repro.chain.ledger import Blockchain
from repro.ids import AggregatorId
from repro.monitoring.timeseries import SeriesBank
from repro.runtime.build import build_partial
from repro.runtime.context import SimContext
from repro.runtime.scenario import Scenario
from repro.runtime.spec import FaultSpec, ObsSpec, ScenarioSpec
from repro.shard.partition import ShardPlan
from repro.shard.plane import RemoteMessage, delivery_order
from repro.shard.proxy import ShardBackhaulProxy

# Environment-scale fault kinds every shard arms (their injectors hang
# off shard-local transports, and a partition must sever send paths on
# whichever shard originates the traffic).  Aggregator-targeted kinds
# arm only on the owning shard — their wiring touches the local unit.
_GLOBAL_FAULT_KINDS = frozenset(
    {"channel_blackout", "channel_noise", "backhaul_partition"}
)


class RecordingChain(Blockchain):
    """A :class:`Blockchain` that also logs its append operations.

    The log entries ``(timestamp, declaration_index, records)`` are what
    the cross-shard merge consumes; the chain itself still behaves like
    the serial ledger for everything reading it locally (the writer, the
    device header sync), just over this shard's blocks only.
    """

    def __init__(self, declaration_index: dict[str, int], **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._declaration_index = declaration_index
        self.ops: list[tuple[float, int, list[dict[str, Any]]]] = []

    def append(self, aggregator: str, timestamp: float, records: list) -> Any:
        block = super().append(aggregator, timestamp, records)
        self.ops.append(
            (timestamp, self._declaration_index[aggregator], list(records))
        )
        return block


class ShardResult:
    """Picklable end-of-run snapshot of one shard."""

    __slots__ = (
        "index",
        "networks",
        "events_executed",
        "busy_s",
        "chain_ops",
        "counters",
        "series",
        "devices_summary",
        "aggregators_summary",
        "faults",
    )

    def __init__(
        self,
        index: int,
        networks: tuple[str, ...],
        events_executed: int,
        busy_s: float,
        chain_ops: list,
        counters: dict[str, int],
        series: dict[str, SeriesBank],
        devices_summary: dict,
        aggregators_summary: dict,
        faults: list[dict[str, Any]],
    ) -> None:
        self.index = index
        self.networks = networks
        self.events_executed = events_executed
        self.busy_s = busy_s
        self.chain_ops = chain_ops
        self.counters = counters
        self.series = series
        self.devices_summary = devices_summary
        self.aggregators_summary = aggregators_summary
        self.faults = faults


class ShardEngine:
    """One shard: a private kernel running a subset of the fleet."""

    def __init__(
        self,
        spec: ScenarioSpec,
        plan: ShardPlan,
        index: int,
        *,
        obs: ObsSpec | None = None,
    ) -> None:
        self.spec = spec
        self.plan = plan
        self.index = index
        self.networks = plan.groups[index]
        local = set(self.networks)
        self.context = SimContext.create(seed=spec.seed, obs=obs if obs is not None else spec.obs)
        order = tuple(AggregatorId(name) for name in spec.network_names)
        remote = frozenset(agg for agg in order if agg.name not in local)
        self.proxy = ShardBackhaulProxy(self.context, index, order, remote)
        self.chain = RecordingChain(
            {name: i for i, name in enumerate(spec.network_names)},
            authorized=set(),
            counters=self.context.counters,
            checkpoint_interval=spec.ledger.checkpoint_interval_blocks or None,
            pruning_depth=(
                spec.ledger.pruning_depth_blocks
                if spec.ledger.pruning_depth_blocks > 0
                else None
            ),
        )

        def keep(fault: FaultSpec) -> bool:
            if fault.kind in _GLOBAL_FAULT_KINDS:
                return True
            return fault.target in local

        self.scenario: Scenario = build_partial(
            spec,
            context=self.context,
            mesh=self.proxy,
            chain=self.chain,
            networks=local,
            fault_filter=keep,
        )

    @property
    def simulator(self):
        """The shard's kernel."""
        return self.context.simulator

    # -- window drive ---------------------------------------------------

    def run_window(self, boundary: float) -> list[RemoteMessage]:
        """Execute ``[now, boundary)``, park on the boundary, drain outbox."""
        # The vector fleet's deliver pass processes reports inline only
        # up to the earliest pending kernel event; inside a window it
        # must also stop at the boundary — the next window can absorb
        # cross-shard messages that schedule work before those arrivals.
        for fleet in self.scenario.vector_fleets:
            fleet.window_horizon = boundary
        self.simulator.run_window(boundary)
        return self.proxy.drain_outbox()

    def absorb(self, messages: list[RemoteMessage]) -> None:
        """Schedule an inbound cross-shard batch (at a window boundary).

        Messages are ordered by the deterministic
        :func:`~repro.shard.plane.delivery_order` key before scheduling,
        so the kernel's same-instant sequence order is independent of
        shard execution interleaving.  Arrival times are clamped to
        ``now`` against float rounding at the boundary (the conservative
        window guarantees ``deliver_at >= boundary`` analytically, but
        ``(k-1)*W + latency`` can round a half-ulp below ``k*W``).
        """
        sim = self.simulator
        now = sim.now
        for message in sorted(messages, key=delivery_order):
            at = message.deliver_at if message.deliver_at > now else now
            sim.schedule(
                at,
                lambda m=message: self.proxy.deliver_remote(m),
                label=f"shard:recv:{message.destination}",
            )

    def finish(self, until: float) -> None:
        """Run the final *inclusive* step to ``until`` (serial semantics)."""
        for fleet in self.scenario.vector_fleets:
            fleet.window_horizon = math.inf
        self.simulator.run_until(until)

    # -- results --------------------------------------------------------

    def result(self, busy_s: float = 0.0) -> ShardResult:
        """Package this shard's run for the cross-shard merge.

        Every shard arms the environment faults, so each counts their
        window openings; only shard 0 reports those counters, which
        keeps the merged counts equal to the serial run's.
        """
        summary = self.scenario.summary()
        counters = self.context.counters.snapshot()
        if self.index != 0:
            for fault in self.spec.faults:
                if fault.kind in _GLOBAL_FAULT_KINDS:
                    counters.pop(f"fault.{fault.name}.activations", None)
                    if fault.kind == "channel_blackout":
                        counters.pop(f"{fault.target or 'radio'}.blackouts", None)
        plan = self.scenario.fault_plan
        return ShardResult(
            index=self.index,
            networks=self.networks,
            events_executed=self.simulator.events_executed,
            busy_s=busy_s,
            chain_ops=list(self.chain.ops),
            counters=counters,
            series=self.scenario.monitoring,
            devices_summary=summary["devices"],
            aggregators_summary=summary["aggregators"],
            faults=plan.describe() if plan is not None else [],
        )
