"""The fully wired simulation world.

:class:`Scenario` is what the experiment harnesses talk to: the kernel,
the grid, the chain, the mesh, the channel, and the named aggregators
and devices — plus provenance (the kernel's master seed and, when built
from a :class:`~repro.runtime.spec.ScenarioSpec`, the originating spec)
so any run can be reproduced from its own :meth:`snapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.aggregator.unit import AggregatorUnit
from repro.chain.ledger import Blockchain
from repro.device.stack import MeteringDevice
from repro.errors import ConfigError
from repro.grid.topology import GridTopology
from repro.net.backhaul import BackhaulMesh
from repro.net.channel import WirelessChannel
from repro.obs.metrics import write_series_csv
from repro.runtime.spec import ScenarioSpec
from repro.sim.kernel import Simulator
from repro.transport.base import Transport

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.monitoring.counters import CounterBank
    from repro.monitoring.timeseries import SeriesBank
    from repro.vector.fleet import VectorFleet
    from repro.workloads.mobility import MobilityTrace


@dataclass
class Scenario:
    """A fully wired simulation world.

    Attributes map one-to-one onto the architecture of Fig. 1; the
    experiment harnesses only ever talk to a Scenario.  ``channel`` is
    ``None`` when the world runs on a radio-less transport backend
    (``transport: direct``); ``transport`` carries the wire backend the
    devices and aggregators were wired with.
    """

    simulator: Simulator
    grid: GridTopology
    chain: Blockchain
    mesh: BackhaulMesh
    channel: WirelessChannel | None
    aggregators: dict[str, AggregatorUnit] = field(default_factory=dict)
    devices: dict[str, MeteringDevice] = field(default_factory=dict)
    transport: Transport | None = None
    spec: ScenarioSpec | None = None
    fault_plan: "FaultPlan | None" = None
    vector_fleet: "VectorFleet | None" = None

    @property
    def counters(self) -> "CounterBank":
        """The kernel's counter bank, which every layer emits into."""
        return self.simulator.counters

    @property
    def monitoring(self) -> "dict[str, SeriesBank]":
        """Each aggregator's recorded series, by aggregator name."""
        return {name: unit.monitoring for name, unit in self.aggregators.items()}

    def aggregator(self, name: str) -> AggregatorUnit:
        """Aggregator by name, with a helpful error."""
        unit = self.aggregators.get(name)
        if unit is None:
            raise ConfigError(f"no aggregator named {name!r} (have {list(self.aggregators)})")
        return unit

    def device(self, name: str) -> MeteringDevice:
        """Device by name, with a helpful error."""
        dev = self.devices.get(name)
        if dev is None:
            raise ConfigError(f"no device named {name!r} (have {list(self.devices)})")
        return dev

    def schedule_mobility(self, device_name: str, trace: "MobilityTrace") -> None:
        """Arm a mobility itinerary for one device."""
        # Imported lazily: repro.workloads imports repro.runtime at
        # module level, so the reverse edge must resolve at call time.
        from repro.workloads.mobility import MobilityDriver

        driver = MobilityDriver(self.simulator, self.device(device_name), self.aggregators)
        driver.schedule(trace)

    def enter_at(self, device_name: str, network: str, at_time: float, distance_m: float = 5.0) -> None:
        """Schedule a single network entry."""
        device = self.device(device_name)
        unit = self.aggregator(network)
        self.simulator.schedule(
            at_time,
            lambda: device.enter_network(unit, distance_m),
            label=f"{device_name}:enter:{network}",
        )

    def run_until(self, end_time: float) -> None:
        """Advance the world to ``end_time``."""
        self.simulator.run_until(end_time)

    def summary(self) -> dict:
        """Quick run snapshot: ledger, per-device and per-network counters."""
        return {
            "time": self.simulator.now,
            "chain_height": self.chain.height,
            "total_energy_mwh": self.chain.total_energy_mwh(),
            "devices": {
                name: {
                    "phase": device.fsm.phase.value,
                    "reports_sent": device.reports_sent,
                    "acked": device.acked_count,
                    "buffered_pending": device.store.pending,
                    "energy_mwh": device.meter.total_energy_mwh,
                }
                for name, device in self.devices.items()
            },
            "aggregators": {
                name: {
                    "members": unit.registry.member_count,
                    "acks": unit.acks_sent,
                    "nacks": unit.nacks_sent,
                    "blocks": unit.counted("blocks_written"),
                    "network_anomalies": unit.verifier.stats.network_anomalies,
                }
                for name, unit in self.aggregators.items()
            },
        }

    def snapshot(self) -> dict:
        """The :meth:`summary` plus full reproducibility provenance.

        Includes the master seed, the originating spec (when the world
        was compiled from one), the ledger digest, the shared counter
        bank and the fault schedule — everything needed to replay or
        compare this run.
        """
        return {
            "master_seed": self.simulator.rng.master_seed,
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "ledger_digest": self.chain.tip_hash,
            "counters": self.counters.snapshot(),
            "faults": self.fault_plan.describe() if self.fault_plan is not None else [],
            **self.summary(),
        }

    def write_obs_artifacts(self, directory) -> dict[str, Path]:
        """Write this run's observability artifacts to ``directory``.

        Emits the self-contained ``repro-obs/1`` layout (``spans.jsonl``,
        ``metrics.prom``, ``metrics.jsonl``, ``profile.json``,
        ``manifest.json``) and returns the written paths by file name;
        works whether or not the run had obs enabled — a disabled run
        just yields empty spans and a disabled profile.
        """
        from repro.obs.artifacts import collect_scenario, write_artifacts

        return write_artifacts(directory, [collect_scenario(self)])

    def export_monitoring(self, directory) -> list[Path]:
        """Write every aggregator's recorded series as CSV files.

        Returns the written paths; files are named
        ``<aggregator>__<series>.csv``
        (:func:`~repro.obs.metrics.write_series_csv`).
        """
        return write_series_csv(directory, self.monitoring)
