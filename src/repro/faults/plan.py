"""Deterministic fault schedules against the discrete-event kernel.

A :class:`FaultPlan` is the chaos counterpart of a workload: named
faults — link blackout windows, stationary link noise, aggregator
crash+restart, backhaul partitions — armed at absolute simulated times.
Because every draw a fault makes comes from a named kernel stream and
every edge is a scheduled event, a chaos run replays exactly for a given
master seed; the plan is data the experiment can print next to its
results.

The plan is deliberately loose-coupled: it drives the fault surfaces the
transports expose (``set_fault_injector``, ``set_down``, ``crash_for``,
``set_partition``) rather than knowing scenario internals, so any wired
world — paper testbed, scaled sweep, custom rig — can be put under
fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import ConfigError
from repro.faults.injectors import LinkFaultInjector, LinkFaultSpec

if TYPE_CHECKING:
    from repro.aggregator.unit import AggregatorUnit
    from repro.ids import AggregatorId
    from repro.net.backhaul import BackhaulMesh
    from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class ScheduledFault:
    """One named fault window of the plan (for printing/assertions)."""

    name: str
    kind: str
    start_at: float
    end_at: float | None

    @property
    def duration_s(self) -> float | None:
        """Window length, or None for open-ended faults."""
        if self.end_at is None:
            return None
        return self.end_at - self.start_at


@dataclass
class FaultPlan:
    """A deterministic schedule of named faults.

    Args:
        simulator: The kernel faults are scheduled on.  Activations
            count into its counter bank, and so do the injectors made
            by :meth:`make_injector`.
    """

    simulator: "Simulator"
    _faults: list[ScheduledFault] = field(default_factory=list, repr=False)

    @property
    def faults(self) -> list[ScheduledFault]:
        """Every fault window scheduled so far (copy)."""
        return list(self._faults)

    def _record(self, name: str, kind: str, start_at: float, end_at: float | None) -> None:
        if not name:
            raise ConfigError("fault name must be non-empty")
        if any(f.name == name for f in self._faults):
            raise ConfigError(f"duplicate fault name {name!r}")
        if end_at is not None and end_at <= start_at:
            raise ConfigError(
                f"fault {name!r}: end {end_at} must be after start {start_at}"
            )
        self._faults.append(ScheduledFault(name, kind, start_at, end_at))

    def _activate(self, name: str) -> None:
        self.simulator.counters.increment(f"fault.{name}.activations")

    # -- injector factory ------------------------------------------------

    def make_injector(
        self, name: str, spec: LinkFaultSpec | None = None
    ) -> LinkFaultInjector:
        """Build an injector wired to the kernel's counters and rng.

        The injector draws from the kernel stream ``fault:<name>`` so
        adding further injectors never perturbs existing fault
        sequences.
        """
        return LinkFaultInjector(
            name,
            self.simulator.rng.stream(f"fault:{name}"),
            spec=spec,
            counters=self.simulator.counters,
        )

    # -- link faults -----------------------------------------------------

    def link_blackout(
        self,
        name: str,
        injector: LinkFaultInjector,
        start_at: float,
        duration_s: float,
    ) -> None:
        """Black out the injector's link for a window.

        Everything crossing the link during ``[start_at, start_at +
        duration_s)`` is lost; the paper's §II-B buffering covers the
        window on the device side.
        """
        if duration_s <= 0:
            raise ConfigError(f"blackout duration must be positive, got {duration_s}")
        self._record(name, "link_blackout", start_at, start_at + duration_s)

        def _start() -> None:
            self._activate(name)
            injector.start_blackout()

        self.simulator.schedule(start_at, _start, label=f"fault:{name}:start")
        self.simulator.schedule(
            start_at + duration_s, injector.end_blackout, label=f"fault:{name}:end"
        )

    def link_noise(
        self,
        name: str,
        injector: LinkFaultInjector,
        spec: LinkFaultSpec,
        start_at: float,
        duration_s: float | None = None,
    ) -> None:
        """Apply stationary drop/duplicate/delay/corrupt noise.

        The injector's spec switches to ``spec`` at ``start_at`` and
        back to lossless at the window end (or never, when
        ``duration_s`` is None).
        """

        def _start() -> None:
            self._activate(name)
            injector.set_spec(spec)

        end_at = None if duration_s is None else start_at + duration_s
        self._record(name, "link_noise", start_at, end_at)
        self.simulator.schedule(start_at, _start, label=f"fault:{name}:start")
        if end_at is not None:
            self.simulator.schedule(
                end_at,
                lambda: injector.set_spec(LinkFaultSpec()),
                label=f"fault:{name}:end",
            )

    # -- aggregator faults -----------------------------------------------

    def aggregator_crash(
        self,
        name: str,
        unit: "AggregatorUnit",
        at: float,
        outage_s: float,
    ) -> None:
        """Crash one aggregator at ``at``; it restarts after ``outage_s``.

        Volatile state (registry, TDMA grants, aggregation windows) is
        lost; the ledger survives; devices re-register through the
        normal Fig. 3 sequence when their next report draws
        ``Nack(NOT_A_MEMBER)``.
        """
        self._record(name, "aggregator_crash", at, at + outage_s)

        def _crash() -> None:
            self._activate(name)
            unit.crash_for(outage_s)

        self.simulator.schedule(at, _crash, label=f"fault:{name}")

    # -- backhaul faults -------------------------------------------------

    def backhaul_partition(
        self,
        name: str,
        mesh: "BackhaulMesh",
        groups: Iterable[Iterable["AggregatorId"]],
        start_at: float,
        duration_s: float,
    ) -> None:
        """Partition the backhaul mesh into isolated groups, then heal."""
        if duration_s <= 0:
            raise ConfigError(f"partition duration must be positive, got {duration_s}")
        frozen = [set(group) for group in groups]
        self._record(name, "backhaul_partition", start_at, start_at + duration_s)

        def _split() -> None:
            self._activate(name)
            mesh.set_partition(frozen)

        self.simulator.schedule(start_at, _split, label=f"fault:{name}:start")
        self.simulator.schedule(
            start_at + duration_s, mesh.heal_partition, label=f"fault:{name}:end"
        )

    # -- reporting -------------------------------------------------------

    def describe(self) -> list[dict]:
        """Plan as plain dicts (for experiment reports and traces)."""
        return [
            {
                "name": f.name,
                "kind": f.kind,
                "start_at": f.start_at,
                "end_at": f.end_at,
                "activations": self.simulator.counters.get(f"fault.{f.name}.activations"),
            }
            for f in sorted(self._faults, key=lambda f: (f.start_at, f.name))
        ]
