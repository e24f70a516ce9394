"""Chaos experiments: delivery and billing integrity under faults.

The paper's claim under test: decentralized metering keeps billing
consistent *through* disconnection (§II-B buffering, Fig. 6 backfill).
These harnesses drive the fault subsystem (:mod:`repro.faults`) against
the paper testbed and measure the two quantities that matter:

* **report-delivery ratio** — distinct report sequences that reached
  the durable ledger over sequences measured, and
* **billing error** — relative gap between ledger energy and the energy
  the device actually metered.

Every run is deterministic for a given seed, faults included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.experiments.sweeps import sweep
from repro.faults import FaultPlan
from repro.runtime import FaultSpec, build
from repro.workloads.scenarios import (
    Scenario,
    blackout_spec,
    crash_spec,
    paper_testbed_spec,
)


@dataclass
class DeviceDelivery:
    """Per-device delivery/billing outcome of one chaos run."""

    measured: int = 0
    delivered: int = 0
    duplicates: int = 0
    buffered_delivered: int = 0
    metered_mwh: float = 0.0
    ledger_mwh: float = 0.0
    store_dropped: int = 0
    retry_stats: dict[str, int] = field(default_factory=dict)

    @property
    def delivery_ratio(self) -> float:
        """Delivered over measured (1.0 for an idle device)."""
        if self.measured == 0:
            return 1.0
        return self.delivered / self.measured

    @property
    def billing_error(self) -> float:
        """|ledger - metered| / metered (0.0 for an idle device)."""
        if self.metered_mwh == 0.0:
            return 0.0
        return abs(self.ledger_mwh - self.metered_mwh) / self.metered_mwh


@dataclass
class ChaosResult:
    """Aggregate outcome of one fault-injected run."""

    seed: int
    devices: dict[str, DeviceDelivery] = field(default_factory=dict)
    fault_plan: list[dict] = field(default_factory=list)
    fault_counters: dict[str, int] = field(default_factory=dict)

    @property
    def delivery_ratio(self) -> float:
        """Fleet-wide delivered/measured."""
        measured = sum(d.measured for d in self.devices.values())
        delivered = sum(d.delivered for d in self.devices.values())
        return delivered / measured if measured else 1.0

    @property
    def billing_error(self) -> float:
        """Fleet-wide |ledger - metered| / metered."""
        metered = sum(d.metered_mwh for d in self.devices.values())
        ledger = sum(d.ledger_mwh for d in self.devices.values())
        return abs(ledger - metered) / metered if metered else 0.0

    @property
    def buffered_delivered(self) -> int:
        """Ledger records that arrived via the store-and-forward path."""
        return sum(d.buffered_delivered for d in self.devices.values())


def settle_and_measure(
    scenario: Scenario,
    plan: FaultPlan | None,
    run_s: float,
    drain_s: float = 25.0,
    seed: int = 0,
) -> ChaosResult:
    """Run to ``run_s``, stop sampling, drain, and score the ledger.

    Sampling stops at ``run_s`` so every measured report has ``drain_s``
    of fault-free time to ride its retries into a flushed block; what is
    still missing after that is genuinely lost.
    """
    if run_s <= 0:
        raise ExperimentError(f"run_s must be positive, got {run_s}")
    scenario.run_until(run_s)
    for device in scenario.devices.values():
        device.firmware.stop()
    scenario.run_until(run_s + drain_s)

    result = ChaosResult(seed=seed)
    if plan is not None:
        result.fault_plan = plan.describe()
        result.fault_counters = plan.counters.snapshot()
    for name, device in scenario.devices.items():
        outcome = DeviceDelivery(
            measured=device.sequences_issued,
            metered_mwh=device.meter.total_energy_mwh,
            store_dropped=device.store.dropped_total,
            retry_stats=device.retry_stats,
        )
        seen: set[int] = set()
        for record in scenario.chain.records_for_device(device.device_id.uid):
            sequence = int(record["sequence"])
            if sequence in seen:
                outcome.duplicates += 1
                continue
            seen.add(sequence)
            outcome.ledger_mwh += float(record["energy_mwh"])
            if record.get("buffered"):
                outcome.buffered_delivered += 1
        outcome.delivered = len(seen)
        result.devices[name] = outcome
    return result


def run_blackout_chaos(
    seed: int = 0,
    blackout_at: float = 10.0,
    blackout_s: float = 30.0,
    run_s: float = 60.0,
    retry: bool = True,
) -> ChaosResult:
    """The acceptance scenario: a link blackout covered by buffering."""
    spec = blackout_spec(seed=seed, blackout_at=blackout_at, blackout_s=blackout_s, retry=retry)
    scenario = build(spec)
    return settle_and_measure(scenario, scenario.fault_plan, run_s, seed=seed)


def run_crash_chaos(
    seed: int = 0,
    crash_at: float = 10.0,
    outage_s: float = 15.0,
    run_s: float = 60.0,
    retry: bool = True,
) -> ChaosResult:
    """Aggregator crash+restart; ledger-vouched re-registration recovers."""
    scenario = build(crash_spec(seed=seed, crash_at=crash_at, outage_s=outage_s, retry=retry))
    return settle_and_measure(scenario, scenario.fault_plan, run_s, seed=seed)


@dataclass
class SweepPoint:
    """Delivery/billing outcome at one fault intensity."""

    intensity: float
    retry: bool
    delivery_ratio: float
    billing_error: float
    report_timeouts: int


def _fault_sweep_point(
    intensity: float, seed: int, run_s: float, retry: bool
) -> dict[str, float | int]:
    """One broker-noise run at ``intensity`` (module-level: sweeps pickle
    this into worker processes)."""
    if not 0.0 <= intensity < 1.0:
        raise ExperimentError(f"intensity must be in [0, 1), got {intensity}")
    spec = paper_testbed_spec(
        seed=seed,
        device_retry=retry,
        name="paper-testbed-broker-noise",
        faults=tuple(
            FaultSpec(
                kind="broker_noise",
                name=f"{agg_name}-loss",
                start_at=0.0,
                target=agg_name,
                params={"drop_p": intensity * 0.7, "corrupt_p": intensity * 0.3},
            )
            for agg_name in ("agg1", "agg2")
        ),
    )
    scenario = build(spec)
    result = settle_and_measure(scenario, scenario.fault_plan, run_s, seed=seed)
    return {
        "delivery_ratio": result.delivery_ratio,
        "billing_error": result.billing_error,
        "report_timeouts": sum(
            d.retry_stats.get("report_timeouts", 0)
            for d in result.devices.values()
        ),
    }


def run_fault_sweep(
    intensities: list[float],
    seed: int = 0,
    run_s: float = 30.0,
    retry: bool = True,
    workers: int = 1,
    obs_dir: str | None = None,
) -> list[SweepPoint]:
    """Sweep broker-side message loss and score delivery each time.

    ``intensity`` is the probability any broker-routed message (report
    up, Ack down) is dropped or corrupted — the regime where QoS-1
    *thinks* it delivered, which only the Ack-timeout retry path can
    recover.  ``workers`` > 1 runs intensities across a process pool;
    results are identical to a serial sweep for any worker count.
    ``obs_dir`` captures per-point observability artifacts (see
    :func:`repro.experiments.sweeps.sweep`).
    """
    if not intensities:
        return []
    _, rows = sweep(
        _fault_sweep_point,
        [
            {"intensity": intensity, "seed": seed, "run_s": run_s, "retry": retry}
            for intensity in intensities
        ],
        columns=["delivery_ratio", "billing_error", "report_timeouts"],
        workers=workers,
        obs_dir=obs_dir,
    )
    return [
        SweepPoint(
            intensity=intensity,
            retry=retry,
            delivery_ratio=delivery_ratio,
            billing_error=billing_error,
            report_timeouts=report_timeouts,
        )
        for (intensity, _seed, _run_s, _retry,
             delivery_ratio, billing_error, report_timeouts) in rows
    ]
