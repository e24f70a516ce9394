"""Ablation experiments (the A rows of DESIGN.md §4).

Each ablation isolates one design decision DESIGN.md calls out:

* A1 — where does the Fig. 5 gap come from? Sweep sensor offset and
  wire model independently.
* A2 — which stage dominates ``T_handshake``? Decompose measured
  handshakes into scan / association / connect / protocol remainder.
* A3 — does store-and-forward preserve billing across disconnections?
  Sweep the idle gap and count delivered records.
* A5, A14 — what does consensus cost? One PoA round and one PBFT round
  over 1 ms mesh links.
* A6 — which detectors catch which tampering attacks?
* A7 — which device misreports? Least-squares attribution.
* A8 — hotspot instances for the load balancer.
* A9 — the aggregator-free committee on the same workload.
* A10, A11, A12 — residual window size, QoS vs distance, time-sync
  interval: one sweep point each.

:mod:`repro.experiments.validate` runs them as the claims table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aggregator.unit import AggregatorConfig
from repro.anomaly.attribution import AttributionResult
from repro.anomaly.detectors import (
    EntropyDetector,
    GroundTruthResidualDetector,
    RelativeVariationDetector,
)
from repro.anomaly.tamper import (
    DropAttack,
    OffsetAttack,
    ReplayAttack,
    ScalingAttack,
    TamperAttack,
)
from repro.chain import Blockchain, NetworkedPoaConsensus, NetworkedValidator
from repro.chain.pbft import PbftCluster, PbftReplica
from repro.device.stack import DeviceConfig
from repro.errors import ExperimentError
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.hw.ds3231 import Ds3231Rtc
from repro.hw.ina219 import Ina219Config
from repro.hw.powerline import WireSegment
from repro.ids import AggregatorId, DeviceId
from repro.net import BackhaulLink, BackhaulMesh
from repro.net.mqtt import QoS
from repro.net.timesync import TimeSyncService
from repro.runtime import build
from repro.sim import Simulator
from repro.workloads.mobility import MobilityTrace
from repro.workloads.profiles import DutyCycleProfile, SinusoidProfile
from repro.workloads.scenarios import paper_testbed_spec, scaled_spec


# -- A1: error-source attribution -------------------------------------------


@dataclass(frozen=True)
class SensorAblationRow:
    """Mean Fig. 5 gap under one error configuration."""

    offset_max_ma: float
    wire_resistance_ohms: float
    wire_leakage_ma: float
    mean_gap_pct: float
    max_gap_pct: float


def run_sensor_ablation(
    seed: int = 0,
    duration_s: float = 35.0,
    warmup_s: float = 15.0,
    offsets_ma: tuple[float, ...] = (0.0, 0.5, 1.0),
    wires: tuple[tuple[float, float], ...] = ((0.0, 0.0), (0.1, 2.5)),
) -> list[SensorAblationRow]:
    """Sweep sensor offset x wire model; returns one row per combo.

    The ideal corner (offset 0, wire 0/0) should show a near-zero gap —
    evidence the reproduction's Fig. 5 gap comes from the modelled error
    sources and nothing else.
    """
    rows: list[SensorAblationRow] = []
    for offset in offsets_ma:
        for resistance, leakage in wires:
            sensor = Ina219Config(offset_max_ma=offset)
            scenario = build(
                paper_testbed_spec(seed=seed),
                device_config=DeviceConfig(sensor=sensor),
                segment=WireSegment(resistance_ohms=resistance, leakage_ma=leakage),
            )
            result = run_fig5(
                duration_s=duration_s, warmup_s=warmup_s, scenario=scenario
            )
            rows.append(
                SensorAblationRow(
                    offset_max_ma=offset,
                    wire_resistance_ohms=resistance,
                    wire_leakage_ma=leakage,
                    mean_gap_pct=result.mean_gap_pct,
                    max_gap_pct=result.max_gap_pct,
                )
            )
    return rows


# -- A2: handshake stage decomposition ---------------------------------------


@dataclass(frozen=True)
class HandshakeStageRow:
    """Mean stage durations across handshakes."""

    scan_s: float
    assoc_s: float
    connect_s: float
    protocol_s: float
    total_s: float

    @property
    def dominant_stage(self) -> str:
        """Name of the longest stage."""
        stages = {
            "scan": self.scan_s,
            "assoc": self.assoc_s,
            "connect": self.connect_s,
            "protocol": self.protocol_s,
        }
        return max(stages, key=stages.get)


def run_handshake_stage_ablation(runs: int = 10, base_seed: int = 0) -> HandshakeStageRow:
    """Decompose ``T_handshake`` into its protocol stages (means)."""
    scans, assocs, connects, protocols, totals = [], [], [], [], []
    # The worlds of run_handshake_distribution (same seeds, same move),
    # kept open to read each handshake's stages.
    for index in range(runs):
        scenario = build(
            paper_testbed_spec(seed=base_seed + 1000 * index, enter_devices=False)
        )
        scenario.schedule_mobility(
            "device1",
            MobilityTrace.single_move(
                home="agg1", destination="agg2", enter_home_at=0.0,
                leave_home_at=12.0, idle_s=5.0,
            ),
        )
        scenario.run_until(29.0)
        handshake = scenario.device("device1").last_handshake
        if handshake is None or handshake.duration_s is None:
            raise ExperimentError(f"run {index}: handshake incomplete")
        total = handshake.duration_s
        protocol = total - handshake.scan_s - handshake.assoc_s - handshake.connect_s
        scans.append(handshake.scan_s)
        assocs.append(handshake.assoc_s)
        connects.append(handshake.connect_s)
        protocols.append(max(0.0, protocol))
        totals.append(total)
    return HandshakeStageRow(
        scan_s=float(np.mean(scans)),
        assoc_s=float(np.mean(assocs)),
        connect_s=float(np.mean(connects)),
        protocol_s=float(np.mean(protocols)),
        total_s=float(np.mean(totals)),
    )


# -- A3: store-and-forward integrity -----------------------------------------


@dataclass(frozen=True)
class StorageAblationRow:
    """Delivery accounting for one idle-gap length."""

    idle_s: float
    buffered_records: int
    ledger_records: int
    handshake_s: float

    @property
    def backfill_worked(self) -> bool:
        """True when buffered consumption reached the ledger."""
        return self.buffered_records > 0 and self.ledger_records > 0


def run_storage_ablation(
    idle_gaps_s: tuple[float, ...] = (2.0, 10.0, 30.0),
    seed: int = 0,
) -> list[StorageAblationRow]:
    """Sweep the transit gap; verify buffered data lands in the ledger."""
    rows: list[StorageAblationRow] = []
    for idle in idle_gaps_s:
        result = run_fig6(seed=seed, phase1_s=15.0, idle_s=idle, phase2_s=20.0)
        rows.append(
            StorageAblationRow(
                idle_s=idle,
                buffered_records=result.buffered_records,
                ledger_records=len(result.consumption_times),
                handshake_s=result.handshake_s,
            )
        )
    return rows


# -- A6: tamper detection -----------------------------------------------------


@dataclass(frozen=True)
class AnomalyAblationRow:
    """Detection outcome for one attack."""

    attack: str
    residual_detected: bool
    variation_detected: bool
    entropy_detected: bool

    @property
    def detected_by_any(self) -> bool:
        """True when at least one detector fired."""
        return self.residual_detected or self.variation_detected or self.entropy_detected


def run_anomaly_ablation(
    seed: int = 0,
    windows: int = 600,
    t_measure_s: float = 0.1,
) -> list[AnomalyAblationRow]:
    """Run each attack against the three detectors on a synthetic device.

    The device runs a duty-cycled profile; the attacker manipulates the
    *reported* stream while the feeder (ground truth) sees the real one.
    """
    attacks: list[TamperAttack] = [
        TamperAttack(),
        ScalingAttack(0.5),
        OffsetAttack(25.0),
        ReplayAttack(capture_after=30),
        DropAttack(period=3),
    ]
    profile = DutyCycleProfile(high_ma=90.0, low_ma=15.0, period_s=4.0, duty=0.5)
    rows: list[AnomalyAblationRow] = []
    for attack in attacks:
        residual = GroundTruthResidualDetector(
            expected_loss_fraction=0.03, tolerance_fraction=0.10
        )
        variation = RelativeVariationDetector(window=50, threshold=3.0)
        entropy = EntropyDetector(window=100, bins=16, min_entropy_bits=0.5)
        residual_hit = variation_hit = entropy_hit = False
        for i in range(windows):
            t = i * t_measure_s
            true_ma = profile(t) + 20.0
            reported = attack.apply(true_ma)
            feeder_ma = true_ma * 1.03  # feeder truth incl. modest losses
            if residual.screen(reported, feeder_ma).anomalous:
                residual_hit = True
            if variation.screen(reported).anomalous:
                variation_hit = True
            if entropy.screen(reported).anomalous:
                entropy_hit = True
        rows.append(
            AnomalyAblationRow(
                attack=attack.name,
                residual_detected=residual_hit,
                variation_detected=variation_hit,
                entropy_detected=entropy_hit,
            )
        )
    return rows


# -- A5, A14: one consensus round over 1 ms mesh links -----------------------

_POA_RECORDS = [
    {"device": f"d{i}", "device_uid": f"u{i}", "sequence": i,
     "measured_at": 0.0, "energy_mwh": 0.01}
    for i in range(8)
]
_PBFT_RECORDS = [{"device": "d", "device_uid": "u", "sequence": 0,
                  "measured_at": 0.0, "energy_mwh": 0.5}]
_PBFT_FORGED = [dict(_PBFT_RECORDS[0], energy_mwh=0.0)]


def _full_mesh(mesh: BackhaulMesh, nodes: list[AggregatorId]) -> None:
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            mesh.connect(BackhaulLink(a, b, latency_s=0.001))


def run_poa_round(validators: int) -> tuple[bool, float, int]:
    """One PoA round: ``(committed, latency_s, mesh messages sent)``."""
    sim = Simulator(seed=0)
    mesh = BackhaulMesh(sim)
    committee = [
        NetworkedValidator(sim, AggregatorId(f"v{i}"), mesh) for i in range(validators)
    ]
    _full_mesh(mesh, [validator.node_id for validator in committee])
    consensus = NetworkedPoaConsensus(sim, committee, Blockchain(authorized=set()))
    outcomes: list[tuple[bool, float]] = []
    consensus.propose(_POA_RECORDS, lambda ok, latency: outcomes.append((ok, latency)))
    sim.run()
    committed, latency = outcomes[0]
    return committed, latency, mesh.messages_sent


def run_pbft_round(
    replicas: int, equivocate: bool = False
) -> tuple[PbftCluster, int, float]:
    """One PBFT round: ``(cluster, mesh messages sent, latency_s)``.

    With ``equivocate`` the primary sends half the backups a forged
    block (a zeroed reading) and the other half the real one.
    """
    sim = Simulator(seed=0)
    mesh = BackhaulMesh(sim)
    members = [PbftReplica(sim, AggregatorId(f"r{i}"), mesh) for i in range(replicas)]
    _full_mesh(mesh, [replica.node_id for replica in members])
    cluster = PbftCluster(members)
    if equivocate:
        cluster.propose_equivocating(_PBFT_RECORDS, _PBFT_FORGED)
    else:
        cluster.propose(_PBFT_RECORDS)
    sim.run()
    return cluster, mesh.messages_sent, sim.now


# -- A7: anomalous-device attribution ----------------------------------------


def run_attribution(
    factors: tuple[float, ...] = (1.0, 0.5), duration_s: float = 35.0
) -> dict[float, AttributionResult]:
    """Attribute agg1's residual to its devices, per report scale of device1.

    A factor of 1.0 is the honest run; any other scales device1's
    reports by it (a :class:`ScalingAttack`).  Seed 8 throughout.
    """
    results: dict[float, AttributionResult] = {}
    for factor in factors:
        scenario = build(paper_testbed_spec(seed=8))
        if factor != 1.0:
            scenario.device("device1").tamper_attack = ScalingAttack(factor)
        scenario.run_until(duration_s)
        results[factor] = scenario.aggregator("agg1").attribute_anomaly()
    return results


# -- A8: load-balancing hotspot instances ------------------------------------


def hotspot_instance(devices: int = 24, aggregators: int = 4, capacity: int = 12,
                     seed: int = 0):
    """A :class:`~repro.planning.BalanceProblem` where most devices hear
    ``agg0`` loudest; each other aggregator is reachable with p = 0.7."""
    from repro.planning import BalanceProblem  # networkx: load only here

    rng = np.random.default_rng(seed)
    names = [f"agg{i}" for i in range(aggregators)]
    reachable = {}
    for d in range(devices):
        candidates = {"agg0": -45.0 - float(rng.uniform(0, 5))}
        for other in names[1:]:
            if rng.random() < 0.7:
                candidates[other] = -60.0 - float(rng.uniform(0, 15))
        reachable[f"dev{d}"] = candidates
    return BalanceProblem(
        capacities={name: capacity for name in names}, reachable=reachable
    )


# -- A9: the aggregator-free committee ---------------------------------------


def run_decentralized(n_devices: int = 4, duration_s: float = 10.0):
    """Run a self-metering committee (seed 0), then drain its last round.

    Returns ``(chain, mesh, network)``.
    """
    from repro.decentral import DecentralizedDevice, DecentralizedNetwork

    sim = Simulator(seed=0)
    mesh = BackhaulMesh(sim)
    chain = Blockchain(authorized=set())
    devices = [
        DecentralizedDevice(
            sim, DeviceId(f"node{i}"), mesh,
            SinusoidProfile(mean_ma=60.0 + 5 * i, amplitude_ma=25.0, period_s=9.0 + i),
        )
        for i in range(n_devices)
    ]
    network = DecentralizedNetwork(sim, devices, chain)
    network.start()
    sim.run_until(duration_s)
    network.drain()
    sim.run_until(duration_s + 1.0)
    return chain, mesh, network


# -- A10, A11, A12: one sweep point each -------------------------------------


def residual_window_point(windows: int, fraud: bool) -> tuple[float, int]:
    """One network judged over ``windows``-window residual means, 25 s.

    The scaled spec's square duty-cycle loads are the worst case for
    windows straddling a load edge; ``fraud`` scales dev-0-0's reports
    by 0.4.  Returns ``(anomaly rate, network checks)``.
    """
    scenario = build(
        scaled_spec(n_networks=1, devices_per_network=4, seed=17),
        aggregator_config=AggregatorConfig(residual_check_windows=windows),
    )
    if fraud:
        scenario.devices["dev-0-0"].tamper_attack = ScalingAttack(0.4)
    scenario.run_until(25.0)
    stats = next(iter(scenario.aggregators.values())).verifier.stats
    return stats.network_anomalies / max(1, stats.network_checks), stats.network_checks


def qos_point(distance_m: float, qos: QoS) -> dict[str, float]:
    """device1 alone at ``distance_m`` from agg1, reporting at ``qos``, 25 s.

    Returns ledger completeness (committed over produced minus still
    pending) and the MQTT client's dropped and retransmitted publishes.
    """
    scenario = build(
        paper_testbed_spec(seed=9, enter_devices=False),
        device_config=DeviceConfig(report_qos=qos),
    )
    scenario.enter_at("device1", "agg1", 0.0, distance_m=distance_m)
    scenario.run_until(25.0)
    device = scenario.device("device1")
    produced = device.meter.sensor.readings_taken
    committed = len(scenario.chain.records_for_device(device.device_id.uid))
    counters = scenario.counters
    return {
        "completeness": committed / max(1, produced - device.store.pending),
        "dropped": counters.get("device1-mqtt.dropped"),
        "retransmissions": counters.get("device1-mqtt.retransmissions"),
    }


def timesync_worst_skew(interval_s: float) -> float:
    """Worst |RTC error| (s) of 8 2 ppm DS3231s synced every
    ``interval_s``, probed each second for 600 s."""
    sim = Simulator(seed=0)
    service = TimeSyncService(sim, "sync", interval_s=interval_s)
    rtcs = [Ds3231Rtc(np.random.default_rng(i), ppm_max=2.0) for i in range(8)]
    for i, rtc in enumerate(rtcs):
        service.register_clock(f"c{i}", rtc)
    service.start()
    worst = 0.0

    def probe() -> None:
        nonlocal worst
        for rtc in rtcs:
            worst = max(worst, abs(rtc.error_at(sim.now)))

    sim.every(1.0, probe)
    sim.run_until(600.0)
    return worst
