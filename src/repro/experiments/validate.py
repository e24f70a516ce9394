"""The paper's claims table.

One entry per EXPERIMENTS.md row with a checked claim (E1-E7, A1-A12,
A14), plus the chaos runs.  Each entry runs its compressed experiment,
holds the measured values against its bounds (stated here and nowhere
else) and quotes the paper's number.  ``repro-experiments validate``
prints one line per entry and exits 1 when any entry misses a bound;
tier-1 runs each entry as one case of
``tests/test_experiments.py::test_claim``.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.anomaly import ScalingAttack
from repro.chain import Block, Blockchain, InMemoryBlockStore, audit_chain
from repro.errors import SlotAllocationError
from repro.experiments.ablations import (
    hotspot_instance,
    qos_point,
    residual_window_point,
    run_anomaly_ablation,
    run_attribution,
    run_decentralized,
    run_handshake_stage_ablation,
    run_pbft_round,
    run_poa_round,
    run_sensor_ablation,
    run_storage_ablation,
    timesync_worst_skew,
)
from repro.experiments.faults import run_blackout_chaos, run_crash_chaos, run_fault_sweep
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6, run_handshake_distribution
from repro.experiments.ledger_sync import run_ledger_sync
from repro.ids import AggregatorId, DeviceId
from repro.net import BackhaulLink, BackhaulMesh
from repro.net.mqtt import QoS
from repro.net.tdma import TdmaSchedule
from repro.runtime import build
from repro.sim import Simulator
from repro.workloads.scenarios import paper_testbed_spec, scaled_spec


@dataclass(frozen=True)
class CheckResult:
    """One claim's outcome."""

    name: str
    passed: bool
    detail: str


Bound = tuple[str, bool]

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


def _bound(label: str, value: float, op: str, limit: float) -> Bound:
    """``value op limit``, labelled with the limit and the measured value."""
    return f"{label} {op} {limit:g} (got {value:.4g})", _OPS[op](value, limit)


def _judge(name: str, measured: str, paper: str, bounds: list[Bound]) -> CheckResult:
    """Passed iff every bound held; the detail names each bound missed."""
    missed = [label for label, held in bounds if not held]
    detail = f"{measured} | paper: {paper}"
    if missed:
        detail += " | missed: " + "; ".join(missed)
    return CheckResult(name, not missed, detail)


# -- E: the paper's evaluation -----------------------------------------------


def _e1_fig5() -> CheckResult:
    """Fig. 5: the aggregator's feeder reads above the devices' sum."""
    run = run_fig5(seed=0, duration_s=45.0, warmup_s=15.0)
    seed_means = {
        seed: run_fig5(seed=seed, duration_s=30.0, warmup_s=12.0).mean_gap_pct
        for seed in (1, 2, 3)
    }
    return _judge(
        "E1 Fig. 5 gap",
        f"gap {run.min_gap_pct:.2f}..{run.max_gap_pct:.2f} % (mean "
        f"{run.mean_gap_pct:.2f} %) over t = 15-45 s; 30 s means, seeds 1-3: "
        + ", ".join(f"{mean:.2f} %" for mean in seed_means.values()),
        "0.9..8.2 % higher",
        [
            _bound("mean gap %", run.mean_gap_pct, ">", 1.0),
            _bound("mean gap %", run.mean_gap_pct, "<", 6.0),
            _bound("min gap %", run.min_gap_pct, ">", -0.5),
            _bound("max gap %", run.max_gap_pct, "<", 12.0),
            _bound("gap spread (points)", run.max_gap_pct - run.min_gap_pct, ">", 1.0),
            *(
                _bound(f"seed {seed} mean gap %", mean, ">", 0.0)
                for seed, mean in seed_means.items()
            ),
        ],
    )


def _e2_fig6() -> CheckResult:
    """Fig. 6: consumption buffered during the handshake reaches home."""
    run = run_fig6(seed=0)
    forwarded = run.first_forwarded_at
    return _judge(
        "E2 Fig. 6 mobility",
        f"T_handshake {run.handshake_s:.2f} s, {run.buffered_records} records "
        f"backfilled, entered network 2 at {run.entered_network2_at:g} s, first "
        f"forwarded at {'never' if forwarded is None else f'{forwarded:.2f} s'}",
        "buffered + live data reach Aggregator 1 via the backhaul",
        [
            _bound("T_handshake s", run.handshake_s, ">", 5.0),
            _bound("T_handshake s", run.handshake_s, "<", 7.0),
            _bound("buffered records", run.buffered_records, ">", 0),
            (
                "data forwarded home after entering network 2",
                forwarded is not None and forwarded > run.entered_network2_at,
            ),
        ],
    )


def _e3_handshake() -> CheckResult:
    """T_handshake over 15 seeded runs."""
    stats = run_handshake_distribution(runs=15, base_seed=0)
    return _judge(
        "E3 T_handshake",
        f"mean {stats.mean_s:.2f} s, range {stats.min_s:.2f}-{stats.max_s:.2f} s "
        f"over {stats.runs} runs",
        "mean 6 s, 5.5-6.5 s over 15 runs",
        [
            _bound("mean s", stats.mean_s, ">", 5.5),
            _bound("mean s", stats.mean_s, "<", 6.5),
            _bound("min s", stats.min_s, ">", 5.0),
            _bound("max s", stats.max_s, "<", 7.0),
            _bound("range s", stats.max_s - stats.min_s, "<", 1.5),
        ],
    )


def _e4_backhaul() -> CheckResult:
    """Aggregator-to-aggregator delay."""
    mesh = BackhaulMesh(Simulator())
    a, b = AggregatorId("agg0"), AggregatorId("agg1")
    for node in (a, b):
        mesh.add_aggregator(node, lambda source, payload: None)
    mesh.connect(BackhaulLink(a, b, latency_s=0.001))
    latency = mesh.send(a, b, {"payload": 1})
    return _judge(
        "E4 backhaul delay",
        f"one hop {latency * 1000:.3f} ms",
        "~1 ms",
        [("one-hop latency is 1 ms", math.isclose(latency, 0.001, rel_tol=1e-6))],
    )


def _e5_reporting() -> CheckResult:
    """T_measure = 100 ms: every device sustains ~10 acked reports/s."""
    scenario = build(paper_testbed_spec(seed=5))
    scenario.run_until(30.0)
    rates = {
        name: device.acked_count / (30.0 - device.last_handshake.registered_at)
        for name, device in scenario.devices.items()
    }
    return _judge(
        "E5 reporting cadence",
        "acked reports/s: "
        + ", ".join(f"{name} {rate:.2f}" for name, rate in rates.items()),
        "10 reports/s per device, each acknowledged",
        [_bound(f"{name} reports/s", rate, ">", 9.0) for name, rate in rates.items()],
    )


def _ledger(store: InMemoryBlockStore, blocks: int, records_per_block: int) -> Blockchain:
    chain = Blockchain(store)
    for b in range(blocks):
        chain.append(
            "agg1",
            float(b),
            [
                {"device": f"d{i}", "device_uid": f"u{i}", "sequence": b * 100 + i,
                 "measured_at": float(b), "energy_mwh": 0.01 * i}
                for i in range(records_per_block)
            ],
        )
    return chain


def _forge(store: InMemoryBlockStore, height: int, index: int, energy_mwh: float) -> None:
    """Rewrite one stored record in place, keeping the block's hash."""
    victim = store.get(height)
    forged = [dict(record) for record in victim.records]
    forged[index]["energy_mwh"] = energy_mwh
    store.tamper(height, Block(victim.header, tuple(forged), victim.block_hash))


def _e6_tamper() -> CheckResult:
    """The hash chain makes stored consumption tamper-evident."""
    rng = random.Random(7)
    trials, detected = 40, 0
    for _ in range(trials):
        store = InMemoryBlockStore()
        chain = _ledger(store, blocks=12, records_per_block=8)
        _forge(store, rng.randrange(chain.height), rng.randrange(8), rng.random())
        detected += not audit_chain(chain).clean
    long_audit_clean = audit_chain(_ledger(InMemoryBlockStore(), 100, 20)).clean

    store = InMemoryBlockStore()
    scenario = build(paper_testbed_spec(seed=2), store=store)
    scenario.run_until(8.0)
    testbed_clean = audit_chain(scenario.chain).clean
    _forge(store, 1, 0, 0.0)
    testbed_caught = not audit_chain(scenario.chain).clean
    return _judge(
        "E6 tamper evidence",
        f"{detected}/{trials} random record mutations caught; 100-block audit "
        f"clean: {long_audit_clean}; testbed chain clean before: {testbed_clean}, "
        f"forged reading caught: {testbed_caught}",
        "storage is tamper-proof",
        [
            _bound("mutations caught", detected, "==", trials),
            ("an untouched 100-block chain audits clean", long_audit_clean),
            ("the testbed chain audits clean", testbed_clean),
            ("a zeroed testbed reading is caught", testbed_caught),
        ],
    )


def _e7_ledger_sync() -> CheckResult:
    """Danzi et al.: header batch size trades sync traffic for delay."""
    points = run_ledger_sync()
    traffic = [p.bytes_per_block_per_device for p in points]
    delay = [p.mean_delay_s for p in points]
    verified = sum(p.receipts_verified_offline for p in points)
    requested = sum(p.receipts_requested for p in points)
    return _judge(
        "E7 light-client sync",
        "batch: bytes/block/device, mean header age: "
        + ", ".join(
            f"{p.batch_size}: {p.bytes_per_block_per_device:.0f} B, {p.mean_delay_s:.2f} s"
            for p in points
        )
        + f"; receipts verified offline {verified}/{requested}",
        "larger batches cut traffic and add delay (arXiv:1807.07422)",
        [
            ("traffic falls as the batch grows", traffic == sorted(set(traffic), reverse=True)),
            ("delay grows with the batch", delay == sorted(set(delay))),
            _bound("receipts requested", requested, ">", 0),
            _bound("receipts verified offline", verified, "==", requested),
        ],
    )


# -- A: ablations ---------------------------------------------------------------


def _a1_error_sources() -> CheckResult:
    """The Fig. 5 gap comes from the wire losses and the sensor offset."""
    rows = run_sensor_ablation(duration_s=30.0, warmup_s=12.0)
    gap = {(r.offset_max_ma, r.wire_resistance_ohms): r.mean_gap_pct for r in rows}
    ideal, nominal = gap[(0.0, 0.0)], gap[(0.5, 0.1)]
    return _judge(
        "A1 gap attribution",
        f"mean gap: ideal {ideal:.2f} %, nominal {nominal:.2f} %, wire only "
        f"{gap[(0.0, 0.1)]:.2f} %, 1 mA offset only {gap[(1.0, 0.0)]:.2f} %",
        "ohmic losses plus the 0.5 mA INA219 offset",
        [
            _bound("|ideal mean gap| %", abs(ideal), "<", 0.5),
            _bound("nominal mean gap %", nominal, ">", 1.0),
            ("wire only > 1 mA offset only", gap[(0.0, 0.1)] > gap[(1.0, 0.0)]),
            ("wire adds gap at the 0.5 mA offset", gap[(0.5, 0.1)] > gap[(0.5, 0.0)]),
        ],
    )


def _a2_handshake_stages() -> CheckResult:
    """Radio time, mostly the channel scan, makes T_handshake."""
    row = run_handshake_stage_ablation(runs=10, base_seed=0)
    stages = row.scan_s + row.assoc_s + row.connect_s + row.protocol_s
    return _judge(
        "A2 handshake stages",
        f"scan {row.scan_s:.2f} s, association {row.assoc_s:.2f} s, MQTT connect "
        f"{row.connect_s:.2f} s, protocol {row.protocol_s:.2f} s of {row.total_s:.2f} s",
        "T_handshake 6 s (stages not reported)",
        [
            ("scan is the longest stage", row.dominant_stage == "scan"),
            _bound("scan share", row.scan_s / row.total_s, ">", 0.5),
            _bound("protocol share", row.protocol_s / row.total_s, "<", 0.1),
            _bound("|stage sum - total| s", abs(stages - row.total_s), "<", 0.2),
        ],
    )


def _a3_storage() -> CheckResult:
    """Store-and-forward delivers buffered consumption after any gap."""
    rows = run_storage_ablation(idle_gaps_s=(2.0, 10.0, 30.0))
    counts = [r.buffered_records for r in rows]
    return _judge(
        "A3 store-and-forward",
        "buffered records at idle 2/10/30 s: " + "/".join(map(str, counts)),
        "data is stored locally until the network is restored",
        [
            ("every gap backfills the ledger", all(r.backfill_worked for r in rows)),
            ("buffered count never falls with the gap", counts == sorted(counts)),
            _bound("buffered count spread", max(counts) - min(counts), "<", 40),
        ],
    )


def _a4_scalability() -> CheckResult:
    """Every device registers; TDMA slots cap devices per aggregator."""
    registered = {}
    for devices in (2, 8, 16):
        scenario = build(scaled_spec(n_networks=2, devices_per_network=devices, seed=17))
        scenario.run_until(12.0)
        scenario.chain.validate()
        registered[devices] = sum(
            unit.registry.member_count for unit in scenario.aggregators.values()
        )
    schedule = TdmaSchedule(superframe_s=0.1, slot_count=16)
    admitted = 0
    try:
        while admitted <= schedule.slot_count:
            schedule.assign(DeviceId(f"d{admitted}"))
            admitted += 1
    except SlotAllocationError:
        pass
    return _judge(
        "A4 scalability",
        "registered of 2x2/2x8/2x16: "
        + "/".join(map(str, registered.values()))
        + f"; TDMA admits {admitted} of 16 slots",
        "devices per aggregator are limited by the time slots",
        [
            *(_bound(f"registered of 2x{n}", count, "==", 2 * n)
              for n, count in registered.items()),
            _bound("devices admitted", admitted, "==", 16),
        ],
    )


def _a5_poa_cost() -> CheckResult:
    """A PoA round costs 2(n-1) mesh messages; trusted aggregators, 0."""
    # n -> (committed, latency_s, messages): costed sizes, then timed ones.
    costed = {n: run_poa_round(n) for n in (2, 4, 8, 16)}
    timed = {n: run_poa_round(n) for n in (3, 5, 9)}
    return _judge(
        "A5 PoA cost",
        "messages/block at n = 2/4/8/16: "
        + "/".join(str(m) for _, _, m in costed.values())
        + "; commit latency at n = 3/5/9: "
        + "/".join(f"{lat * 1000:.1f}" for _, lat, _ in timed.values()) + " ms",
        "trusted aggregators: no consensus required (0 messages)",
        [
            ("every round commits",
             all(committed for committed, _, _ in [*costed.values(), *timed.values()])),
            *(_bound(f"messages at n={n}", m, "==", 2 * (n - 1))
              for n, (_, _, m) in costed.items()),
            *(bound for n, (_, lat, _) in timed.items() for bound in (
                _bound(f"latency s at n={n}", lat, ">=", 0.004),
                _bound(f"latency s at n={n}", lat, "<=", 0.02),
            )),
        ],
    )


def _a6_detectors() -> CheckResult:
    """The complementary measurement catches every attack, end to end too."""
    rows = {r.attack: r for r in run_anomaly_ablation()}
    scenario = build(paper_testbed_spec(seed=23))
    scenario.device("device1").tamper_attack = ScalingAttack(0.5)
    scenario.run_until(25.0)
    fraud = scenario.aggregator("agg1").verifier.stats
    honest = scenario.aggregator("agg2").verifier.stats
    attacks = ("scaling", "offset", "replay", "drop")
    return _judge(
        "A6 attacks vs detectors",
        "caught: " + ", ".join(a for a in attacks if rows[a].detected_by_any)
        + f"; full run: fraud network flagged {fraud.network_anomalies}/"
        f"{fraud.network_checks}, honest {honest.network_anomalies}/{honest.network_checks}",
        "the complementary measurement exposes tampering",
        [
            ("the honest stream is not flagged", not rows["none"].detected_by_any),
            *((f"{a} caught", rows[a].detected_by_any) for a in attacks),
            ("the residual catches scaling", rows["scaling"].residual_detected),
            ("the entropy detector catches replay", rows["replay"].entropy_detected),
            _bound("fraud network flagged share",
                   fraud.network_anomalies / max(1, fraud.network_checks), ">", 0.5),
            _bound("honest network flags", honest.network_anomalies, "==", 0),
        ],
    )


def _a7_attribution() -> CheckResult:
    """Least squares names the under-reporting device and its scale."""
    results = run_attribution(factors=(0.3, 0.5, 0.8), duration_s=40.0)
    return _judge(
        "A7 attribution",
        "; ".join(
            f"x{f}: alpha {r.alphas['device1']:.2f}/{r.alphas['device2']:.2f}, "
            f"suspects {','.join(r.suspects) or '-'}"
            for f, r in results.items()
        ),
        "which device misreports is future work",
        [
            bound
            for f, r in results.items()
            for bound in (
                (f"x{f}: device1 alone is suspect", r.suspects == ["device1"]),
                _bound(f"x{f}: |alpha1 * {f} - 1|", abs(r.alphas["device1"] * f - 1.0),
                       "<=", 0.25),
                _bound(f"x{f}: |alpha2 - 1|", abs(r.alphas["device2"] - 1.0), "<=", 0.12),
            )
        ],
    )


def _a8_load_balance() -> CheckResult:
    """The min-max balancer beats greedy RSSI placement on hotspots."""
    from repro.planning import balance_min_max_utilisation, greedy_rssi_assignment

    greedy, balanced, stranded = [], [], 0
    for seed in range(5):
        problem = hotspot_instance(seed=seed)
        greedy.append(greedy_rssi_assignment(problem).max_utilisation(problem))
        assignment = balance_min_max_utilisation(problem)
        balanced.append(assignment.max_utilisation(problem))
        stranded += len(assignment.unassigned)
    large_stranded = sum(
        len(balance_min_max_utilisation(
            hotspot_instance(devices=n, aggregators=8, capacity=max(4, n // 4), seed=1)
        ).unassigned)
        for n in (16, 64, 128)
    )
    return _judge(
        "A8 load balancing",
        f"max utilisation over 5 hotspots: greedy {np.mean(greedy):.2f}, balanced "
        f"{np.mean(balanced):.2f}; stranded {stranded}, at 16-128 devices {large_stranded}",
        "dynamic load balancing is an open research problem",
        [
            ("balanced never above greedy",
             all(b <= g + 1e-9 for b, g in zip(balanced, greedy))),
            ("balanced below greedy on average", np.mean(balanced) < np.mean(greedy)),
            _bound("devices stranded", stranded + large_stranded, "==", 0),
        ],
    )


def _a9_decentralized() -> CheckResult:
    """A self-metering committee pays mesh traffic and commit latency."""
    chain, mesh, network = run_decentralized()
    chain.validate()
    records = sum(block.header.record_count for block in chain)
    latency = float(np.mean(network.commit_latencies))
    scenario = build(paper_testbed_spec(seed=0))
    scenario.run_until(10.0)
    agg_records = sum(block.header.record_count for block in scenario.chain)
    agg_messages = scenario.mesh.messages_sent
    committees = {
        n: float(np.mean(run_decentralized(n_devices=n, duration_s=5.0)[2].commit_latencies))
        for n in (3, 6, 9)
    }
    per_record = mesh.messages_sent / max(1, records)
    return _judge(
        "A9 decentralized committee",
        f"committee: {records} records, {mesh.messages_sent} mesh messages, "
        f"{latency * 1000:.1f} ms per block; aggregator: {agg_records} records, "
        f"{agg_messages} mesh messages, 0 ms; 3/6/9-device latency "
        + "/".join(f"{lat * 1000:.1f}" for lat in committees.values()) + " ms",
        "trusted aggregators: no consensus required",
        [
            _bound("committee failed rounds", network.failures, "==", 0),
            _bound("committee records", records, ">=", 4 * 10 * 10 * 0.95),
            ("committee sends > 2 x the aggregator's mesh messages per record",
             per_record > 2 * agg_messages / max(1, agg_records)),
            *(_bound(f"{n}-device latency s", lat, ">", 0.0)
              for n, lat in {4: latency, **committees}.items()),
        ],
    )


def _a10_residual_window() -> CheckResult:
    """K-window residual means drop false alarms and keep the fraud."""
    rate = {
        (k, fraud): residual_window_point(k, fraud)[0]
        for k in (1, 5, 10) for fraud in (False, True)
    }
    honest = rate[(5, False)]
    return _judge(
        "A10 residual window",
        "anomaly rate honest/fraud at K = 1, 5, 10: "
        + ", ".join(f"{rate[(k, False)]:.3f}/{rate[(k, True)]:.3f}" for k in (1, 5, 10)),
        "the residual check flags fraud (window size not reported)",
        [
            ("K=5 honest rate <= K=1's", honest <= rate[(1, False)]),
            _bound("K=5 honest rate", honest, "<", 0.05),
            *(bound for k in (1, 5, 10) for bound in (
                _bound(f"K={k} fraud rate", rate[(k, True)], ">", 0.25),
                (f"K={k} fraud rate > 4 x K=5 honest rate", rate[(k, True)] > 4 * honest),
            )),
        ],
    )


def _a11_qos() -> CheckResult:
    """Store-and-forward keeps billing whole; QoS sets the airtime bill."""
    points = {
        (distance, qos): qos_point(distance, qos)
        for distance in (5.0, 110.0, 140.0)
        for qos in (QoS.AT_MOST_ONCE, QoS.AT_LEAST_ONCE)
    }
    q0, q1 = points[(140.0, QoS.AT_MOST_ONCE)], points[(140.0, QoS.AT_LEAST_ONCE)]
    return _judge(
        "A11 QoS vs distance",
        "completeness >= "
        + f"{min(p['completeness'] for p in points.values()):.3f} at 5-140 m; at 140 m "
        f"QoS 0 drops {q0['dropped']}, QoS 1 drops {q1['dropped']} and retransmits "
        f"{q1['retransmissions']}",
        "failed reports are buffered locally and re-sent",
        [
            *(_bound(f"completeness at {d:g} m QoS {q.value}", p["completeness"], ">", 0.95)
              for (d, q), p in points.items()),
            ("140 m: QoS 0 drops > 3 x QoS 1's", q0["dropped"] > 3 * max(1, q1["dropped"])),
            _bound("140 m QoS 1 retransmissions", q1["retransmissions"], ">", 0),
        ],
    )


def _a12_timesync() -> CheckResult:
    """RTC skew stays within the sync interval x 2 ppm."""
    # name -> (worst skew s, drift span s): free-running drifts all 600 s.
    skews = {f"{i:g} s sync": (timesync_worst_skew(i), i) for i in (10.0, 60.0, 300.0)}
    skews["free-running"] = (timesync_worst_skew(1e9), 600.0)
    return _judge(
        "A12 time sync",
        "worst skew: "
        + ", ".join(f"{name} {skew * 1e6:.0f} us" for name, (skew, _) in skews.items()),
        "devices and aggregators are time-synchronized",
        [
            *(_bound(f"{name} worst skew us", skew * 1e6, "<=", span * 2 + 1e-3)
              for name, (skew, span) in skews.items()),
            ("60 s sync skew < free-running / 5",
             skews["60 s sync"][0] < skews["free-running"][0] / 5),
        ],
    )


def _a14_consensus_ladder() -> CheckResult:
    """PBFT buys Byzantine tolerance with O(n^2) messages."""
    rounds = {n: run_pbft_round(n) for n in (4, 7)}
    _, poa_latency, poa_messages = run_poa_round(4)
    equivocated, _, _ = run_pbft_round(4, equivocate=True)
    return _judge(
        "A14 consensus ladder",
        f"n=4: trusted 0, PoA {poa_messages} ({poa_latency * 1000:.1f} ms), PBFT "
        f"{rounds[4][1]} ({rounds[4][2] * 1000:.1f} ms) messages; PBFT n=7 "
        f"{rounds[7][1]}; equivocation executed on "
        f"{sum(r.executed_count for r in equivocated.replicas)}/4 replicas",
        "trusted aggregators: no consensus required",
        [
            *(bound for n, (cluster, messages, _) in rounds.items() for bound in (
                (f"n={n}: every replica executes once, one tip",
                 cluster.converged_tip() is not None
                 and all(r.executed_count == 1 for r in cluster.replicas)),
                _bound(f"n={n} messages", messages, ">=", 2 * (n - 1) ** 2),
            )),
            ("0 < PoA < PBFT messages at n=4", 0 < poa_messages < rounds[4][1]),
            ("an equivocating primary executes nowhere, no divergence",
             equivocated.converged_tip() is not None
             and all(r.executed_count == 0 for r in equivocated.replicas)),
        ],
    )


def _fingerprint(result) -> tuple:
    return (
        result.fault_counters,
        result.fault_plan,
        {
            name: (d.measured, d.delivered, d.duplicates, d.ledger_mwh, d.retry_stats)
            for name, d in result.devices.items()
        },
    )


def _chaos() -> CheckResult:
    """Faults cost no billed consumption while retries are on."""
    blackout = run_blackout_chaos(seed=0, blackout_s=30.0)
    crash = run_crash_chaos(seed=0, outage_s=15.0)
    intensities = [0.0, 0.05, 0.1, 0.2]
    retry = run_fault_sweep(intensities, seed=0, retry=True)
    no_retry = run_fault_sweep(intensities, seed=0, retry=False)
    timeouts = sum(d.retry_stats["report_timeouts"] for d in crash.devices.values())
    deterministic = _fingerprint(run_blackout_chaos(seed=42)) == _fingerprint(
        run_blackout_chaos(seed=42)
    )
    faulty = [(p, q) for p, q in zip(retry, no_retry) if p.intensity > 0]
    return _judge(
        "chaos delivery and billing",
        f"30 s blackout: delivery {blackout.delivery_ratio:.4f}, "
        f"{blackout.buffered_delivered} buffered; crash: delivery "
        f"{crash.delivery_ratio:.4f}, {timeouts} report timeouts; broker loss "
        + ", ".join(f"{p.intensity:g}" for p in retry)
        + ": delivery with/without retry "
        + ", ".join(f"{p.delivery_ratio:.3f}/{q.delivery_ratio:.3f}"
                    for p, q in zip(retry, no_retry))
        + f"; seed-42 rerun identical: {deterministic}",
        "data is stored locally until the network is restored",
        [
            *(bound for name, d in blackout.devices.items() for bound in (
                _bound(f"{name} store drops", d.store_dropped, "==", 0),
                _bound(f"{name} undelivered", d.measured - d.delivered, "==", 0),
                _bound(f"{name} buffered deliveries", d.buffered_delivered, ">=", 250),
            )),
            _bound("blackouts injected", blackout.fault_counters["radio.blackouts"], "==", 1),
            *(bound for run, result in (("blackout", blackout), ("crash", crash))
              for bound in (
                  _bound(f"{run} delivery", result.delivery_ratio, "==", 1.0),
                  _bound(f"{run} billing error", result.billing_error, "<", 1e-9),
              )),
            _bound("crash report timeouts", timeouts, ">", 0),
            *(_bound(f"delivery with retry at {p.intensity:g}", p.delivery_ratio, ">=", 0.99)
              for p in retry),
            *(bound for p, q in faulty for bound in (
                (f"no-retry delivery < retry's - 0.01 at {p.intensity:g}",
                 q.delivery_ratio < p.delivery_ratio - 0.01),
                (f"no-retry billing error > retry's at {p.intensity:g}",
                 q.billing_error > p.billing_error),
            )),
            ("a chaos run is deterministic", deterministic),
        ],
    )


CHECKS: dict[str, Callable[[], CheckResult]] = {
    "E1": _e1_fig5,
    "E2": _e2_fig6,
    "E3": _e3_handshake,
    "E4": _e4_backhaul,
    "E5": _e5_reporting,
    "E6": _e6_tamper,
    "E7": _e7_ledger_sync,
    "A1": _a1_error_sources,
    "A2": _a2_handshake_stages,
    "A3": _a3_storage,
    "A4": _a4_scalability,
    "A5": _a5_poa_cost,
    "A6": _a6_detectors,
    "A7": _a7_attribution,
    "A8": _a8_load_balance,
    "A9": _a9_decentralized,
    "A10": _a10_residual_window,
    "A11": _a11_qos,
    "A12": _a12_timesync,
    "A14": _a14_consensus_ladder,
    "chaos": _chaos,
}


def run_validation() -> list[CheckResult]:
    """Run every entry; failures never raise, they report."""
    results: list[CheckResult] = []
    for name, check in CHECKS.items():
        try:
            results.append(check())
        except Exception as exc:  # a crash is a failed entry, with detail
            results.append(CheckResult(name, False, f"crashed: {exc!r}"))
    return results


def render_validation(results: list[CheckResult]) -> str:
    """One line per entry, then the count that held."""
    lines = [
        f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}"
        for result in results
    ]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} claims hold")
    return "\n".join(lines)
