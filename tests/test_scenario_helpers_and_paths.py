"""Tests for scenario helpers and remaining aggregator/protocol paths."""

import pytest

from repro.anomaly.tamper import TamperAttack
from repro.errors import ProtocolError
from repro.grid.topology import GridNetwork
from repro.hw.powerline import WireSegment
from repro.ids import AggregatorId, DeviceId
from repro.protocol.device_fsm import DevicePhase
from repro.runtime import build
from repro.workloads.scenarios import paper_testbed_spec


class AmplifyAttack(TamperAttack):
    """Over-report beyond the sensor's physical range."""

    name = "amplify"

    def __init__(self, factor: float) -> None:
        self._factor = factor

    def apply(self, reported_ma: float) -> float:
        return reported_ma * self._factor


class TestScenarioHelpers:
    def test_summary_shape(self):
        scenario = build(paper_testbed_spec(seed=51))
        scenario.run_until(10.0)
        summary = scenario.summary()
        assert summary["chain_height"] > 0
        assert set(summary["devices"]) == {"device1", "device2", "device3", "device4"}
        assert summary["devices"]["device1"]["phase"] == "reporting"
        assert summary["aggregators"]["agg1"]["members"] == 2
        assert summary["total_energy_mwh"] > 0

    def test_export_monitoring_writes_csvs(self, tmp_path):
        scenario = build(paper_testbed_spec(seed=52))
        scenario.run_until(8.0)
        paths = scenario.export_monitoring(tmp_path)
        assert paths
        feeder_files = [p for p in paths if "feeder" in p.name]
        assert len(feeder_files) == 2  # one per aggregator
        text = feeder_files[0].read_text()
        assert text.startswith("time_s,")
        assert len(text.splitlines()) > 50


class TestAnomalousReportPath:
    def test_overrange_reports_nacked_and_excluded(self):
        scenario = build(paper_testbed_spec(seed=53))
        device = scenario.device("device1")
        scenario.run_until(10.0)
        # From t=10 the device reports 10x its real draw: > 400 mA.
        device.tamper_attack = AmplifyAttack(10.0)
        scenario.run_until(20.0)
        agg1 = scenario.aggregator("agg1")
        stats = agg1.verifier.stats
        assert stats.reports_rejected > 50
        assert "exceeds sensor range" in " ".join(stats.rejections_by_reason)
        # Rejected reports never reach the ledger.
        records = scenario.chain.records_for_device(device.device_id.uid)
        overrange = [r for r in records if float(r["current_ma"]) > 400.0]
        assert overrange == []
        # The device keeps its membership and reporting phase throughout.
        assert device.fsm.phase is DevicePhase.REPORTING
        assert agg1.registry.is_master_member(device.device_id)

    def test_anomalous_nack_does_not_rebuffer(self):
        scenario = build(paper_testbed_spec(seed=54))
        device = scenario.device("device1")
        scenario.run_until(10.0)
        device.tamper_attack = AmplifyAttack(10.0)
        scenario.run_until(14.0)
        # ANOMALOUS Nacks (unlike NOT_A_MEMBER) drop the data: buffering
        # fraud for retransmission would be pointless.
        assert device.store.pending < 5


class TestCustomWireSegments:
    def test_per_device_segment_overrides_default(self):
        network = GridNetwork(
            AggregatorId("agg1"),
            default_segment=WireSegment(resistance_ohms=0.0, leakage_ma=0.0),
        )
        lossy = WireSegment(resistance_ohms=0.0, leakage_ma=10.0)
        network.attach(DeviceId("clean"), lambda t: 100.0, 0.0)
        network.attach(DeviceId("lossy"), lambda t: 100.0, 0.0, segment=lossy)
        # Only the lossy run adds leakage.
        assert network.feeder_current_ma(0.0) == pytest.approx(210.0)


class TestBackhaulPayloadGuard:
    def test_unexpected_backhaul_payload_rejected(self):
        scenario = build(paper_testbed_spec(seed=55, enter_devices=False))
        agg1 = scenario.aggregator("agg1")
        with pytest.raises(ProtocolError):
            agg1._on_backhaul(AggregatorId("agg2"), {"not": "a message"})

    def test_wrong_message_type_on_topics_rejected(self):
        from repro.protocol.codec import encode_message
        from repro.protocol.messages import Ack

        scenario = build(paper_testbed_spec(seed=56, enter_devices=False))
        agg1 = scenario.aggregator("agg1")
        payload = encode_message(Ack(DeviceId("device1"), 1))
        with pytest.raises(ProtocolError):
            agg1._on_report("meter/device1/report", payload)
        with pytest.raises(ProtocolError):
            agg1._on_register("meter/device1/register", payload)
        with pytest.raises(ProtocolError):
            agg1._on_receipt_request("meter/device1/receipt", payload)
