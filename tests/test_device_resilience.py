"""Tests for outage recovery and the billing-dispute receipt flow."""

import pytest

from repro.errors import NetworkError, ProtocolError
from repro.ids import DeviceId
from repro.protocol.device_fsm import DevicePhase
from repro.runtime import TransportSpec, build
from repro.workloads.scenarios import paper_testbed_spec


def steady_scenario(seed=71, until=12.0):
    scenario = build(paper_testbed_spec(seed=seed))
    scenario.run_until(until)
    return scenario


class TestCommOutage:
    def test_measurements_buffer_during_outage(self):
        scenario = steady_scenario()
        device = scenario.device("device1")
        buffered_before = device.reports_buffered
        device.drop_connection()
        scenario.run_until(17.0)
        assert device.reports_buffered > buffered_before + 40
        assert device.store.pending > 40

    def test_reconnect_flushes_backlog(self):
        scenario = steady_scenario()
        device = scenario.device("device1")
        device.drop_connection()
        scenario.run_until(17.0)
        pending_at_reconnect = device.store.pending
        device.reconnect()
        scenario.run_until(25.0)
        assert pending_at_reconnect > 0
        assert device.store.pending == 0
        # The outage window is fully present in the ledger.
        records = scenario.chain.records_for_device(device.device_id.uid)
        outage_records = [
            r for r in records if 12.5 < float(r["measured_at"]) < 16.5
        ]
        assert len(outage_records) > 30
        assert all(r["buffered"] for r in outage_records)

    def test_no_nack_storm_on_home_reconnect(self):
        # Reconnecting to the home network needs no re-registration.
        scenario = steady_scenario()
        device = scenario.device("device1")
        agg1 = scenario.aggregator("agg1")
        nacks_before = agg1.nacks_sent
        device.drop_connection()
        scenario.run_until(14.0)
        device.reconnect()
        scenario.run_until(20.0)
        assert agg1.nacks_sent == nacks_before

    def test_guards(self):
        scenario = steady_scenario()
        device = scenario.device("device1")
        with pytest.raises(ProtocolError):
            device.reconnect()  # still connected
        device.drop_connection()
        with pytest.raises(ProtocolError):
            device.drop_connection()  # already down
        scenario_fresh = build(paper_testbed_spec(seed=1, enter_devices=False))
        with pytest.raises(ProtocolError):
            scenario_fresh.device("device1").drop_connection()  # not in a network

    def test_membership_survives_outage(self):
        scenario = steady_scenario()
        device = scenario.device("device1")
        device.drop_connection()
        scenario.run_until(15.0)
        assert scenario.aggregator("agg1").registry.is_master_member(
            DeviceId("device1")
        )


class TestLeaveMidHandshake:
    """Leaving while the scan/association/connect chain is in flight."""

    @staticmethod
    def assert_left_cleanly(scenario, device):
        unit = scenario.aggregator("agg1")
        assert not device.connected
        assert device.fsm.phase is DevicePhase.IN_TRANSIT
        assert unit.registry.get(device.device_id) is None
        with pytest.raises(NetworkError):
            unit.endpoint.unsubscribe(f"device/{device.name}/ctrl", device._on_ctrl)

    @pytest.mark.parametrize("kind", ("mqtt", "direct"))
    def test_leave_during_scan_drops_the_join(self, kind):
        spec = paper_testbed_spec(
            seed=7, enter_devices=False, transport=TransportSpec(kind=kind)
        )
        scenario = build(spec)
        device = scenario.device("device1")
        scenario.enter_at("device1", "agg1", 0.0)
        scenario.simulator.schedule(1.0, device.leave_network)
        scenario.run_until(15.0)
        self.assert_left_cleanly(scenario, device)

    @pytest.mark.parametrize("kind", ("mqtt", "direct"))
    def test_session_completing_after_leave_is_dropped(self, kind):
        spec = paper_testbed_spec(
            seed=7, enter_devices=False, transport=TransportSpec(kind=kind)
        )
        scenario = build(spec)
        device = scenario.device("device1")
        scenario.enter_at("device1", "agg1", 0.0)
        scenario.run_until(0.5)
        handshake = device.last_handshake
        scenario.run_until(handshake.scan_s + 0.001)  # association drawn
        # Leave while the connect is in flight: after association, before
        # the session comes up.
        scenario.run_until(handshake.scan_s + handshake.assoc_s + 0.01)
        assert handshake.connect_s > 0.01 and not device.connected
        device.leave_network()
        scenario.run_until(15.0)
        self.assert_left_cleanly(scenario, device)

    @pytest.mark.parametrize("kind", ("mqtt", "direct"))
    def test_reconnect_abandoned_by_leave(self, kind):
        spec = paper_testbed_spec(seed=7, transport=TransportSpec(kind=kind))
        scenario = build(spec)
        scenario.run_until(12.0)
        device = scenario.device("device1")
        device.drop_connection()
        device.reconnect()
        device.leave_network()
        scenario.run_until(20.0)
        assert not device.connected
        with pytest.raises(NetworkError):
            scenario.aggregator("agg1").endpoint.unsubscribe(
                f"device/{device.name}/ctrl", device._on_ctrl
            )

    def test_second_reconnect_while_joining_rejected(self):
        scenario = steady_scenario()
        device = scenario.device("device1")
        device.drop_connection()
        device.reconnect()
        with pytest.raises(ProtocolError):
            device.reconnect()  # the first one is still in flight
        scenario.run_until(20.0)
        assert device.connected


class TestReceiptFlow:
    def test_device_obtains_verified_receipt(self):
        scenario = steady_scenario()
        device = scenario.device("device1")
        # Sequence 10 was sent early in the run and certainly committed.
        sequence = 10
        device.request_receipt(sequence)
        scenario.run_until(13.0)
        receipt = device.receipts.get(sequence)
        assert receipt is not None
        assert receipt.record["sequence"] == sequence
        assert receipt.record["device_uid"] == device.device_id.uid
        # Binding to the live chain also holds.
        assert receipt.verify(scenario.chain)

    def test_unknown_sequence_reported_missing(self):
        scenario = steady_scenario()
        device = scenario.device("device1")
        device.request_receipt(10_000_000)
        scenario.run_until(13.0)
        assert 10_000_000 in device.receipts
        assert device.receipts[10_000_000] is None

    def test_receipt_request_requires_connection(self):
        scenario = steady_scenario()
        device = scenario.device("device1")
        device.drop_connection()
        with pytest.raises(ProtocolError):
            device.request_receipt(1)

    def test_receipt_covers_roaming_record_at_home(self):
        from repro.workloads.mobility import MobilityTrace

        scenario = build(paper_testbed_spec(seed=72, enter_devices=False))
        scenario.schedule_mobility(
            "device1",
            MobilityTrace.single_move(
                home="agg1", destination="agg2",
                enter_home_at=0.0, leave_home_at=12.0, idle_s=4.0,
            ),
        )
        scenario.run_until(30.0)
        device = scenario.device("device1")
        roaming = [
            r for r in scenario.chain.records_for_device(device.device_id.uid)
            if r.get("roaming")
        ]
        assert roaming
        sequence = int(roaming[0]["sequence"])
        # The device is connected at agg2; the receipt is served from the
        # common chain regardless of which aggregator committed it.
        device.request_receipt(sequence)
        scenario.run_until(31.0)
        receipt = device.receipts.get(sequence)
        assert receipt is not None
        assert receipt.verify(scenario.chain)
