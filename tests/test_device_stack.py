"""Tests for the composed MeteringDevice (mobility, buffering, protocol)."""

import pytest

from repro.errors import ProtocolError
from repro.ids import DeviceId
from repro.protocol.device_fsm import DevicePhase
from repro.runtime import build
from repro.workloads.mobility import MobilityTrace
from repro.workloads.scenarios import paper_testbed_spec


def roaming_world(seed=0, leave_at=12.0, idle=5.0, end=30.0):
    scenario = build(paper_testbed_spec(seed=seed, enter_devices=False))
    scenario.schedule_mobility(
        "device1",
        MobilityTrace.single_move(
            home="agg1", destination="agg2", enter_home_at=0.0,
            leave_home_at=leave_at, idle_s=idle,
        ),
    )
    scenario.run_until(end)
    return scenario


class TestMobility:
    def test_temporary_membership_granted(self):
        scenario = roaming_world()
        device = scenario.device("device1")
        assert device.fsm.is_roaming
        assert device.fsm.master.aggregator.name == "agg1"
        assert device.fsm.temporary.aggregator.name == "agg2"

    def test_handshake_durations_recorded(self):
        scenario = roaming_world()
        device = scenario.device("device1")
        assert len(device.handshakes) == 2
        first, second = device.handshakes
        assert first.network.name == "agg1" and not first.temporary
        assert second.network.name == "agg2" and second.temporary
        assert 5.0 < second.duration_s < 7.0

    def test_consumption_stops_in_transit(self):
        scenario = roaming_world(seed=1)
        # During the idle gap no measurements are produced at all.
        records = scenario.chain.records_for_device(DeviceId("device1").uid)
        gap_records = [
            r for r in records if 12.05 < float(r["measured_at"]) < 16.95
        ]
        assert gap_records == []

    def test_buffered_data_forwarded_home(self):
        scenario = roaming_world(seed=2)
        agg1 = scenario.aggregator("agg1")
        # The home aggregator received data from the host network.
        assert agg1.liaison.stats.forwarded_received > 0
        roaming_records = [
            r
            for r in scenario.chain.records_for_device(DeviceId("device1").uid)
            if r.get("roaming")
        ]
        assert roaming_records
        assert all(r["network"] == "agg1" for r in roaming_records)
        assert all(r.get("host") == "agg2" for r in roaming_records)

    def test_host_does_not_store_roaming_records_as_its_own(self):
        scenario = roaming_world(seed=2)
        own_records_at_host = [
            r
            for r in scenario.chain.records_for_device(DeviceId("device1").uid)
            if not r.get("roaming") and r["network"] == "agg2"
        ]
        assert own_records_at_host == []

    def test_no_consumption_lost_across_move(self):
        scenario = roaming_world(seed=3)
        device = scenario.device("device1")
        records = scenario.chain.records_for_device(DeviceId("device1").uid)
        sequences = {int(r["sequence"]) for r in records}
        # Every measurement the device ever took either reached the chain
        # or is still pending transmission/flush.
        produced = device.meter.sensor.readings_taken
        pending = device.store.pending
        in_flight = produced - len(sequences) - pending
        assert in_flight <= 20  # at most a couple of windows in transit

    def test_home_membership_retained_while_roaming(self):
        scenario = roaming_world(seed=4)
        agg1 = scenario.aggregator("agg1")
        assert agg1.registry.is_master_member(DeviceId("device1"))

    def test_temporary_membership_expires_after_leaving(self):
        scenario = roaming_world(seed=5, end=29.0)
        device = scenario.device("device1")
        device.leave_network()
        agg2 = scenario.aggregator("agg2")
        scenario.run_until(35.0)
        assert agg2.registry.get(DeviceId("device1")) is None

    def test_return_home_needs_no_registration(self):
        scenario = roaming_world(seed=6, end=29.0)
        device = scenario.device("device1")
        device.leave_network()
        scenario.simulator.schedule(
            31.0, lambda: device.enter_network(scenario.aggregator("agg1"))
        )
        scenario.run_until(45.0)
        assert device.fsm.phase is DevicePhase.REPORTING
        assert not device.fsm.is_roaming
        third = device.handshakes[-1]
        assert not third.temporary
        assert third.duration_s is not None


class TestStackGuards:
    def test_double_enter_rejected(self):
        scenario = build(paper_testbed_spec(seed=0, enter_devices=False))
        device = scenario.device("device1")
        agg1 = scenario.aggregator("agg1")
        scenario.simulator.schedule(0.0, lambda: device.enter_network(agg1))
        scenario.run_until(10.0)
        with pytest.raises(ProtocolError):
            device.enter_network(scenario.aggregator("agg2"))

    def test_leave_without_enter_rejected(self):
        scenario = build(paper_testbed_spec(seed=0, enter_devices=False))
        with pytest.raises(ProtocolError):
            scenario.device("device1").leave_network()

    def test_true_current_includes_mcu(self):
        scenario = build(paper_testbed_spec(seed=0, enter_devices=False))
        device = scenario.device("device1")
        # Load profile (sinusoid mean 120 at t where sin=0) plus MCU idle.
        assert device.true_current_ma(0.0) == pytest.approx(120.0 + 20.0)

    def test_energy_accounting_close_to_truth(self):
        scenario = build(paper_testbed_spec(seed=7))
        scenario.run_until(15.0)
        meter = scenario.device("device1").meter
        assert meter.total_energy_mwh == pytest.approx(
            meter.total_true_energy_mwh, rel=0.02
        )
