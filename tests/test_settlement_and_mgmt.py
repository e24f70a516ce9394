"""Tests for inter-aggregator settlement and management over MQTT."""

import pytest

from repro.billing import FlatTariff, SettlementEngine
from repro.chain import Blockchain
from repro.errors import BillingError, ProtocolError
from repro.ids import DeviceId
from repro.runtime import build
from repro.workloads.mobility import MobilityTrace
from repro.workloads.scenarios import paper_testbed_spec


def record(home, host, energy, at=1.0, seq=0):
    return {
        "device": "d1", "device_uid": "u1", "sequence": seq,
        "measured_at": at, "energy_mwh": energy,
        "roaming": True, "network": home, "host": host,
    }


class TestSettlementUnit:
    def make_chain(self):
        chain = Blockchain()
        chain.append("agg1", 1.0, [
            record("agg1", "agg2", 2.0, at=1.0, seq=0),
            record("agg1", "agg2", 3.0, at=2.0, seq=1),
            record("agg2", "agg1", 1.0, at=1.5, seq=0),
            # Non-roaming records never settle.
            {"device": "d9", "device_uid": "u9", "sequence": 0,
             "measured_at": 1.0, "energy_mwh": 100.0,
             "roaming": False, "network": "agg1"},
        ])
        return chain

    def test_pairwise_positions(self):
        engine = SettlementEngine(self.make_chain(), FlatTariff(1.0))
        matrix = engine.settle((0.0, 10.0))
        assert matrix.owed_by("agg1") == pytest.approx(5.0)
        assert matrix.owed_to("agg2") == pytest.approx(5.0)
        assert matrix.owed_by("agg2") == pytest.approx(1.0)

    def test_net_positions_balance(self):
        engine = SettlementEngine(self.make_chain(), FlatTariff(1.0))
        matrix = engine.settle((0.0, 10.0))
        total = matrix.net_position("agg1") + matrix.net_position("agg2")
        assert total == pytest.approx(0.0)
        assert matrix.net_position("agg2") == pytest.approx(4.0)

    def test_period_filter(self):
        engine = SettlementEngine(self.make_chain(), FlatTariff(1.0))
        matrix = engine.settle((0.0, 1.2))
        assert matrix.owed_by("agg1") == pytest.approx(2.0)

    def test_render(self):
        engine = SettlementEngine(self.make_chain(), FlatTariff(1.0))
        text = engine.settle((0.0, 10.0)).render()
        assert "agg1 owes agg2" in text
        assert engine.settle((50.0, 60.0)).render().startswith("(no roaming")

    def test_invalid_period(self):
        engine = SettlementEngine(self.make_chain(), FlatTariff(1.0))
        with pytest.raises(BillingError):
            engine.settle((5.0, 1.0))

    def test_inverted_and_empty_periods_distinguished(self):
        # Regression: an inverted period used to report "empty
        # settlement period", hiding a caller bug behind a benign
        # message; a genuinely empty (zero-length) one is its own error.
        engine = SettlementEngine(self.make_chain(), FlatTariff(1.0))
        with pytest.raises(BillingError, match="inverted settlement period"):
            engine.settle((5.0, 1.0))
        with pytest.raises(BillingError, match="empty settlement period"):
            engine.settle((5.0, 5.0))

    def test_boundary_record_never_settles_twice(self):
        # Regression for double billing: both period ends used to be
        # inclusive, so a record at exactly the cut settled in both
        # adjacent periods.  Periods are half-open [start, end) now.
        chain = Blockchain()
        chain.append("agg1", 1.0, [record("agg1", "agg2", 2.0, at=2.0, seq=0)])
        engine = SettlementEngine(chain, FlatTariff(1.0))
        first = engine.settle((0.0, 2.0)).owed_by("agg1")
        second = engine.settle((2.0, 4.0)).owed_by("agg1")
        assert first + second == pytest.approx(2.0)
        assert first == pytest.approx(0.0)
        assert second == pytest.approx(2.0)

    def test_home_equals_host_rejected(self):
        chain = Blockchain()
        chain.append("agg1", 1.0, [record("agg1", "agg1", 1.0)])
        engine = SettlementEngine(chain, FlatTariff(1.0))
        with pytest.raises(BillingError):
            engine.settle((0.0, 10.0))

    def test_settlement_from_real_roaming_run(self):
        scenario = build(paper_testbed_spec(seed=31, enter_devices=False))
        scenario.schedule_mobility(
            "device1",
            MobilityTrace.single_move(
                home="agg1", destination="agg2",
                enter_home_at=0.0, leave_home_at=12.0, idle_s=5.0,
            ),
        )
        scenario.run_until(35.0)
        engine = SettlementEngine(scenario.chain, FlatTariff(0.0001))
        matrix = engine.settle((0.0, 35.0))
        # agg1's device roamed at agg2: agg1 owes agg2, nothing back.
        assert matrix.owed_by("agg1") > 0
        assert matrix.owed_by("agg2") == 0.0
        assert matrix.net_position("agg2") > 0


class TestRemoteManagementOverMqtt:
    @pytest.fixture()
    def world(self):
        scenario = build(paper_testbed_spec(seed=41))
        scenario.run_until(12.0)
        return scenario

    def test_status_round_trip(self, world):
        agg1 = world.aggregator("agg1")
        request_id = agg1.manage_device(DeviceId("device1"), "status")
        world.run_until(13.0)
        response = agg1.mgmt_responses[request_id]
        assert response.ok
        assert response.payload["device"] == "device1"
        assert response.payload["phase"] == "reporting"

    def test_ping(self, world):
        agg1 = world.aggregator("agg1")
        request_id = agg1.manage_device(DeviceId("device2"), "ping")
        world.run_until(13.0)
        assert world.aggregator("agg1").mgmt_responses[request_id].payload["pong"]

    def test_set_interval_changes_reporting_rate(self, world):
        agg1 = world.aggregator("agg1")
        device = world.device("device1")
        request_id = agg1.manage_device(
            DeviceId("device1"), "set-interval", argument=0.5
        )
        world.run_until(13.0)
        assert agg1.mgmt_responses[request_id].ok
        samples_before = device.firmware.samples_taken
        world.run_until(23.0)
        # 10 s at 2 Hz instead of 10 Hz.
        assert device.firmware.samples_taken - samples_before == pytest.approx(20, abs=2)

    def test_unknown_command_reports_error(self, world):
        agg1 = world.aggregator("agg1")
        request_id = agg1.manage_device(DeviceId("device1"), "self-destruct")
        world.run_until(13.0)
        response = agg1.mgmt_responses[request_id]
        assert not response.ok
        assert "unknown" in response.payload["error"]

    def test_bad_interval_argument_reports_error(self, world):
        agg1 = world.aggregator("agg1")
        request_id = agg1.manage_device(DeviceId("device1"), "set-interval")
        world.run_until(13.0)
        assert not agg1.mgmt_responses[request_id].ok

    def test_non_member_rejected(self, world):
        agg1 = world.aggregator("agg1")
        with pytest.raises(ProtocolError):
            agg1.manage_device(DeviceId("device3"), "ping")  # member of agg2
