"""Tests for the composed AggregatorUnit driven by real devices."""

import pytest

from repro.aggregator import AggregatorConfig, MembershipKind
from repro.errors import ConfigError
from repro.ids import AggregatorId, DeviceId
from repro.protocol.device_fsm import DevicePhase
from repro.runtime import build
from repro.workloads.scenarios import paper_testbed_spec


@pytest.fixture(scope="module")
def steady_world():
    """A paper testbed run to steady state (shared; read-only tests)."""
    scenario = build(paper_testbed_spec(seed=11))
    scenario.run_until(20.0)
    return scenario


class TestRegistration:
    def test_all_devices_become_master_members(self, steady_world):
        agg1 = steady_world.aggregator("agg1")
        agg2 = steady_world.aggregator("agg2")
        assert agg1.registry.is_master_member(DeviceId("device1"))
        assert agg1.registry.is_master_member(DeviceId("device2"))
        assert agg2.registry.is_master_member(DeviceId("device3"))
        assert agg2.registry.is_master_member(DeviceId("device4"))

    def test_devices_reach_reporting_phase(self, steady_world):
        for name in ("device1", "device2", "device3", "device4"):
            assert steady_world.device(name).fsm.phase is DevicePhase.REPORTING

    def test_registration_handshakes_in_paper_band(self, steady_world):
        for name in ("device1", "device2", "device3", "device4"):
            handshake = steady_world.device(name).last_handshake
            assert handshake.duration_s is not None
            assert 5.0 < handshake.duration_s < 7.0

    def test_addresses_scoped_to_home(self, steady_world):
        device = steady_world.device("device1")
        assert device.fsm.master.aggregator == AggregatorId("agg1")


class TestReporting:
    def test_reports_acked(self, steady_world):
        device = steady_world.device("device1")
        assert device.acked_count > 100

    def test_buffered_handshake_data_reaches_ledger(self, steady_world):
        # Consumption starts at t=0 but registration completes near t~6;
        # the early windows must still be in the chain (backfilled).
        records = steady_world.chain.records_for_device(DeviceId("device1").uid)
        earliest = min(float(r["measured_at"]) for r in records)
        assert earliest < 1.0
        assert any(r["buffered"] for r in records)

    def test_ledger_covers_all_devices(self, steady_world):
        for name in ("device1", "device2", "device3", "device4"):
            assert steady_world.chain.records_for_device(DeviceId(name).uid)

    def test_chain_validates(self, steady_world):
        steady_world.chain.validate()

    def test_no_rejections_for_honest_devices(self, steady_world):
        for name in ("agg1", "agg2"):
            assert steady_world.aggregator(name).verifier.stats.reports_rejected == 0

    def test_few_network_anomalies_in_honest_run(self, steady_world):
        for name in ("agg1", "agg2"):
            stats = steady_world.aggregator(name).verifier.stats
            assert stats.network_checks > 50
            assert stats.network_anomalies <= 0.05 * stats.network_checks

    def test_feeder_series_recorded(self, steady_world):
        feeder = steady_world.aggregator("agg1").monitoring["feeder"]
        assert len(feeder) > 150
        assert feeder.mean() > 50.0

    def test_reporting_rate_matches_t_measure(self, steady_world):
        # ~10 reports per second per device after registration (paper).
        device = steady_world.device("device1")
        reporting_time = 20.0 - device.last_handshake.registered_at
        # Buffered backlog is also transmitted; just bound the total rate.
        assert device.reports_sent >= 10 * reporting_time * 0.9


class TestBlockCadence:
    def test_blocks_written_continuously(self, steady_world):
        agg1 = steady_world.aggregator("agg1")
        assert agg1.writer.blocks_written >= 10
        assert agg1.writer.records_written > 200

    def test_block_attribution(self, steady_world):
        creators = {block.header.aggregator for block in steady_world.chain}
        assert creators == {"agg1", "agg2"}


class TestAdministration:
    def test_remove_device(self):
        scenario = build(paper_testbed_spec(seed=3))
        scenario.run_until(10.0)
        agg1 = scenario.aggregator("agg1")
        agg1.remove_device(DeviceId("device1"))
        scenario.run_until(10.5)
        assert agg1.registry.get(DeviceId("device1")) is None
        assert not scenario.device("device1").fsm.has_home

    def test_transfer_membership(self):
        # Transfer-of-ownership happens while the device operates in the
        # new owner's network (it must hear the new master's downlink).
        from repro.workloads.mobility import MobilityTrace

        scenario = build(paper_testbed_spec(seed=4, enter_devices=False))
        scenario.schedule_mobility(
            "device1",
            MobilityTrace.single_move(
                home="agg1", destination="agg2", enter_home_at=0.0,
                leave_home_at=12.0, idle_s=5.0,
            ),
        )
        scenario.run_until(28.0)
        device = scenario.device("device1")
        assert device.fsm.is_roaming
        agg1 = scenario.aggregator("agg1")
        agg2 = scenario.aggregator("agg2")
        agg2.accept_transfer(DeviceId("device1"), AggregatorId("agg1"))
        scenario.run_until(29.0)
        assert device.fsm.master.aggregator == AggregatorId("agg2")
        assert not device.fsm.is_roaming
        assert agg1.registry.get(DeviceId("device1")) is None
        member = agg2.registry.get(DeviceId("device1"))
        assert member.kind is MembershipKind.MASTER

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AggregatorConfig(t_measure_s=0.0)
        with pytest.raises(ConfigError):
            AggregatorConfig(block_interval_s=-1.0)
        with pytest.raises(ConfigError):
            AggregatorConfig(temp_member_timeout_s=0.0)
        with pytest.raises(ConfigError):
            AggregatorConfig(downlink_latency_s=-0.1)
