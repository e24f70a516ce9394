"""Failure injection: aggregator crash/restart and protocol recovery."""

import copy

import pytest

from repro.anomaly import ScalingAttack
from repro.ids import DeviceId
from repro.protocol.device_fsm import DevicePhase
from repro.runtime import build
from repro.workloads.scenarios import paper_testbed_spec


@pytest.fixture()
def restarted_world():
    scenario = build(paper_testbed_spec(seed=91))
    scenario.run_until(12.0)
    agg1 = scenario.aggregator("agg1")
    agg1.simulate_crash_restart()
    return scenario, agg1


class TestAggregatorRestart:
    def test_volatile_state_cleared_ledger_kept(self, restarted_world):
        scenario, agg1 = restarted_world
        assert agg1.registry.member_count == 0
        assert scenario.chain.height > 0
        scenario.chain.validate()

    def test_devices_recover_via_reregistration(self, restarted_world):
        scenario, agg1 = restarted_world
        scenario.run_until(16.0)
        # Both home devices are members again, with fresh addresses.
        assert agg1.registry.is_master_member(DeviceId("device1"))
        assert agg1.registry.is_master_member(DeviceId("device2"))
        for name in ("device1", "device2"):
            assert scenario.device(name).fsm.phase is DevicePhase.REPORTING

    def test_recovery_is_fast(self, restarted_world):
        # One report interval to get Nack'd plus one round-trip: the
        # fleet is re-registered well within a second.
        scenario, agg1 = restarted_world
        scenario.run_until(13.0)
        assert agg1.registry.member_count == 2

    def test_no_consumption_lost_across_restart(self, restarted_world):
        scenario, agg1 = restarted_world
        scenario.run_until(25.0)
        device = scenario.device("device1")
        records = scenario.chain.records_for_device(device.device_id.uid)
        around_restart = [
            r for r in records if 11.5 <= float(r["measured_at"]) <= 13.5
        ]
        # 10 Hz over the 2 s window spanning the restart.
        assert len(around_restart) >= 18

    def test_other_network_unaffected(self, restarted_world):
        scenario, _ = restarted_world
        agg2 = scenario.aggregator("agg2")
        assert agg2.registry.member_count == 2
        scenario.run_until(15.0)
        assert agg2.nacks_sent == 0

    def test_unknown_device_still_rejected_after_restart(self, restarted_world):
        # The ledger-vouching path must not become an open door: a
        # device with no committed history is refused.
        scenario, agg1 = restarted_world
        assert not agg1._ledger_vouches_for(DeviceId("stranger"))
        # device3's home is agg2: agg1's ledger vouching is per-network.
        assert not agg1._ledger_vouches_for(DeviceId("device3"))
        assert agg1._ledger_vouches_for(DeviceId("device1"))

    def test_double_restart_converges(self):
        scenario = build(paper_testbed_spec(seed=92))
        scenario.run_until(12.0)
        agg1 = scenario.aggregator("agg1")
        agg1.simulate_crash_restart()
        scenario.run_until(14.0)
        agg1.simulate_crash_restart()
        scenario.run_until(18.0)
        assert agg1.registry.member_count == 2
        scenario.chain.validate()

    def test_verifier_counts_survive_a_restart(self):
        # The detectors start over; their counts do not, or the snapshot
        # and the served alert stream (which only reads growth) would
        # lose every anomaly flagged before the crash.
        scenario = build(paper_testbed_spec(seed=3))
        scenario.devices["device1"].tamper_attack = ScalingAttack(0.4)
        scenario.run_until(20.0)
        agg1 = scenario.aggregator("agg1")
        before = copy.deepcopy(agg1.verifier.stats)
        assert before.network_anomalies > 0
        agg1.simulate_crash_restart()
        assert agg1.verifier.stats == before
        scenario.run_until(25.0)
        after = agg1.verifier.stats.network_anomalies
        assert after > before.network_anomalies
        assert scenario.summary()["aggregators"]["agg1"]["network_anomalies"] == after
