"""Tests for RSSI-based reporting-aggregator selection (footnote 2)."""

import pytest

from repro.errors import ProtocolError
from repro.protocol.device_fsm import DevicePhase
from repro.runtime import build
from repro.workloads.scenarios import paper_testbed_spec


class TestSelectNetwork:
    def test_nearest_ap_usually_wins(self):
        # With ~2 dB shadowing, 5 m vs 50 m is decided correctly.
        scenario = build(paper_testbed_spec(seed=0, enter_devices=False))
        device = scenario.device("device1")
        agg1 = scenario.aggregator("agg1")
        agg2 = scenario.aggregator("agg2")
        wins = 0
        for _ in range(50):
            best, _, _ = device.select_network([(agg1, 5.0), (agg2, 50.0)])
            if best is agg1:
                wins += 1
        assert wins == 50

    def test_close_race_can_go_either_way(self):
        scenario = build(paper_testbed_spec(seed=1, enter_devices=False))
        device = scenario.device("device1")
        agg1 = scenario.aggregator("agg1")
        agg2 = scenario.aggregator("agg2")
        choices = {
            device.select_network([(agg1, 10.0), (agg2, 10.5)])[0].aggregator_id.name
            for _ in range(60)
        }
        assert choices == {"agg1", "agg2"}  # shadowing flips close calls

    def test_returns_rssi_and_distance(self):
        scenario = build(paper_testbed_spec(seed=2, enter_devices=False))
        device = scenario.device("device1")
        agg1 = scenario.aggregator("agg1")
        best, distance, rssi = device.select_network([(agg1, 5.0)])
        assert best is agg1
        assert distance == 5.0
        assert rssi < 0

    def test_empty_candidates_rejected(self):
        scenario = build(paper_testbed_spec(seed=0, enter_devices=False))
        with pytest.raises(ProtocolError):
            scenario.device("device1").select_network([])


class TestEnterBestNetwork:
    def test_device_joins_selected_network(self):
        scenario = build(paper_testbed_spec(seed=3, enter_devices=False))
        device = scenario.device("device1")
        agg1 = scenario.aggregator("agg1")
        agg2 = scenario.aggregator("agg2")
        scenario.simulator.schedule(
            0.0, lambda: device.enter_best_network([(agg1, 4.0), (agg2, 60.0)])
        )
        scenario.run_until(10.0)
        assert device.fsm.phase is DevicePhase.REPORTING
        assert device.fsm.master.aggregator.name == "agg1"
        assert agg1.registry.is_master_member(device.device_id)
