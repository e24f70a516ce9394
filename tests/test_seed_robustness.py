"""Seed robustness: the reproduced shapes hold across seeds.

Each headline claim is re-checked over several master seeds — results
must not be an artifact of one lucky seed.  The Fig. 5 gap and the
handshake band are claims-table bounds, so their per-seed runs are part
of entries E1 and E2 (:mod:`repro.experiments.validate`); the named
tests below are views of those entries.
"""

import pytest

from repro.experiments.validate import ROBUSTNESS_SEEDS
from repro.hw.esp32 import McuState
from repro.runtime import build
from repro.workloads.scenarios import paper_testbed_spec

SEEDS = ROBUSTNESS_SEEDS


def holds_on_seed(result, seed):
    """The claims-table entry ran ``seed`` and held every bound."""
    assert f"seed {seed} " in result.detail, result.detail
    assert result.passed, f"{result.name}: {result.detail}"


class TestSeedRobustness:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fig5_gap_positive_and_single_digit(self, claim, seed):
        holds_on_seed(claim("E1"), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_handshake_in_band(self, claim, seed):
        holds_on_seed(claim("E2"), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_honest_run_quiet_and_valid(self, seed):
        scenario = build(paper_testbed_spec(seed=seed))
        scenario.run_until(20.0)
        scenario.chain.validate()
        for unit in scenario.aggregators.values():
            assert unit.verifier.stats.reports_rejected == 0
            stats = unit.verifier.stats
            assert stats.network_anomalies <= 0.05 * max(1, stats.network_checks)


class TestMcuPowerAccounting:
    def test_tx_time_tracks_reports(self):
        scenario = build(paper_testbed_spec(seed=5))
        scenario.run_until(20.0)
        device = scenario.device("device1")
        now = scenario.simulator.now
        tx_time = device.mcu.time_in_state(McuState.WIFI_TX, now)
        rx_time = device.mcu.time_in_state(McuState.WIFI_RX, now)
        idle_time = device.mcu.time_in_state(McuState.IDLE, now)
        # The radio states were actually visited: scanning at join (RX)
        # and a TX dwell per transmitted report.
        assert rx_time > 1.0  # the join scan
        assert idle_time > 10.0
        assert tx_time >= 0.0

    def test_sleep_while_in_transit(self):
        scenario = build(paper_testbed_spec(seed=6, enter_devices=False))
        device = scenario.device("device1")
        scenario.enter_at("device1", "agg1", 0.0)
        scenario.simulator.schedule(10.0, device.leave_network)
        scenario.run_until(20.0)
        sleep_time = device.mcu.time_in_state(
            McuState.LIGHT_SLEEP, scenario.simulator.now
        )
        assert sleep_time == pytest.approx(10.0, abs=0.1)
