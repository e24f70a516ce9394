"""Tests for pro-rata grid-loss allocation."""

import pytest

from repro.aggregator.aggregation import ReportAggregator
from repro.billing import allocate_losses
from repro.errors import BillingError
from repro.ids import DeviceId
from repro.runtime import build
from repro.workloads.scenarios import paper_testbed_spec


def make_aggregation(windows):
    """windows: list of (start, {device: mA}, feeder_mA)."""
    aggregation = ReportAggregator(window_s=1.0)
    for start, reports, feeder in windows:
        for device, value in reports.items():
            aggregation.add_report(DeviceId(device), start + 0.5, value)
        aggregation.add_feeder_sample(start + 0.5, feeder)
    return aggregation


class TestAllocateLosses:
    def test_pro_rata_split(self):
        aggregation = make_aggregation(
            [(0.0, {"a": 75.0, "b": 25.0}, 110.0)]  # 10 mA loss
        )
        allocation = allocate_losses(aggregation, (0.0, 10.0))
        assert allocation.per_device_ma_s["a"] == pytest.approx(7.5)
        assert allocation.per_device_ma_s["b"] == pytest.approx(2.5)
        assert allocation.share_of("a") == pytest.approx(0.75)

    def test_loss_conservation(self):
        aggregation = make_aggregation(
            [
                (0.0, {"a": 50.0, "b": 50.0}, 104.0),
                (1.0, {"a": 80.0, "b": 20.0}, 107.0),
            ]
        )
        allocation = allocate_losses(aggregation, (0.0, 10.0))
        assert allocation.total_loss_ma_s == pytest.approx(4.0 + 7.0)
        assert allocation.windows_used == 2

    def test_negative_gap_clamped(self):
        aggregation = make_aggregation([(0.0, {"a": 100.0}, 95.0)])
        allocation = allocate_losses(aggregation, (0.0, 10.0))
        assert allocation.total_loss_ma_s == 0.0
        assert allocation.share_of("a") == 0.0

    def test_period_filter(self):
        aggregation = make_aggregation(
            [(0.0, {"a": 50.0}, 55.0), (5.0, {"a": 50.0}, 60.0)]
        )
        allocation = allocate_losses(aggregation, (4.0, 10.0))
        assert allocation.total_loss_ma_s == pytest.approx(10.0)

    def test_energy_conversion(self):
        aggregation = make_aggregation([(0.0, {"a": 100.0}, 136.0)])
        allocation = allocate_losses(aggregation, (0.0, 10.0))
        # 36 mA·s at 5 V -> 36 * 5 / 3600 mWh = 0.05 mWh.
        assert allocation.loss_energy_mwh("a", 5.0) == pytest.approx(0.05)
        with pytest.raises(BillingError):
            allocation.loss_energy_mwh("a", 0.0)

    def test_invalid_period(self):
        aggregation = make_aggregation([(0.0, {"a": 1.0}, 1.0)])
        with pytest.raises(BillingError):
            allocate_losses(aggregation, (5.0, 1.0))
        # A period reaching windows the bounded history evicted.
        aggregation = ReportAggregator(window_s=1.0, keep_windows=3)
        for start in (0.0, 1.0, 2.0, 3.0, 4.0):  # windows 0 and 1 evicted
            aggregation.add_report(DeviceId("a"), start + 0.5, 50.0)
            aggregation.add_feeder_sample(start + 0.5, 55.0)
        assert aggregation.evicted_through == 1.0
        for start in (0.0, 1.0):
            with pytest.raises(BillingError, match="evicted"):
                allocate_losses(aggregation, (start, 10.0))
        for start in (1.5, 2.0):
            allocation = allocate_losses(aggregation, (start, 10.0))
            assert allocation.windows_used == 3
            assert allocation.total_loss_ma_s == pytest.approx(15.0)

    def test_allocation_from_real_run_matches_fig5_gap(self):
        scenario = build(paper_testbed_spec(seed=71))
        scenario.run_until(30.0)
        agg1 = scenario.aggregator("agg1")
        allocation = allocate_losses(agg1.aggregation, (10.0, 30.0))
        # Both devices carry some of the loss, and the heavier consumer
        # (device1's sinusoid has the larger mean) carries more.
        share1 = allocation.share_of("device1")
        share2 = allocation.share_of("device2")
        assert share1 + share2 == pytest.approx(1.0)
        assert share1 > share2
        assert allocation.total_loss_ma_s > 0
