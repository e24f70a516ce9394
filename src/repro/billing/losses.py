"""Grid-loss allocation: billing the Fig. 5 gap.

The feeder consistently measures more than the devices report (ohmic
losses + leakage — experiment E1).  Someone pays for that energy; the
standard utility practice is to allocate the measured loss to consumers
*pro rata* to their consumption.  This module computes, per window, the
loss as (feeder − device sum, floored at 0) and splits it across the
reporting devices in proportion to their share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aggregator.aggregation import ReportAggregator
from repro.errors import BillingError


@dataclass
class LossAllocation:
    """Loss energy apportioned per device over a period.

    Attributes:
        period: (start, end) of the allocation.
        per_device_ma_s: Allocated loss in mA·s per device (current x
            window length, summed; multiply by voltage/3600 for mWh).
        total_loss_ma_s: Sum across devices.
        windows_used: Complete windows contributing.
    """

    period: tuple[float, float]
    per_device_ma_s: dict[str, float] = field(default_factory=dict)
    windows_used: int = 0

    @property
    def total_loss_ma_s(self) -> float:
        """Total allocated loss."""
        return sum(self.per_device_ma_s.values())

    def share_of(self, device: str) -> float:
        """One device's fraction of the allocated loss."""
        total = self.total_loss_ma_s
        if total <= 0:
            return 0.0
        return self.per_device_ma_s.get(device, 0.0) / total

    def loss_energy_mwh(self, device: str, voltage_v: float) -> float:
        """Convert one device's allocation to energy at a voltage."""
        if voltage_v <= 0:
            raise BillingError(f"voltage must be positive, got {voltage_v}")
        # mA*s x V = mW*s; divide by 3600 for mWh.
        return self.per_device_ma_s.get(device, 0.0) * voltage_v / 3600.0


def allocate_losses(
    aggregation: ReportAggregator,
    period: tuple[float, float],
) -> LossAllocation:
    """Allocate per-window feeder losses pro rata to device reports.

    Only complete windows (feeder sample + at least one report) inside
    the period contribute.  Negative per-window gaps (sensor noise can
    put the device sum above the feeder briefly) clamp to zero rather
    than crediting devices with negative loss.

    Raises :class:`~repro.errors.BillingError` when a window the period
    covers was evicted from the aggregator's history (see
    :attr:`ReportAggregator.evicted_through`): a bill must not silently
    cover only part of its period.
    """
    start, end = period
    if end < start:
        raise BillingError(f"empty allocation period [{start}, {end}]")
    if start <= aggregation.evicted_through:
        raise BillingError(
            f"period starts at {start} s, but the window at "
            f"{aggregation.evicted_through} s and older were evicted"
        )
    allocation = LossAllocation(period=period)
    window_s = aggregation.window_s
    for window in aggregation.complete_windows():
        if not start <= window.start < end:
            continue
        reported_sum = window.reported_sum_ma
        if reported_sum <= 0 or window.feeder_ma is None:
            continue
        loss_ma = max(0.0, window.feeder_ma - reported_sum)
        if loss_ma == 0.0:
            allocation.windows_used += 1
            continue
        for device, reported in window.reported_ma.items():
            share = reported / reported_sum
            allocation.per_device_ma_s[device] = (
                allocation.per_device_ma_s.get(device, 0.0)
                + loss_ma * share * window_s
            )
        allocation.windows_used += 1
    return allocation
