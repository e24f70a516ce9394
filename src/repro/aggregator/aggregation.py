"""Windowed aggregation of device reports.

The aggregator "performs data aggregation of all devices within the
network" and keeps a system-level complementary measurement alongside.
:class:`ReportAggregator` maintains, per reporting window, the sum of
device-reported currents and the matching feeder measurement — the two
series Fig. 5 compares.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import AnomalyError
from repro.ids import DeviceId

# Default history: the attribution and loss-allocation experiments read
# every window of runs up to 40 s long.
HISTORY_S = 40.0


@dataclass
class Window:
    """One aggregation window's worth of evidence.

    Attributes:
        start: Window start time.
        reported_ma: Per-device reported current in this window.
        feeder_ma: Feeder-meter measurement for the window (set once the
            aggregator samples its own sensor).
    """

    start: float
    reported_ma: dict[str, float] = field(default_factory=dict)
    feeder_ma: float | None = None

    @property
    def reported_sum_ma(self) -> float:
        """Sum of device reports in the window."""
        return sum(self.reported_ma.values())

    @property
    def complete(self) -> bool:
        """True once the feeder measurement is in."""
        return self.feeder_ma is not None


class ReportAggregator:
    """Buckets reports and feeder samples into aligned windows.

    Args:
        window_s: Bucket width (normally ``T_measure``).
        keep_windows: Bounded history length; the oldest windows are
            evicted first (default: :data:`HISTORY_S` worth).
    """

    def __init__(self, window_s: float = 0.1, keep_windows: int | None = None) -> None:
        if window_s <= 0:
            raise AnomalyError(f"window must be positive, got {window_s}")
        if keep_windows is None:
            keep_windows = int(HISTORY_S / window_s) + 1
        if keep_windows < 1:
            raise AnomalyError(f"history must be >= 1 windows, got {keep_windows}")
        self._window_s = window_s
        self._keep = keep_windows
        self._windows: dict[int, Window] = {}
        self._held: list[int] = []  # min-heap of the indices in _windows
        self._evicted_through = float("-inf")

    @property
    def window_s(self) -> float:
        """Bucket width in seconds."""
        return self._window_s

    @property
    def evicted_through(self) -> float:
        """Start of the newest evicted window (``-inf`` until one is).

        Every held window starts after it, since the oldest is always
        evicted first.
        """
        return self._evicted_through

    def _index(self, at_time: float) -> int:
        return int(at_time // self._window_s)

    def _bucket(self, at_time: float) -> Window:
        index = self._index(at_time)
        window = self._windows.get(index)
        if window is None:
            window = Window(start=index * self._window_s)
            self._windows[index] = window
            heapq.heappush(self._held, index)
            if len(self._windows) > self._keep:
                oldest = heapq.heappop(self._held)
                del self._windows[oldest]
                self._evicted_through = max(
                    self._evicted_through, oldest * self._window_s
                )
        return window

    def add_report(self, device_id: DeviceId, at_time: float, current_ma: float) -> None:
        """Record one device report into its window.

        A second report from the same device in one window overwrites —
        QoS-1 duplicates must not double-count in the residual check.
        """
        self._bucket(at_time).reported_ma[device_id.name] = current_ma

    def add_feeder_sample(self, at_time: float, current_ma: float) -> None:
        """Record the feeder measurement for a window."""
        self._bucket(at_time).feeder_ma = current_ma

    def window_at(self, at_time: float) -> Window | None:
        """The window covering ``at_time``, or None."""
        return self._windows.get(self._index(at_time))

    def complete_windows(self) -> list[Window]:
        """All windows holding both sides, oldest first."""
        return [
            self._windows[i]
            for i in sorted(self._windows)
            if self._windows[i].complete and self._windows[i].reported_ma
        ]

    def latest_complete(self) -> Window | None:
        """Newest window with both device reports and a feeder sample."""
        for index in sorted(self._windows, reverse=True):
            window = self._windows[index]
            if window.complete and window.reported_ma:
                return window
        return None
