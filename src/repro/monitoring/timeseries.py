"""Time-series recording.

Append-only (time, value) series with the query helpers experiments
need: windowed means, resampling to fixed buckets, and alignment of two
series for comparison (device sum vs aggregator measurement in Fig. 5).
Samples are kept as flat ``array('d')`` pairs, 16 B each.
"""

from __future__ import annotations

import bisect
from array import array

import numpy as np

from repro.errors import ConfigError


class TimeSeries:
    """Append-only series of (time, value) samples.

    Args:
        name: Series identity (used by dashboards and exports).
        unit: Unit label, e.g. ``"mA"``.
    """

    def __init__(self, name: str, unit: str = "") -> None:
        if not name:
            raise ConfigError("series name must be non-empty")
        self._name = name
        self._unit = unit
        self._times = array("d")
        self._values = array("d")

    @property
    def name(self) -> str:
        """Series identity."""
        return self._name

    @property
    def unit(self) -> str:
        """Unit label."""
        return self._unit

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> list[float]:
        """Sample times (copy)."""
        return self._times.tolist()

    @property
    def values(self) -> list[float]:
        """Sample values (copy)."""
        return self._values.tolist()

    def append(self, time: float, value: float) -> None:
        """Add one sample; times must be non-decreasing."""
        times = self._times
        if times and time < times[-1]:
            raise ConfigError(f"series {self._name}: time {time} < last {times[-1]}")
        times.append(time)
        self._values.append(value)

    def window(self, start: float, end: float) -> tuple[list[float], list[float]]:
        """Samples with ``start <= time < end``."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        return self._times[lo:hi].tolist(), self._values[lo:hi].tolist()

    def mean(self, start: float | None = None, end: float | None = None) -> float:
        """Mean value, optionally over a window.  0.0 when empty."""
        if start is None and end is None:
            values = self._values
        else:
            _, values = self.window(
                start if start is not None else float("-inf"),
                end if end is not None else float("inf"),
            )
        if not values:
            return 0.0
        return float(np.mean(values))

    def integrate(self, start: float, end: float) -> float:
        """Trapezoidal integral of value over time within [start, end]."""
        times, values = self.window(start, end)
        if len(times) < 2:
            return 0.0
        return float(np.trapezoid(values, times))

    def resample(self, bucket_s: float) -> "TimeSeries":
        """Mean-per-bucket resampling onto a fixed grid."""
        if bucket_s <= 0:
            raise ConfigError(f"bucket must be positive, got {bucket_s}")
        out = TimeSeries(f"{self._name}@{bucket_s}s", self._unit)
        if not self._times:
            return out
        start = self._times[0]
        end = self._times[-1]
        # Edges are computed as start + i * bucket_s with an integer i:
        # a running `edge += bucket_s` accumulates float error, so late
        # samples drift into the wrong bucket and the final bucket can
        # be dropped.  Adjacent buckets share the exact same edge value,
        # so every sample lands in exactly one bucket.
        i = 0
        lo = start
        while lo <= end:
            hi = start + (i + 1) * bucket_s
            _, values = self.window(lo, hi)
            if values:
                out.append(lo + bucket_s / 2.0, float(np.mean(values)))
            i += 1
            lo = start + i * bucket_s
        return out

    def last_time(self) -> float | None:
        """The most recent sample time, or None when empty."""
        return self._times[-1] if self._times else None

    def last_value(self) -> float | None:
        """The most recent sample value, or None when empty."""
        return self._values[-1] if self._values else None


class SeriesBank:
    """Named collection of series, creating them on first use."""

    def __init__(self) -> None:
        self._series: dict[str, TimeSeries] = {}

    def series(self, name: str, unit: str = "") -> TimeSeries:
        """Get or create the series called ``name``.

        The empty-string unit is a wildcard: it matches any existing
        unit, and a series created without a unit adopts the first
        concrete one it sees.  Two different concrete units for the
        same name would mislabel every export, so that is an error.
        """
        existing = self._series.get(name)
        if existing is None:
            existing = TimeSeries(name, unit)
            self._series[name] = existing
        elif unit:
            if not existing.unit:
                existing._unit = unit
            elif unit != existing.unit:
                raise ConfigError(
                    f"series {name!r} is recorded in {existing.unit!r}; "
                    f"refusing conflicting unit {unit!r}"
                )
        return existing

    def record(self, name: str, time: float, value: float, unit: str = "") -> None:
        """Append to the named series, creating it if needed."""
        self.series(name, unit).append(time, value)

    @property
    def names(self) -> list[str]:
        """All series names, in creation order."""
        return list(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __getitem__(self, name: str) -> TimeSeries:
        if name not in self._series:
            raise ConfigError(f"no series named {name!r}")
        return self._series[name]
