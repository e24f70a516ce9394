"""Named monotonic counters (the fault/retry observability surface).

Where :class:`~repro.monitoring.timeseries.TimeSeries` records values
over time, a :class:`CounterBank` holds monotonically increasing named
counts — fault injections, retries, timeouts, drops.  Injectors and
recovery paths increment counters; experiments and dashboards read one
snapshot at the end.
"""

from __future__ import annotations

from repro.errors import ConfigError


class CounterBank:
    """Named monotonic counters with hierarchical dotted names."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    @property
    def names(self) -> list[str]:
        """Sorted counter names."""
        return sorted(self._counts)

    def increment(self, name: str, by: int = 1) -> int:
        """Add ``by`` to ``name`` (creating it at 0); returns the new value."""
        if not name:
            raise ConfigError("counter name must be non-empty")
        if by < 0:
            raise ConfigError(f"counters are monotonic; cannot add {by}")
        value = self._counts.get(name, 0) + by
        self._counts[name] = value
        return value

    def get(self, name: str, default: int = 0) -> int:
        """Current value of ``name`` (``default`` when never incremented)."""
        return self._counts.get(name, default)

    def snapshot(self, prefix: str = "") -> dict[str, int]:
        """Copy of all counters, optionally filtered by name prefix."""
        return {
            name: value
            for name, value in sorted(self._counts.items())
            if name.startswith(prefix)
        }

    def total(self, prefix: str = "") -> int:
        """Sum of every counter matching ``prefix``."""
        counts = self._counts
        if not prefix:
            return sum(counts.values())
        return sum(
            value for name, value in counts.items() if name.startswith(prefix)
        )
