"""Device-local store-and-forward buffer (the data layer's storage).

"In the absence of network connectivity with the aggregator, raw
consumption data is stored in the local storage until the connection is
established" (§II-B), and Fig. 6 shows exactly this buffering during the
handshake window.

The store is bounded (flash on an ESP32 is finite).  When full, the
*oldest* record is dropped and counted — billing prefers recent data and
the loss is observable, never silent.
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro.errors import StorageError
from repro.protocol.messages import ConsumptionReport


class LocalStore:
    """Bounded FIFO of unsent consumption reports.

    Args:
        capacity: Maximum records held (ESP32 NVS-scale, default 4096).
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise StorageError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._records: deque[ConsumptionReport] = deque()
        self._stored_total = 0
        self._dropped_total = 0

    @property
    def capacity(self) -> int:
        """Maximum records held."""
        return self._capacity

    @property
    def pending(self) -> int:
        """Records currently awaiting transmission."""
        return len(self._records)

    @property
    def stored_total(self) -> int:
        """Records ever stored (including later-flushed ones)."""
        return self._stored_total

    @property
    def dropped_total(self) -> int:
        """Records lost to capacity eviction."""
        return self._dropped_total

    @property
    def is_empty(self) -> bool:
        """True when nothing is buffered."""
        return not self._records

    def store(self, report: ConsumptionReport) -> None:
        """Buffer one report, evicting the oldest when full."""
        if len(self._records) >= self._capacity:
            self._records.popleft()
            self._dropped_total += 1
        self._records.append(report)
        self._stored_total += 1

    def drain(self, limit: int | None = None) -> list[ConsumptionReport]:
        """Remove and return up to ``limit`` oldest records (all if None).

        Records are re-marked ``buffered=True`` so the aggregator and the
        ledger can distinguish backfill from live data (the blue line in
        Fig. 6).
        """
        if limit is not None and limit <= 0:
            raise StorageError(f"drain limit must be positive, got {limit}")
        count = len(self._records) if limit is None else min(limit, len(self._records))
        drained: list[ConsumptionReport] = []
        for _ in range(count):
            report = self._records.popleft()
            if not report.buffered:
                report = dataclasses.replace(report, buffered=True)
            drained.append(report)
        return drained

    def peek_oldest(self) -> ConsumptionReport | None:
        """The oldest buffered record without removing it."""
        return self._records[0] if self._records else None
