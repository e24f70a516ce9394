"""Timestamped events and the heap they wait in.

Events order by ``(time, priority, sequence)``.  ``sequence`` is a global
insertion counter, so events scheduled for the same instant at the same
priority fire in the order they were scheduled — this is what makes runs
reproducible.

The heap stores plain ``(time, priority, sequence, event)`` tuples
rather than rich objects: sequence numbers are unique, so every sift
resolves on the first three scalar fields with C tuple comparison and
the :class:`Event` handle itself is never compared.  The handle is a
``__slots__`` class, keeping per-event memory to the six fields the
kernel actually needs.

:class:`EventQueue` holds the heap; the kernel pushes
(:meth:`Simulator.schedule`, :meth:`Simulator.call_later`) and pops
(its run loop) inline.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable


class Event:
    """A scheduled callback handle.

    Attributes:
        time: Simulated time at which the callback fires.
        priority: Lower fires first among same-time events.
        sequence: Insertion order tiebreaker (assigned by the queue).
        callback: Zero-argument callable invoked by the kernel.
        label: Human-readable tag for traces and debugging.
        cancelled: Cancelled events are skipped when popped.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "label", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[[], Any],
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = cancelled

    def cancel(self) -> None:
        """Mark the event so the kernel skips it.

        Cancellation is O(1); the entry stays in the heap until popped.
        """
        self.cancelled = True

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time}, priority={self.priority}, "
            f"sequence={self.sequence}, label={self.label!r}, "
            f"cancelled={self.cancelled})"
        )


class EventQueue:
    """The heap of pending events, with deterministic tie-breaking.

    The kernel pushes onto :attr:`_heap` and pops from it inline (same
    package, hot path); every entry is ``(time, priority, sequence,
    event)`` and the first three fields reproduce exactly the ordering
    the original rich-comparison implementation had.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the queue is empty.

        Skips over cancelled events lazily so the answer is always the
        time of an event that will actually run.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
