"""Simulated wall clock.

There is exactly one :class:`SimClock` per :class:`~repro.sim.kernel.Simulator`.
Only the kernel advances it; every other component holds a read-only
reference.  Time is a float number of seconds since simulation start.
"""

from __future__ import annotations

from repro.errors import SimulationError


class SimClock:
    """Monotonic simulated clock owned by the kernel.

    ``now`` is a plain attribute (it is read on every event, every
    span and every schedule call — a property's descriptor
    dispatch is measurable at fleet scale).  Only the kernel may write
    it, and only through :meth:`advance_to`.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SimulationError(f"clock cannot start before zero, got {start}")
        self.now = float(start)

    def advance_to(self, timestamp: float) -> None:
        """Move the clock forward to ``timestamp``.

        The kernel calls this when it pops the next event.  Moving
        backwards is a kernel bug and raises immediately rather than
        silently corrupting causality.
        """
        if timestamp < self.now:
            raise SimulationError(
                f"clock moved backwards: {self.now} -> {timestamp}"
            )
        self.now = float(timestamp)

    def __repr__(self) -> str:
        return f"SimClock(now={self.now:.6f})"
