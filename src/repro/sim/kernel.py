"""The simulation run loop.

:class:`Simulator` ties together the clock, the event queue, the random
streams and the span tracer.  Components schedule work with
:meth:`Simulator.schedule` (absolute) / :meth:`Simulator.call_later`
(relative) / :meth:`Simulator.every` (periodic), and the experiment
harness drives the loop with :meth:`Simulator.run_until` or
:meth:`Simulator.run`.
"""

from __future__ import annotations

import math
import sys
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable

from repro.errors import SchedulingError, SimulationError
from repro.obs.spans import SpanTracer
from repro.sim.clock import SimClock
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RngStreams


class PeriodicTask:
    """Handle for a repeating callback created by :meth:`Simulator.every`."""

    def __init__(
        self,
        simulator: "Simulator",
        interval: float,
        callback: Callable[[], Any],
        label: str,
        priority: int,
    ) -> None:
        self._sim = simulator
        self._interval = interval
        self._callback = callback
        self._label = label
        self._priority = priority
        self._event: Event | None = None
        self._stopped = False

    @property
    def interval(self) -> float:
        """Seconds between firings."""
        return self._interval

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has been called."""
        return self._stopped

    def start(self, first_at: float) -> None:
        """Arm the task; first firing at absolute time ``first_at``.

        A task may be armed only once — a second ``start`` while an
        event is pending would create two concurrent firing chains.
        """
        if self._stopped:
            raise SchedulingError("cannot start a stopped periodic task")
        if self._event is not None:
            raise SchedulingError(
                f"periodic task {self._label!r} is already armed"
            )
        self._event = self._sim.schedule(
            first_at, self._fire, priority=self._priority, label=self._label
        )

    def stop(self) -> None:
        """Cancel future firings.  Idempotent."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def reschedule(self, interval: float) -> None:
        """Change the firing interval.

        When an event is pending it is re-armed at ``now + interval``,
        so a shortened interval takes effect immediately instead of
        waiting out the previously scheduled (longer) gap.
        """
        if interval <= 0:
            raise SchedulingError(f"interval must be positive, got {interval}")
        self._interval = interval
        if self._stopped or self._event is None:
            return
        self._event.cancel()
        self._event = self._sim.call_later(
            interval, self._fire, priority=self._priority, label=self._label
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        # The pending event just popped; clear it so a reschedule from
        # inside the callback only updates the interval (the re-arm
        # below uses whatever interval the callback left behind).
        self._event = None
        self._callback()
        if not self._stopped and self._event is None:
            self._event = self._sim.call_later(
                self._interval, self._fire, priority=self._priority, label=self._label
            )


class Simulator:
    """Deterministic discrete-event simulator.

    Args:
        seed: Master seed for all random streams.
        spans: Whether to record protocol-conversation spans and
            :meth:`~repro.sim.process.Process.trace` points
            (:class:`~repro.obs.spans.SpanTracer`).  Off by default; a
            disabled tracer is method-swapped no-ops, so instrumented
            code stays out of the hot path's way and keeps nothing.
    """

    def __init__(self, seed: int = 0, spans: bool = False) -> None:
        self.clock = SimClock()
        self.queue = EventQueue()
        self.rng = RngStreams(seed)
        self.spans = SpanTracer(self.clock, enabled=spans)
        self._running = False
        self._events_executed = 0
        self._profiler = None

    @property
    def profiler(self):
        """The installed :class:`~repro.obs.profiler.KernelProfiler`, if any."""
        return self._profiler

    def set_profiler(self, profiler) -> None:
        """Install (or, with ``None``, remove) a kernel profiler.

        The run loop times each callback and passes it to the profiler's
        ``record``; with none installed the only cost is one ``is None``
        test per event.  A change takes effect at the next run call.
        """
        self._profiler = profiler

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def events_executed(self) -> int:
        """Total events the loop has executed so far."""
        return self._events_executed

    # -- scheduling ----------------------------------------------------

    def schedule(
        self,
        at: float,
        callback: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute time ``at``.

        Inlines the queue push: this runs once per scheduled event, and
        the single chained comparison rejects every invalid time at once
        (NaN fails both bounds, the past fails the left one, ``±inf``
        each fail one side).
        """
        if not (self.clock.now <= at < math.inf):
            self._reject_time(at)
        if not callable(callback):
            raise SchedulingError(f"callback must be callable, got {callback!r}")
        at = float(at)  # the run loop assigns event times to clock.now verbatim
        queue = self.queue
        sequence = next(queue._counter)
        event = Event(at, priority, sequence, callback, label)
        heappush(queue._heap, (at, priority, sequence, event))
        return event

    def _reject_time(self, at: float) -> None:
        if math.isnan(at) or math.isinf(at):
            raise SchedulingError(f"event time must be finite, got {at}")
        raise SchedulingError(
            f"cannot schedule at {at} before current time {self.clock.now}"
        )

    def call_later(
        self,
        delay: float,
        callback: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at ``now + delay``.

        Duplicates :meth:`schedule`'s inline push: this is the single
        most-called scheduling entry point, and the extra frame showed
        up in fleet profiles.  ``delay >= 0`` already guarantees the
        not-in-the-past invariant, so only the finiteness check remains
        (``now + inf`` and ``now + nan`` both fail ``at < inf``).
        """
        if delay < 0:
            raise SchedulingError(f"delay must be non-negative, got {delay}")
        at = self.clock.now + delay
        if not (at < math.inf):
            self._reject_time(at)
        if not callable(callback):
            raise SchedulingError(f"callback must be callable, got {callback!r}")
        queue = self.queue
        sequence = next(queue._counter)
        event = Event(at, priority, sequence, callback, label)
        heappush(queue._heap, (at, priority, sequence, event))
        return event

    def every(
        self,
        interval: float,
        callback: Callable[[], Any],
        first_at: float | None = None,
        priority: int = 0,
        label: str = "",
    ) -> PeriodicTask:
        """Create and start a periodic task firing every ``interval`` seconds.

        The first firing defaults to ``now + interval``.
        """
        if interval <= 0:
            raise SchedulingError(f"interval must be positive, got {interval}")
        task = PeriodicTask(self, interval, callback, label, priority)
        task.start(self.clock.now + interval if first_at is None else first_at)
        return task

    # -- run loop ------------------------------------------------------

    def _execute(self, end_time: float, max_events: int | None, guard: str) -> None:
        """The one event loop, shared by :meth:`run_until` and :meth:`run`.

        One heap scan per event: the loop inspects the head entry once,
        pops it, and dispatches — there is no separate peek-then-pop
        pass.  Same-instant events batch through consecutive iterations
        without touching the clock (``advance_to`` runs only when the
        head's time actually moves), and the head is re-read after every
        callback, so an event scheduled *during* the batch at the same
        instant but a lower priority still fires in exact
        ``(time, priority, sequence)`` order — the order is bit-identical
        to the pre-tuple-heap kernel.

        The ``max_events`` guard runs on every path (``None`` compares
        against ``sys.maxsize``).  With a profiler installed, each
        callback is timed and handed to its ``record``; with none, the
        per-event cost is one ``is None`` test on a local.
        """
        profiler = self._profiler
        record = None if profiler is None else profiler.record
        limit = sys.maxsize if max_events is None else max_events
        heap = self.queue._heap
        clock = self.clock
        now = clock.now
        executed = 0
        if profiler is not None:
            profiler.start_run()
        try:
            while heap:
                entry = heap[0]
                event = entry[3]
                if event.cancelled:
                    heappop(heap)
                    continue
                time = entry[0]
                if time > end_time:
                    break
                heappop(heap)
                if time != now:
                    # Direct write: heap pop order is nondecreasing in
                    # time, so the monotonicity check advance_to() does
                    # is already guaranteed here.
                    clock.now = now = time
                executed += 1
                if record is None:
                    event.callback()
                else:
                    start = perf_counter()
                    event.callback()
                    record(event.label, perf_counter() - start, now)
                if executed >= limit:
                    raise SimulationError(
                        f"{guard} exceeded max_events={max_events}; "
                        "suspected runaway event loop"
                    )
        finally:
            # Flushed once per run, not once per event; every reader
            # samples the counter between runs.
            self._events_executed += executed
            if profiler is not None:
                profiler.end_run()

    def run_until(self, end_time: float, max_events: int | None = None) -> None:
        """Run events with time <= ``end_time``; clock lands on ``end_time``.

        ``max_events`` guards against runaway zero-delay loops.
        """
        if end_time < self.clock.now:
            raise SimulationError(
                f"end_time {end_time} is before current time {self.clock.now}"
            )
        if self._running:
            raise SimulationError("run loop re-entered; simulator is not reentrant")
        self._running = True
        try:
            self._execute(end_time, max_events, "run_until")
            self.clock.advance_to(end_time)
        finally:
            self._running = False

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the queue drains (bounded by ``max_events``)."""
        if self._running:
            raise SimulationError("run loop re-entered; simulator is not reentrant")
        self._running = True
        try:
            self._execute(math.inf, max_events, "run")
        finally:
            self._running = False
