"""Base class for simulated actors.

A :class:`Process` is anything with a name that lives on a simulator:
devices, aggregators, brokers, channels.  It standardises access to the
clock, per-actor random streams, trace points and the kernel's counter
bank so subclasses stay small.  Every actor on one
:class:`~repro.sim.kernel.Simulator` counts into that kernel's bank and
traces into its span stream, whether :func:`repro.runtime.build.build`
wired it or a test built it by hand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.sim.kernel import Simulator

if TYPE_CHECKING:
    from repro.monitoring.counters import CounterBank


class Process:
    """A named actor bound to a :class:`Simulator`."""

    def __init__(self, simulator: Simulator, name: str) -> None:
        self._sim = simulator
        self._name = name
        # Hot-path caches: the per-event report path must do zero string
        # formatting, so stream handles and fully-qualified counter
        # names are resolved once per (actor, purpose) pair.
        self._rng_cache: dict[str, np.random.Generator] = {}
        self._counter_names: dict[str, str] = {}
        self._increment = simulator.counters.increment
        self._counts = simulator.counters._counts
        self._clock = self._sim.clock
        self._spans = self._sim.spans
        self._trace_event = self._spans.event

    @property
    def sim(self) -> Simulator:
        """The simulator this process runs on."""
        return self._sim

    @property
    def counters(self) -> "CounterBank":
        """The kernel's counter bank, which this actor emits into."""
        return self._sim.counters

    @property
    def name(self) -> str:
        """Human-readable actor name (used in traces and counters)."""
        return self._name

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._clock.now

    def rng(self, purpose: str = "default") -> np.random.Generator:
        """Random stream private to this actor and ``purpose``.

        The generator is the same object :meth:`RngStreams.stream` would
        hand out for ``"{name}:{purpose}"``; it is cached on the actor so
        repeated draws skip the key formatting and registry lookup.
        """
        generator = self._rng_cache.get(purpose)
        if generator is None:
            generator = self._sim.rng.stream(f"{self._name}:{purpose}")
            self._rng_cache[purpose] = generator
        return generator

    def count(self, metric: str, by: int = 1) -> int:
        """Increment this actor's ``metric`` in the kernel's counter bank.

        Counters are namespaced by actor name (``device1.report_timeouts``,
        ``backhaul.messages_dropped``) so one
        :meth:`~repro.monitoring.counters.CounterBank.snapshot` shows the
        whole world.  The qualified name is formatted once per metric and
        cached.
        """
        name = self._counter_names.get(metric)
        if name is None:
            name = f"{self._name}.{metric}"
            self._counter_names[metric] = name
        if by < 0:
            # Monotonicity violation: let the bank raise its error.
            return self._increment(name, by)
        counts = self._counts
        value = counts.get(name, 0) + by
        counts[name] = value
        return value

    def counted(self, metric: str) -> int:
        """This actor's current ``metric`` count, 0 if never counted.

        The read side of :meth:`count`: the bank is the only place a
        count lives, and reading never creates a key, so a snapshot
        holds only counters that were incremented.
        """
        name = self._counter_names.get(metric)
        if name is None:
            name = f"{self._name}.{metric}"
        return self._counts.get(name, 0)

    def trace(self, category: str, **detail: Any) -> None:
        """Record a trace point attributed to this actor.

        The point is a zero-duration ``ok`` span named ``category`` with
        ``detail`` as its tags, so it is kept exactly when spans are
        (:meth:`~repro.obs.spans.SpanTracer.event`); with spans off it
        is a no-op call.
        """
        self._trace_event(category, self._name, **detail)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self._name!r})"
