"""Discrete-event simulation kernel.

The kernel is the substrate every other subsystem runs on.  It provides:

* :class:`~repro.sim.clock.SimClock` — the single source of simulated time,
* :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.EventQueue`
  — timestamped callbacks and the deterministic heap they wait in,
* :class:`~repro.sim.kernel.Simulator` — scheduling, periodic tasks and
  the one run loop that pops and dispatches events (timing each
  callback when a profiler is installed),
* :class:`~repro.sim.process.Process` — a base class for simulated actors
  (devices, aggregators, brokers),
* :class:`~repro.sim.rng.RngStreams` — named, independently seeded random
  streams so adding randomness to one component never perturbs another.

Trace points (:meth:`Process.trace`) are point events on the kernel's
:class:`~repro.obs.spans.SpanTracer`, kept only when spans are on.

Determinism contract: two runs with the same scenario and the same seed
produce byte-identical span streams and ledgers.  Ties in the event
queue are broken by insertion order.
"""

from repro.sim.clock import SimClock
from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.rng import RngStreams

__all__ = [
    "SimClock",
    "Event",
    "EventQueue",
    "Simulator",
    "Process",
    "RngStreams",
]
