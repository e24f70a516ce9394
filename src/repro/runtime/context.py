"""The shared simulation runtime context.

A :class:`SimContext` is the one object every layer of a wired world
hangs off: the discrete-event :class:`~repro.sim.kernel.Simulator`
(which owns the clock, the named random streams and the span tracer),
a shared :class:`~repro.monitoring.counters.CounterBank` that all
layers emit into, and optional fault/retry hooks.

Before the context existed, each component took a bare ``Simulator``
and grew its own private counters; a chaos run then had to stitch four
observability surfaces together by hand.  Constructing components from
one context instead means a single ``counters.snapshot()`` shows the
whole world — device retries next to mesh drops next to fault
activations — and, when spans are on, a single span stream orders them.

Every :class:`~repro.sim.process.Process` accepts either a bare
``Simulator`` (it wraps one in a private context — the legacy path) or
a ``SimContext`` (shared observability — what
:func:`repro.runtime.build.build` does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.monitoring.counters import CounterBank
from repro.obs.profiler import KernelProfiler
from repro.runtime.spec import ObsSpec
from repro.sim.kernel import PeriodicTask, Simulator

if TYPE_CHECKING:
    from repro.sim.clock import SimClock
    from repro.sim.events import Event
    from repro.sim.rng import RngStreams


@dataclass
class SimContext:
    """Bundle of kernel, shared counters and fault/retry hooks.

    Attributes:
        simulator: The discrete-event kernel (clock, rng, spans).
        counters: Counter bank shared by every layer built from this
            context; fault plans attached via :meth:`new_fault_plan`
            record into it too.
        fault_plan: The chaos schedule driving this world, when one is
            attached (:meth:`new_fault_plan` sets it).
        default_retry: Retry/backoff policy components may fall back to
            when their own config leaves it unspecified.
    """

    simulator: Simulator
    counters: CounterBank = field(default_factory=CounterBank)
    fault_plan: FaultPlan | None = None
    default_retry: RetryPolicy | None = None

    @classmethod
    def create(cls, seed: int = 0, obs: ObsSpec | None = None) -> "SimContext":
        """Fresh context on a fresh kernel seeded with ``seed``.

        ``obs`` (when enabled) turns on span recording, trace points
        included, and installs the kernel profiler; ``None`` or a
        disabled spec costs nothing.
        """
        enabled = obs is not None and obs.enabled
        simulator = Simulator(seed=seed, spans=enabled and obs.spans)
        if enabled and obs.profile:
            simulator.set_profiler(KernelProfiler())
        return cls(simulator)

    # -- kernel passthrough ----------------------------------------------

    @property
    def clock(self) -> "SimClock":
        """The kernel's clock."""
        return self.simulator.clock

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.simulator.now

    @property
    def rng(self) -> "RngStreams":
        """The kernel's named random streams."""
        return self.simulator.rng

    @property
    def master_seed(self) -> int:
        """The seed every random stream derives from."""
        return self.simulator.rng.master_seed

    def stream(self, name: str) -> np.random.Generator:
        """Named random stream from the kernel."""
        return self.simulator.rng.stream(name)

    def schedule(
        self, at: float, callback: Callable[[], Any], priority: int = 0, label: str = ""
    ) -> "Event":
        """Schedule ``callback`` at absolute time ``at``."""
        return self.simulator.schedule(at, callback, priority=priority, label=label)

    def call_later(
        self, delay: float, callback: Callable[[], Any], priority: int = 0, label: str = ""
    ) -> "Event":
        """Schedule ``callback`` at ``now + delay``."""
        return self.simulator.call_later(delay, callback, priority=priority, label=label)

    def every(
        self,
        interval: float,
        callback: Callable[[], Any],
        first_at: float | None = None,
        priority: int = 0,
        label: str = "",
    ) -> PeriodicTask:
        """Create and start a periodic task on the kernel."""
        return self.simulator.every(
            interval, callback, first_at=first_at, priority=priority, label=label
        )

    def run_until(self, end_time: float) -> None:
        """Advance the world to ``end_time``."""
        self.simulator.run_until(end_time)

    # -- fault hooks -----------------------------------------------------

    def new_fault_plan(self) -> FaultPlan:
        """Attach (and return) a fault plan recording into this context.

        The plan shares this context's counter bank, so fault
        activations land in the same snapshot as the retry/drop
        counters of the layers they perturb.  Subsequent calls return
        the already-attached plan.
        """
        if self.fault_plan is None:
            self.fault_plan = FaultPlan(self.simulator, counters=self.counters)
        return self.fault_plan


def coerce_context(runtime: "Simulator | SimContext") -> SimContext:
    """Normalize a ``Simulator | SimContext`` argument to a context.

    A bare simulator gets a private context (own counter bank) — the
    legacy construction path used by unit tests and ad-hoc rigs.
    """
    if isinstance(runtime, SimContext):
        return runtime
    if isinstance(runtime, Simulator):
        return SimContext(runtime)
    raise TypeError(
        f"expected Simulator or SimContext, got {type(runtime).__name__}"
    )
