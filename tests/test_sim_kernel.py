"""Tests for the discrete-event kernel (clock, events, run loop)."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.obs.profiler import KernelProfiler
from repro.sim import EventQueue, SimClock, Simulator


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            SimClock(-1.0)

    def test_advance_forward(self):
        clock = SimClock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_advance_to_same_time_allowed(self):
        clock = SimClock()
        clock.advance_to(1.0)
        clock.advance_to(1.0)
        assert clock.now == 1.0

    def test_backwards_rejected(self):
        clock = SimClock()
        clock.advance_to(2.0)
        with pytest.raises(SimulationError):
            clock.advance_to(1.0)


class TestEventQueue:
    def test_pop_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        sim = Simulator()
        order = []
        events = [
            sim.schedule(1.0, lambda i=i: order.append(str(i)), label=str(i))
            for i in range(5)
        ]
        sim.run()
        assert order == [e.label for e in events]

    def test_priority_breaks_ties(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("low"), priority=5)
        sim.schedule(1.0, lambda: order.append("high"), priority=1)
        sim.run()
        assert order == ["high", "low"]

    def test_cancel_skips_event(self):
        sim = Simulator()
        order = []
        victim = sim.schedule(1.0, lambda: order.append("victim"))
        sim.schedule(2.0, lambda: order.append("survivor"))
        victim.cancel()
        sim.run_until(1.5)
        assert order == []
        assert sim.queue.peek_time() == 2.0
        sim.run()
        assert order == ["survivor"]
        assert sim.queue.peek_time() is None

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        victim = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        victim.cancel()
        assert sim.queue.peek_time() == 2.0

    def test_peek_empty_is_none(self):
        assert EventQueue().peek_time() is None

    def test_len_and_bool(self):
        sim = Simulator()
        assert not sim.queue
        sim.schedule(1.0, lambda: None)
        assert sim.queue and len(sim.queue) == 1

    def test_non_callable_rejected(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule(1.0, "not callable")

    def test_clear(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(True))
        sim.queue.clear()
        assert sim.queue.peek_time() is None
        sim.run()
        assert fired == [] and sim.events_executed == 0


class TestSimulator:
    def test_run_until_executes_due_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run_until(3.0)
        assert fired == [1.0]
        assert sim.now == 3.0

    def test_run_until_includes_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(True))
        sim.run_until(3.0)
        assert fired == [True]

    def test_run_drains_queue(self):
        sim = Simulator()
        fired = []
        for t in (0.5, 1.5, 2.5):
            sim.schedule(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == [0.5, 1.5, 2.5]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        with pytest.raises(SchedulingError):
            sim.schedule(1.5, lambda: None)

    def test_nan_and_inf_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SchedulingError):
            sim.schedule(float("inf"), lambda: None)

    def test_call_later_relative(self):
        sim = Simulator()
        times = []
        sim.schedule(1.0, lambda: sim.call_later(0.5, lambda: times.append(sim.now)))
        sim.run()
        assert times == [1.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Simulator().call_later(-0.1, lambda: None)

    def test_events_cascade(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.call_later(1.0, lambda: chain(n + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_run_until_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(4.0)

    @pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
    def test_max_events_guard(self, profiled):
        sim = Simulator()
        profiler = KernelProfiler() if profiled else None
        sim.set_profiler(profiler)

        def forever():
            sim.call_later(0.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="^run_until exceeded max_events=100;"):
            sim.run_until(1.0, max_events=100)
        assert sim.events_executed == 100
        if profiler is not None:
            assert profiler.snapshot()["events"] == sim.events_executed

    @pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
    def test_events_executed_counter(self, profiled):
        sim = Simulator()
        profiler = KernelProfiler() if profiled else None
        sim.set_profiler(profiler)
        for t in range(5):
            sim.schedule(float(t), lambda: None)
        sim.run()
        assert sim.events_executed == 5
        if profiler is not None:
            assert profiler.snapshot()["events"] == 5


class TestPeriodicTask:
    def test_fires_at_interval(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run_until(3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_first_at_override(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), first_at=0.25)
        sim.run_until(2.5)
        assert ticks == [0.25, 1.25, 2.25]

    def test_stop_halts_firing(self):
        sim = Simulator()
        ticks = []
        task = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.schedule(2.5, task.stop)
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0]
        assert task.stopped

    def test_stop_is_idempotent(self):
        sim = Simulator()
        task = sim.every(1.0, lambda: None)
        task.stop()
        task.stop()

    def test_reschedule_changes_interval(self):
        # Re-arms the pending fire: at 1.5 the queued 2.0 tick is
        # cancelled and the new cadence starts from the reschedule.
        sim = Simulator()
        ticks = []
        task = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.schedule(1.5, lambda: task.reschedule(2.0))
        sim.run_until(6.0)
        assert ticks == [1.0, 3.5, 5.5]

    def test_bad_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.every(0.0, lambda: None)
        task = sim.every(1.0, lambda: None)
        with pytest.raises(SchedulingError):
            task.reschedule(-1.0)

    def test_double_start_rejected(self):
        # Regression: a second start used to arm a second concurrent
        # firing chain, doubling the callback rate forever.
        sim = Simulator()
        ticks = []
        task = sim.every(1.0, lambda: ticks.append(sim.now))
        with pytest.raises(SchedulingError):
            task.start(0.5)
        sim.run_until(3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_start_after_stop_rejected(self):
        sim = Simulator()
        task = sim.every(1.0, lambda: None)
        task.stop()
        with pytest.raises(SchedulingError):
            task.start(2.0)

    def test_reschedule_from_inside_callback(self):
        # A reschedule during _fire must not double-arm: the interval
        # change applies to the re-arm the firing chain already does.
        sim = Simulator()
        ticks = []
        task = None

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                task.reschedule(2.0)

        task = sim.every(1.0, tick)
        sim.run_until(6.5)
        assert ticks == [1.0, 2.0, 4.0, 6.0]

    def test_reschedule_shortens_pending_gap(self):
        sim = Simulator()
        ticks = []
        task = sim.every(10.0, lambda: ticks.append(sim.now))
        sim.schedule(1.0, lambda: task.reschedule(0.5))
        sim.run_until(2.1)
        assert ticks == [1.5, 2.0]

    def test_reschedule_while_stopped_keeps_silent(self):
        sim = Simulator()
        ticks = []
        task = sim.every(1.0, lambda: ticks.append(sim.now))
        task.stop()
        task.reschedule(0.5)
        sim.run_until(3.0)
        assert ticks == []

    def test_reschedule_outside_firing_rearms_from_now(self):
        # Regression guard: a reschedule while an event is pending (not
        # during _fire) must cancel the pending event and re-arm at
        # now + interval — even when the new interval is *longer*, the
        # old firing time is discarded.
        sim = Simulator()
        ticks = []
        task = sim.every(2.0, lambda: ticks.append(sim.now))
        sim.schedule(1.0, lambda: task.reschedule(5.0))
        sim.run_until(10.0)
        # Pending firing at 2.0 was discarded; re-armed at 1.0 + 5.0.
        assert ticks == [6.0]


class TestSameInstantBatch:
    """Same-instant events run through one clock write in strict
    (time, priority, sequence) order — including events scheduled or
    cancelled *during* the batch."""

    def test_priority_then_fifo_within_instant(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("p5-first"), priority=5)
        sim.schedule(1.0, lambda: order.append("p0"), priority=0)
        sim.schedule(1.0, lambda: order.append("p5-second"), priority=5)
        sim.run_until(1.0)
        assert order == ["p0", "p5-first", "p5-second"]

    def test_event_scheduled_during_batch_joins_it_in_order(self):
        # A callback schedules another event at the *same* instant with
        # a lower priority number than an already-queued peer: it must
        # preempt that peer, exactly as if it had been queued up front.
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("injected"), priority=1)

        sim.schedule(1.0, first, priority=0)
        sim.schedule(1.0, lambda: order.append("late"), priority=5)
        sim.run_until(1.0)
        assert order == ["first", "injected", "late"]

    def test_cancel_during_batch_is_honoured(self):
        sim = Simulator()
        order = []
        victim = sim.schedule(1.0, lambda: order.append("victim"), priority=5)
        sim.schedule(1.0, lambda: victim.cancel(), priority=0)
        sim.schedule(1.0, lambda: order.append("survivor"), priority=9)
        sim.run_until(2.0)
        assert order == ["survivor"]

    def test_clock_is_stable_across_the_batch(self):
        sim = Simulator()
        seen = []
        for _ in range(5):
            sim.schedule(1.0, lambda: seen.append(sim.now))
        sim.run_until(3.0)
        assert seen == [1.0] * 5
        assert sim.now == 3.0

    def test_int_event_times_become_floats_on_the_clock(self):
        # The run loop assigns event times to the clock verbatim, so
        # schedule() must normalise int times (1 vs 1.0 would leak into
        # trace reprs and determinism digests).
        sim = Simulator()
        seen = []
        sim.schedule(1, lambda: seen.append(sim.now))
        sim.run_until(2.0)
        assert isinstance(seen[0], float)

    def test_events_executed_counts_whole_batch(self):
        sim = Simulator()
        for _ in range(7):
            sim.schedule(1.0, lambda: None)
        sim.run_until(1.0)
        assert sim.events_executed == 7
        sim.schedule(2.0, lambda: None)
        sim.run_until(2.0)
        assert sim.events_executed == 8


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def run():
            sim = Simulator(seed=42)
            values = []
            rng = sim.rng.stream("x")

            def tick():
                values.append(float(rng.random()))

            sim.every(0.1, tick)
            sim.run_until(1.0)
            return values

        assert run() == run()

    def test_new_stream_does_not_shift_existing(self):
        sim1 = Simulator(seed=7)
        a1 = sim1.rng.stream("a").random(5).tolist()

        sim2 = Simulator(seed=7)
        sim2.rng.stream("b")  # extra consumer
        a2 = sim2.rng.stream("a").random(5).tolist()
        assert a1 == a2
