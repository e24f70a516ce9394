"""Tests for RNG streams, trace points and the Process base class."""

import tracemalloc

import pytest

from repro.errors import ConfigError
from repro.sim import Process, RngStreams, Simulator


class TestRngStreams:
    def test_same_name_same_stream_object(self):
        streams = RngStreams(0)
        assert streams.stream("a") is streams.stream("a")

    def test_different_names_independent(self):
        streams = RngStreams(0)
        a = streams.stream("a").random(4).tolist()
        b = streams.stream("b").random(4).tolist()
        assert a != b

    def test_reproducible_across_instances(self):
        a = RngStreams(123).stream("sensor").random(8).tolist()
        b = RngStreams(123).stream("sensor").random(8).tolist()
        assert a == b

    def test_master_seed_changes_streams(self):
        a = RngStreams(1).stream("x").random(4).tolist()
        b = RngStreams(2).stream("x").random(4).tolist()
        assert a != b

    def test_fork_is_deterministic_and_distinct(self):
        base = RngStreams(9)
        fork_a = base.fork("run-1").stream("x").random(4).tolist()
        fork_a2 = RngStreams(9).fork("run-1").stream("x").random(4).tolist()
        fork_b = base.fork("run-2").stream("x").random(4).tolist()
        assert fork_a == fork_a2
        assert fork_a != fork_b

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            RngStreams(0).stream("")

    def test_bad_seed_rejected(self):
        with pytest.raises(ConfigError):
            RngStreams(-1)


class TestTraceRecorder:
    """The simulator's span stream, recording ``Process.trace`` points."""

    def test_records_in_order(self):
        sim = Simulator(spans=True)
        proc = Process(sim, "x")
        sim.schedule(1.0, lambda: proc.trace("a"))
        sim.schedule(2.0, lambda: proc.trace("b"))
        sim.run()
        assert [s.name for s in sim.spans] == ["a", "b"]
        assert [s.start for s in sim.spans] == [1.0, 2.0]

    def test_by_category_and_actor(self):
        sim = Simulator(spans=True)
        x, y = Process(sim, "x"), Process(sim, "y")
        sim.schedule(1.0, lambda: x.trace("a", value=1))
        sim.schedule(2.0, lambda: y.trace("a"))
        sim.schedule(3.0, lambda: x.trace("b"))
        sim.run()
        assert len(sim.spans.by_name("a")) == 2
        assert len(sim.spans.by_actor("x")) == 2
        assert sim.spans.by_name("a")[0].tags == {"value": 1}


class TestProcess:
    def test_process_rng_is_namespaced(self):
        sim = Simulator(seed=0)
        p1 = Process(sim, "p1")
        p2 = Process(sim, "p2")
        assert p1.rng().random(3).tolist() != p2.rng().random(3).tolist()

    def test_process_trace_carries_actor_and_time(self):
        # A trace point is a zero-duration ok span in the kernel's span
        # stream, begun after the conversation already open around it.
        sim = Simulator(spans=True)
        proc = Process(sim, "me")

        def act():
            sim.spans.begin("conversation", "other")
            proc.trace("cat", key="v")

        sim.schedule(1.5, act)
        sim.run()
        opened, point = sim.spans
        assert opened.name == "conversation" and opened.end is None
        assert (point.name, point.actor, point.status) == ("cat", "me", "ok")
        assert point.start == point.end == 1.5
        assert point.tags == {"key": "v"}
        assert point.span_id > opened.span_id
        assert sim.spans.by_name("cat") == sim.spans.by_actor("me") == [point]

    def test_counted_reads_the_bank_without_creating_keys(self):
        proc = Process(Simulator(), "p")
        assert proc.counted("sent") == 0
        assert proc.counters.snapshot() == {}
        proc.count("sent", 2)
        assert proc.counted("sent") == proc.counters.get("p.sent") == 2

    def test_default_simulator_retains_nothing_per_trace(self):
        sim = Simulator()
        proc = Process(sim, "p")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(10_000):
                proc.trace("x", n=i)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024
        assert len(sim.spans) == 0

    def test_now_follows_clock(self):
        sim = Simulator()
        proc = Process(sim, "p")
        sim.run_until(2.0)
        assert proc.now == 2.0

    def test_repr_contains_name(self):
        assert "p" in repr(Process(Simulator(), "p"))
