"""The device's Ack timer: one per device, real timeouts unchanged.

Every transmitted report waits in the device's in-flight window for its
Ack, due ``RetryPolicy.timeout_s`` after it was sent.  One kernel timer
per device runs at the oldest deadline (TCP's one retransmission timer
per connection, RFC 6298 §5), so a report acked in time costs the kernel
no event of its own.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.experiments.faults import settle_and_measure
from repro.faults import FaultPlan, LinkFaultSpec
from repro.faults.retry import RetryPolicy
from repro.runtime import ObsSpec, TransportSpec, build
from repro.workloads.scenarios import crash_spec, paper_testbed_spec, scaled_spec

DIRECT = TransportSpec(kind="direct")


def observed(spec):
    return build(dataclasses.replace(spec, obs=ObsSpec(enabled=True, profile=False)))


def crash_world():
    scenario = observed(crash_spec(seed=1, crash_at=10.0, outage_s=6.0))
    scenario.run_until(30.0)
    return scenario


def broker_loss_world():
    # The world of test_broker_injector_survivable_with_retry: 10 % of
    # the messages through each broker are dropped.
    scenario = observed(paper_testbed_spec(seed=5))
    plan = FaultPlan(scenario.simulator)
    for name, unit in scenario.aggregators.items():
        injector = plan.make_injector(f"broker:{name}")
        unit.endpoint.set_fault_injector(injector)
        plan.link_noise(f"{name}-loss", injector, LinkFaultSpec(drop_p=0.1), start_at=0.0)
    settle_and_measure(scenario, plan, run_s=15.0, seed=5)
    return scenario


class TestRealTimeouts:
    @pytest.mark.parametrize(
        "world, timeouts, digest",
        [
            pytest.param(
                crash_world, 241,
                "a11f9f808d62c3295eb059981793ed80811eb92536be91d061cecf6cfd2daf65",
                id="crash",
            ),
            pytest.param(
                broker_loss_world, 154,
                "23208825e6cff82bca5f95e0bb5b1d0727afb7f9e948855469572f391f819b91",
                id="broker_loss",
            ),
        ],
    )
    def test_timeout_stream_is_pinned(self, world, timeouts, digest):
        # Pins when each real expiry fires, for which report and attempt,
        # and each device's retry counters.  Firings of different devices
        # at one instant are unordered (each draws from its own retry
        # stream), so the stream is sorted by (time, device); a stable
        # sort keeps each device's own order.
        scenario = world()
        points = sorted(
            (
                (span.start, span.actor, span.tags["sequence"],
                 span.tags.get("attempt", span.tags.get("attempts")), span.name)
                for span in scenario.simulator.spans
                if span.name in ("device.report_timeout", "device.retry_exhausted")
            ),
            key=lambda point: point[:2],
        )
        stats = {name: device.retry_stats for name, device in sorted(scenario.devices.items())}
        assert sum(point[4] == "device.report_timeout" for point in points) == timeouts
        blob = json.dumps({"points": points, "retry_stats": stats}).encode()
        assert hashlib.sha256(blob).hexdigest() == digest


class TestResendRestartsDeadline:
    def test_resent_report_times_out_a_full_timeout_after_the_resend(self):
        # A report that left the window through session loss is resent
        # before its first deadline, and the resend's Ack is lost too: it
        # times out ``timeout_s`` after the resend (RFC 6298 §5.1), not
        # at the deadline of the send the session loss abandoned.
        spec = dataclasses.replace(paper_testbed_spec(seed=71), transport=DIRECT)
        scenario = observed(spec)
        scenario.run_until(12.0)
        device = scenario.device("device1")
        hub = scenario.aggregator("agg1").endpoint
        sequence = device.sequences_issued + 1
        hub.set_down(True)  # reports sent from here on go unacked
        scenario.run_until(12.25)
        device.drop_connection()  # the unacked window re-enters the store
        hub.set_down(False)
        device.reconnect()
        now = scenario.simulator.now
        while device.store.pending:  # the first Ack flushes the backlog
            assert now < 15.0, "the backlog never flushed"
            now += 0.0002  # under the hub latency: the resends are in transit
            scenario.run_until(now)
        hub.set_down(True)  # so the resends' Acks are lost
        scenario.run_until(20.0)

        spans = scenario.simulator.spans
        resent_at = next(
            span.start for span in spans.by_name("device.flush")
            if span.actor == "device1" and span.start > 12.25
        )
        timeout_s = RetryPolicy().timeout_s  # the policy device_retry installs
        # First sent after 12.0, so resent before its old deadline.
        assert resent_at < 12.0 + timeout_s
        expiries = [
            span.start for span in spans.by_name("device.report_timeout")
            if span.actor == "device1" and span.tags["sequence"] == sequence
        ]
        assert expiries[0] == resent_at + timeout_s


class TestOneTimerPerDevice:
    def test_heap_holds_one_timer_per_device_and_no_per_report_event(self):
        scenario = build(scaled_spec(2, 20, seed=7, transport=DIRECT))
        sim = scenario.simulator
        scenario.run_until(7.05)  # joined; 100 ms reporting from here on
        timers = [
            entry[3].label for entry in sim.queue._heap
            if not entry[3].cancelled and entry[3].label.endswith(":ack-timeout")
        ]
        assert len(timers) <= len(scenario.devices) == 40
        assert len(set(timers)) == len(timers)
        events, records = sim.events_executed, scenario.chain.records_total
        scenario.run_until(9.05)
        records = scenario.chain.records_total - records
        assert records == 800
        assert (sim.events_executed - events) / records <= 3.3
