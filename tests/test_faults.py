"""Tests for the fault-injection subsystem (repro.faults + hooks)."""

import numpy as np
import pytest

from repro.errors import ConfigError, ProtocolError
from repro.faults import (
    FaultAction,
    FaultPlan,
    LinkFaultInjector,
    LinkFaultSpec,
    RetryPolicy,
    RetryTimer,
)
from repro.ids import AggregatorId, DeviceId
from repro.monitoring import CounterBank
from repro.net.backhaul import BackhaulLink, BackhaulMesh
from repro.protocol.messages import (
    MembershipVerifyRequest,
    MembershipVerifyResponse,
)
from repro.sim import Simulator

AGG1 = AggregatorId("agg1")
AGG2 = AggregatorId("agg2")


class TestRetryPolicy:
    def test_backoff_grows_exponentially_to_ceiling(self):
        policy = RetryPolicy(
            base_backoff_s=1.0, backoff_factor=2.0, max_backoff_s=5.0, jitter=0.0
        )
        assert policy.backoff_s(1) == 1.0
        assert policy.backoff_s(2) == 2.0
        assert policy.backoff_s(3) == 4.0
        assert policy.backoff_s(4) == 5.0  # clamped
        assert policy.backoff_s(10) == 5.0

    def test_jitter_bounded_and_deterministic(self):
        policy = RetryPolicy(base_backoff_s=1.0, jitter=0.1)
        rng = np.random.default_rng(0)
        delays = [policy.backoff_s(1, rng) for _ in range(50)]
        assert all(0.9 <= d <= 1.1 for d in delays)
        rng2 = np.random.default_rng(0)
        assert delays == [policy.backoff_s(1, rng2) for _ in range(50)]

    def test_exhausted(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            RetryPolicy(timeout_s=0)
        with pytest.raises(ConfigError):
            RetryPolicy(base_backoff_s=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(max_backoff_s=0.1, base_backoff_s=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ConfigError):
            RetryPolicy().backoff_s(0)


class TestRetryTimer:
    def make_timer(self, sim, **overrides):
        policy = RetryPolicy(
            timeout_s=1.0, base_backoff_s=0.5, jitter=0.0, max_attempts=3, **overrides
        )
        attempts, gave_up = [], []
        timer = RetryTimer(
            sim,
            policy,
            attempt_fn=lambda: attempts.append(sim.now),
            on_give_up=lambda: gave_up.append(sim.now),
        )
        return timer, attempts, gave_up

    def test_settle_stops_retries(self):
        sim = Simulator()
        timer, attempts, gave_up = self.make_timer(sim)
        timer.arm()
        sim.schedule(0.5, timer.settle)
        sim.run()
        assert attempts == [] and gave_up == []
        assert timer.settled and timer.attempts == 1

    def test_retries_then_gives_up(self):
        sim = Simulator()
        timer, attempts, gave_up = self.make_timer(sim)
        timer.arm()
        sim.run()
        # Attempt 1 at 0, times out at 1, backoff 0.5 -> retry at 1.5;
        # times out at 2.5, backoff 1.0 -> retry at 3.5; final timeout
        # at 4.5 exhausts the 3-attempt budget.
        assert attempts == [1.5, 3.5]
        assert gave_up == [4.5]
        assert timer.settled and timer.attempts == 3

    def test_arm_after_settle_is_inert(self):
        sim = Simulator()
        timer, attempts, gave_up = self.make_timer(sim)
        timer.arm()
        timer.settle()
        timer.arm()
        sim.run()
        assert attempts == [] and gave_up == []


class TestLinkFaultSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LinkFaultSpec(drop_p=1.5)
        with pytest.raises(ConfigError):
            LinkFaultSpec(drop_p=0.6, duplicate_p=0.6)
        with pytest.raises(ConfigError):
            LinkFaultSpec(delay_s=-1.0)
        assert LinkFaultSpec().lossless
        assert not LinkFaultSpec(corrupt_p=0.1).lossless


class TestLinkFaultInjector:
    def test_blackout_blocks_everything(self):
        injector = LinkFaultInjector("link", np.random.default_rng(0))
        assert not injector.packet_blocked()
        injector.start_blackout()
        assert injector.blackout_active
        assert all(injector.packet_blocked() for _ in range(20))
        assert injector.message_verdict() is FaultAction.DROP
        injector.end_blackout()
        assert not injector.packet_blocked()
        assert injector.counters.get("link.blackouts") == 1
        assert injector.counters.get("link.blackout_losses") == 21

    def test_lossless_spec_never_draws(self):
        injector = LinkFaultInjector("link", np.random.default_rng(0))
        assert all(
            injector.message_verdict() is FaultAction.PASS for _ in range(50)
        )

    def test_verdict_frequencies_and_counters(self):
        spec = LinkFaultSpec(drop_p=0.25, duplicate_p=0.25, delay_p=0.25, corrupt_p=0.25)
        injector = LinkFaultInjector("link", np.random.default_rng(1), spec=spec)
        verdicts = [injector.message_verdict() for _ in range(400)]
        counts = {action: verdicts.count(action) for action in FaultAction}
        assert counts[FaultAction.PASS] == 0
        for action in (
            FaultAction.DROP,
            FaultAction.DUPLICATE,
            FaultAction.DELAY,
            FaultAction.CORRUPT,
        ):
            assert 50 <= counts[action] <= 150
        bank = injector.counters
        assert bank.get("link.drops") == counts[FaultAction.DROP]
        assert bank.get("link.corruptions") == counts[FaultAction.CORRUPT]

    def test_deterministic_for_same_stream(self):
        spec = LinkFaultSpec(drop_p=0.5)
        a = LinkFaultInjector("x", np.random.default_rng(7), spec=spec)
        b = LinkFaultInjector("x", np.random.default_rng(7), spec=spec)
        assert [a.packet_blocked() for _ in range(100)] == [
            b.packet_blocked() for _ in range(100)
        ]


class TestCounterBank:
    def test_increment_and_snapshot(self):
        bank = CounterBank()
        bank.increment("a.x")
        bank.increment("a.y", 3)
        bank.increment("b.z")
        assert bank.get("a.x") == 1
        assert bank.get("missing") == 0
        assert bank.snapshot("a.") == {"a.x": 1, "a.y": 3}
        assert bank.total("a.") == 4
        assert sorted(bank.names) == ["a.x", "a.y", "b.z"]

    def test_negative_increment_rejected(self):
        with pytest.raises(ConfigError):
            CounterBank().increment("a", -1)


class TestFaultPlan:
    def test_blackout_window_toggles_injector(self):
        sim = Simulator()
        plan = FaultPlan(sim)
        injector = plan.make_injector("radio")
        plan.link_blackout("b1", injector, start_at=1.0, duration_s=2.0)
        sim.run_until(0.5)
        assert not injector.blackout_active
        sim.run_until(1.5)
        assert injector.blackout_active
        sim.run_until(3.5)
        assert not injector.blackout_active
        assert plan.counters.get("fault.b1.activations") == 1

    def test_link_noise_window_swaps_spec(self):
        sim = Simulator()
        plan = FaultPlan(sim)
        injector = plan.make_injector("edge")
        plan.link_noise("n1", injector, LinkFaultSpec(drop_p=0.5), 1.0, duration_s=2.0)
        sim.run_until(1.5)
        assert injector.spec.drop_p == 0.5
        sim.run_until(3.5)
        assert injector.spec.lossless

    def test_duplicate_and_invalid_names_rejected(self):
        sim = Simulator()
        plan = FaultPlan(sim)
        injector = plan.make_injector("x")
        plan.link_blackout("b", injector, 0.0, 1.0)
        with pytest.raises(ConfigError):
            plan.link_blackout("b", injector, 5.0, 1.0)
        with pytest.raises(ConfigError):
            plan.link_noise("", injector, LinkFaultSpec(), 0.0)
        with pytest.raises(ConfigError):
            plan.link_blackout("c", injector, 0.0, -1.0)

    def test_describe_sorted_by_start(self):
        sim = Simulator()
        plan = FaultPlan(sim)
        injector = plan.make_injector("x")
        plan.link_blackout("late", injector, 10.0, 1.0)
        plan.link_noise("early", injector, LinkFaultSpec(drop_p=0.1), 2.0)
        described = plan.describe()
        assert [d["name"] for d in described] == ["early", "late"]
        assert described[1]["end_at"] == 11.0
        assert described[0]["end_at"] is None


class TestBackhaulFaults:
    def make_mesh(self):
        sim = Simulator()
        mesh = BackhaulMesh(sim)
        inbox = {"agg1": [], "agg2": []}
        mesh.add_aggregator(AGG1, lambda s, p: inbox["agg1"].append(p))
        mesh.add_aggregator(AGG2, lambda s, p: inbox["agg2"].append(p))
        mesh.connect(BackhaulLink(AGG1, AGG2, 0.001))
        return sim, mesh, inbox

    def test_partition_severs_and_heals(self):
        sim, mesh, inbox = self.make_mesh()
        mesh.set_partition([{AGG1}, {AGG2}])
        mesh.send(AGG1, AGG2, "lost")
        sim.run()
        assert inbox["agg2"] == []
        assert mesh.messages_dropped == 1
        mesh.heal_partition()
        mesh.send(AGG1, AGG2, "ok")
        sim.run()
        assert inbox["agg2"] == ["ok"]

    def test_partition_must_cover_all_nodes(self):
        from repro.errors import BackhaulError

        _, mesh, _ = self.make_mesh()
        with pytest.raises(BackhaulError):
            mesh.set_partition([{AGG1}])
        with pytest.raises(BackhaulError):
            mesh.set_partition([{AGG1, AGG2}, {AGG2}])

    def test_node_down_drops_in_flight(self):
        sim, mesh, inbox = self.make_mesh()
        mesh.send(AGG1, AGG2, "in-flight")
        mesh.set_node_down(AGG2, True)
        sim.run()
        # Delivered-at arrival check: the destination died first.
        assert inbox["agg2"] == []
        mesh.set_node_down(AGG2, False)
        mesh.send(AGG1, AGG2, "after")
        sim.run()
        assert inbox["agg2"] == ["after"]


class TestVerifyRetry:
    def make_pair(self, retry=None):
        from repro.aggregator.roaming import RoamingLiaison

        sim = Simulator()
        mesh = BackhaulMesh(sim)
        host = RoamingLiaison(AGG2, mesh, retry=retry)
        master = RoamingLiaison(AGG1, mesh)
        inbox = {"host": [], "master": []}
        mesh.add_aggregator(AGG2, lambda s, p: inbox["host"].append(p))
        mesh.add_aggregator(AGG1, lambda s, p: inbox["master"].append(p))
        mesh.connect(BackhaulLink(AGG1, AGG2, 0.001))
        return sim, mesh, host, master, inbox

    def test_unanswered_verify_expires_with_negative_verdict(self):
        # Regression: pending verifies used to leak forever when the
        # master never answered (crashed master, partitioned mesh).
        policy = RetryPolicy(timeout_s=1.0, base_backoff_s=0.5, jitter=0.0, max_attempts=2)
        sim, mesh, host, _, inbox = self.make_pair(retry=policy)
        mesh.set_partition([{AGG1}, {AGG2}])
        verdicts = []
        host.request_verification(DeviceId("d1"), AGG1, verdicts.append)
        sim.run()
        assert host.pending_verify_count == 0
        assert host.stats.verify_timeouts == 1
        assert host.stats.verify_retries == 1
        assert verdicts and verdicts[0].valid is False
        assert inbox["master"] == []

    def test_retry_reaches_master_after_transient_loss(self):
        policy = RetryPolicy(timeout_s=1.0, base_backoff_s=0.5, jitter=0.0, max_attempts=4)
        sim, mesh, host, master, inbox = self.make_pair(retry=policy)
        mesh.set_partition([{AGG1}, {AGG2}])
        sim.schedule(1.2, mesh.heal_partition)
        verdicts = []
        host.request_verification(DeviceId("d1"), AGG1, verdicts.append)
        sim.run_until(2.0)
        assert len(inbox["master"]) == 1
        request = inbox["master"][0]
        assert isinstance(request, MembershipVerifyRequest)
        master.answer_verification(request, is_member=True)
        sim.run_until(3.0)
        host.handle_verify_response(inbox["host"][0])
        assert verdicts and verdicts[0].valid
        assert host.pending_verify_count == 0
        assert host.stats.verify_timeouts == 0

    def test_late_response_after_expiry_is_discarded(self):
        policy = RetryPolicy(timeout_s=1.0, base_backoff_s=0.5, jitter=0.0, max_attempts=1)
        sim, mesh, host, _, _ = self.make_pair(retry=policy)
        mesh.set_partition([{AGG1}, {AGG2}])
        verdicts = []
        host.request_verification(DeviceId("d1"), AGG1, verdicts.append)
        sim.run()
        assert host.stats.verify_timeouts == 1
        late = MembershipVerifyResponse(DeviceId("d1"), AGG1, True)
        host.handle_verify_response(late)  # must not raise
        assert host.stats.verify_responses_late == 1
        assert len(verdicts) == 1  # the synthesized negative only

    def test_truly_unsolicited_response_still_rejected(self):
        _, _, host, _, _ = self.make_pair(retry=RetryPolicy())
        with pytest.raises(ProtocolError):
            host.handle_verify_response(
                MembershipVerifyResponse(DeviceId("never-asked"), AGG1, True)
            )
