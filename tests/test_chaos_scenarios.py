"""End-to-end chaos tests: fault scenarios against the paper testbed."""

import pytest

from repro.errors import ProtocolError
from repro.experiments.faults import settle_and_measure
from repro.faults import LinkFaultSpec
from repro.runtime import build
from repro.workloads.scenarios import (
    blackout_spec,
    build_partition_scenario,
    crash_spec,
    paper_testbed_spec,
)


class TestBlackoutScenario:
    def test_buffering_then_backfill(self):
        # The Fig. 6 shape caused by a fault: reports buffer through the
        # blackout and backfill flagged buffered=True afterwards.
        scenario = build(blackout_spec(seed=3, blackout_at=5.0, blackout_s=8.0))
        result = settle_and_measure(scenario, scenario.fault_plan, run_s=20.0, seed=3)
        assert result.delivery_ratio == 1.0
        assert result.billing_error < 1e-9
        for name, outcome in result.devices.items():
            assert outcome.store_dropped == 0, name
            # ~80 samples land inside the 8 s window at 0.1 s cadence.
            assert outcome.buffered_delivered >= 60, name
        assert result.fault_counters["radio.blackouts"] == 1
        assert result.fault_counters["radio.blackout_losses"] > 0

    def test_buffer_grows_during_blackout(self):
        # blackout_at=10 leaves room for the ~6 s scan-dominated
        # handshake: devices are REPORTING with an empty store before
        # the lights go out.
        scenario = build(blackout_spec(seed=0, blackout_at=10.0, blackout_s=8.0))
        scenario.run_until(9.9)
        assert all(d.store.pending == 0 for d in scenario.devices.values())
        scenario.run_until(17.0)
        pending = {n: d.store.pending for n, d in scenario.devices.items()}
        assert all(p > 40 for p in pending.values()), pending


class TestCrashScenario:
    def test_crash_restart_backfills(self):
        scenario = build(crash_spec(seed=1, crash_at=10.0, outage_s=6.0))
        result = settle_and_measure(scenario, scenario.fault_plan, run_s=25.0, seed=1)
        assert result.delivery_ratio == 1.0
        assert result.billing_error < 1e-9
        # agg1's devices rode the Ack-timeout retry path.
        assert (
            result.devices["device1"].retry_stats["report_timeouts"] > 0
        )
        # agg2's network never noticed.
        assert result.devices["device3"].retry_stats["report_timeouts"] == 0

    def test_crash_is_guarded(self):
        from repro.errors import ConfigError

        scenario = build(paper_testbed_spec(seed=0))
        unit = scenario.aggregator("agg1")
        with pytest.raises(ConfigError):
            unit.crash_for(0.0)
        unit.crash_for(5.0)
        assert unit.down
        assert unit.broker.down
        with pytest.raises(ProtocolError):
            unit.crash_for(1.0)  # already down
        scenario.run_until(10.0)
        assert not unit.down
        assert not unit.broker.down

    def test_volatile_state_lost_ledger_survives(self):
        scenario = build(crash_spec(seed=0, crash_at=10.0, outage_s=5.0))
        scenario.run_until(9.0)
        unit = scenario.aggregator("agg1")
        registry_before = unit.registry
        height_before = scenario.chain.height
        assert registry_before.member_count == 2
        scenario.run_until(40.0)
        # The restart rebuilt the registry from nothing (volatile state
        # lost) and the devices re-registered through the normal
        # sequence, vouched by the surviving ledger.
        assert unit.registry is not registry_before
        assert unit.registry.member_count == 2
        assert scenario.chain.height > height_before


class TestPartitionScenario:
    def test_roaming_registration_survives_partition(self):
        # Defaults: partition 18-38 s, device1 leaves home at 20 s and
        # reaches agg2 mid-partition, so its membership verify fires
        # into the split mesh and must ride the retry path.
        scenario, plan = build_partition_scenario(seed=2)
        agg2 = scenario.aggregator("agg2")
        result = settle_and_measure(scenario, plan, run_s=70.0, seed=2)
        assert result.delivery_ratio == 1.0
        assert result.billing_error < 1e-9
        # The verify conversation had to retry across the partition
        # (or time out and fail closed before eventually succeeding).
        stats = agg2.liaison.stats
        assert stats.verify_retries + stats.verify_timeouts > 0
        assert scenario.device("device1").fsm.phase.value == "reporting"


class TestBrokerFaults:
    def test_broker_down_drops_and_counts(self):
        scenario = build(paper_testbed_spec(seed=0))
        unit = scenario.aggregator("agg1")
        scenario.run_until(12.0)  # devices registered and reporting
        unit.broker.set_down(True)
        dropped_before = unit.broker.messages_dropped
        scenario.run_until(13.0)
        assert unit.broker.messages_dropped > dropped_before
        unit.broker.set_down(False)

    def test_broker_injector_survivable_with_retry(self):
        scenario = build(paper_testbed_spec(seed=5))
        from repro.faults import FaultPlan

        plan = FaultPlan(scenario.simulator)
        for name, unit in scenario.aggregators.items():
            injector = plan.make_injector(f"broker:{name}")
            unit.broker.set_fault_injector(injector)
            plan.link_noise(
                f"{name}-loss", injector, LinkFaultSpec(drop_p=0.1), start_at=0.0
            )
        result = settle_and_measure(scenario, plan, run_s=15.0, seed=5)
        assert result.delivery_ratio >= 0.99
        assert plan.counters.total("broker:") > 0

    def test_duplicate_faults_deduplicated_by_ledger_scoring(self):
        scenario = build(paper_testbed_spec(seed=6))
        from repro.faults import FaultPlan

        plan = FaultPlan(scenario.simulator)
        unit = scenario.aggregator("agg1")
        injector = plan.make_injector("dup")
        unit.broker.set_fault_injector(injector)
        plan.link_noise(
            "dup-storm", injector, LinkFaultSpec(duplicate_p=0.3), start_at=0.0
        )
        result = settle_and_measure(scenario, plan, run_s=10.0, seed=6)
        # Duplicated report messages reach the aggregator twice but
        # sequence-dedup keeps billing exact.
        assert result.delivery_ratio == 1.0
        assert result.billing_error < 1e-9


class TestRetryMatters:
    def test_no_retry_loses_reports_under_silent_loss(self):
        def run(retry: bool) -> float:
            scenario = build(paper_testbed_spec(seed=4, device_retry=retry))
            from repro.faults import FaultPlan

            plan = FaultPlan(scenario.simulator)
            for name, unit in scenario.aggregators.items():
                injector = plan.make_injector(f"broker:{name}")
                unit.broker.set_fault_injector(injector)
                plan.link_noise(
                    f"{name}-loss", injector, LinkFaultSpec(drop_p=0.1), start_at=0.0
                )
            return settle_and_measure(scenario, plan, run_s=15.0, seed=4).delivery_ratio

        with_retry = run(True)
        without_retry = run(False)
        assert with_retry >= 0.99
        assert without_retry < with_retry - 0.01


class TestDeterminism:
    def test_same_seed_same_chaos_outcome(self):
        def run():
            scenario = build(blackout_spec(seed=11, blackout_at=3.0, blackout_s=4.0))
            result = settle_and_measure(scenario, scenario.fault_plan, run_s=12.0, seed=11)
            return (
                result.fault_counters,
                {n: (d.measured, d.delivered, d.ledger_mwh) for n, d in result.devices.items()},
            )

        assert run() == run()

    def test_different_seeds_differ(self):
        def run(seed):
            scenario = build(blackout_spec(seed=seed))
            scenario.run_until(8.0)
            return scenario.chain.total_energy_mwh()

        assert run(1) != run(2)


class TestFaultSweepWorkers:
    def test_parallel_sweep_matches_serial(self):
        # The acceptance property of the parallel executor: any worker
        # count produces byte-identical results (each point is a pure
        # function of its parameters, collected in point order).
        from repro.experiments.faults import run_fault_sweep

        intensities = [0.0, 0.15]
        serial = run_fault_sweep(intensities, seed=3, run_s=8.0)
        parallel = run_fault_sweep(intensities, seed=3, run_s=8.0, workers=2)
        assert parallel == serial
        assert [p.intensity for p in parallel] == intensities

    def test_empty_sweep_is_empty(self):
        from repro.experiments.faults import run_fault_sweep

        assert run_fault_sweep([]) == []
