"""Tests for load profiles, mobility traces and scenario builders."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.runtime import build
from repro.workloads import (
    ApplianceProfile,
    CompositeProfile,
    ConstantProfile,
    DutyCycleProfile,
    EscooterChargeProfile,
    MobilityEvent,
    MobilityTrace,
    SinusoidProfile,
    paper_testbed_spec,
    scaled_spec,
)


class TestProfiles:
    def test_constant(self):
        profile = ConstantProfile(42.0)
        assert profile(0.0) == profile(1e6) == 42.0

    def test_constant_negative_rejected(self):
        with pytest.raises(ConfigError):
            ConstantProfile(-1.0)

    def test_duty_cycle_levels(self):
        profile = DutyCycleProfile(high_ma=100.0, low_ma=10.0, period_s=10.0, duty=0.3)
        assert profile(1.0) == 100.0
        assert profile(5.0) == 10.0
        assert profile(11.0) == 100.0  # periodic

    def test_duty_cycle_phase(self):
        base = DutyCycleProfile(100.0, 0.0, period_s=10.0, duty=0.5)
        shifted = DutyCycleProfile(100.0, 0.0, period_s=10.0, duty=0.5, phase_s=5.0)
        assert base(1.0) != shifted(1.0)

    def test_duty_cycle_validation(self):
        with pytest.raises(ConfigError):
            DutyCycleProfile(10.0, 20.0)  # high < low
        with pytest.raises(ConfigError):
            DutyCycleProfile(10.0, duty=1.5)

    def test_sinusoid_range_and_period(self):
        profile = SinusoidProfile(mean_ma=50.0, amplitude_ma=20.0, period_s=10.0)
        values = [profile(t * 0.1) for t in range(200)]
        assert min(values) >= 30.0 - 1e-9
        assert max(values) <= 70.0 + 1e-9
        assert profile(0.0) == pytest.approx(profile(10.0))

    def test_sinusoid_never_negative(self):
        with pytest.raises(ConfigError):
            SinusoidProfile(mean_ma=10.0, amplitude_ma=20.0)

    def test_escooter_cc_then_decay(self):
        profile = EscooterChargeProfile(
            capacity_mah=10.0, initial_soc=0.0, cc_current_ma=100.0, dt_s=1.0
        )
        assert profile(0.0) == pytest.approx(100.0)
        assert profile(60.0) == pytest.approx(100.0)  # still bulk phase
        late = profile(3600.0)
        assert late < 20.0  # deep in CV / finished

    def test_escooter_before_start_zero(self):
        profile = EscooterChargeProfile(start_s=100.0)
        assert profile(50.0) == 0.0
        assert profile(100.0) > 0.0

    def test_escooter_monotone_nonincreasing(self):
        profile = EscooterChargeProfile(capacity_mah=20.0, cc_current_ma=100.0)
        values = [profile(t * 60.0) for t in range(60)]
        assert all(a >= b - 1e-6 for a, b in zip(values, values[1:]))

    def test_appliance_deterministic_for_same_rng_seed(self):
        a = ApplianceProfile(np.random.default_rng(5))
        b = ApplianceProfile(np.random.default_rng(5))
        assert [a(t) for t in range(100)] == [b(t) for t in range(100)]

    def test_appliance_two_levels_only(self):
        profile = ApplianceProfile(np.random.default_rng(1), on_ma=60.0)
        values = {profile(t * 0.5) for t in range(2000)}
        assert values <= {0.0, 60.0}
        assert len(values) == 2  # it actually switches

    def test_appliance_outside_horizon_off(self):
        profile = ApplianceProfile(np.random.default_rng(2), horizon_s=100.0)
        assert profile(1e6) == 0.0
        assert profile(-5.0) == 0.0

    def test_composite_sums(self):
        profile = CompositeProfile(ConstantProfile(10.0), ConstantProfile(5.0))
        assert profile(0.0) == 15.0

    def test_composite_empty_rejected(self):
        with pytest.raises(ConfigError):
            CompositeProfile()


class TestMobilityTrace:
    def test_single_move_shape(self):
        trace = MobilityTrace.single_move("agg1", "agg2", 0.0, 60.0, 10.0)
        actions = [(e.at_time, e.action) for e in trace.events]
        assert actions == [(0.0, "enter"), (60.0, "leave"), (70.0, "enter")]

    def test_alternation_enforced(self):
        with pytest.raises(ConfigError):
            MobilityTrace(
                [
                    MobilityEvent(0.0, "enter", "agg1"),
                    MobilityEvent(1.0, "enter", "agg2"),
                ]
            )
        with pytest.raises(ConfigError):
            MobilityTrace([MobilityEvent(0.0, "leave")])

    def test_events_sorted(self):
        trace = MobilityTrace(
            [
                MobilityEvent(5.0, "leave"),
                MobilityEvent(0.0, "enter", "agg1"),
            ]
        )
        assert [e.action for e in trace.events] == ["enter", "leave"]

    def test_event_validation(self):
        with pytest.raises(ConfigError):
            MobilityEvent(0.0, "teleport")
        with pytest.raises(ConfigError):
            MobilityEvent(0.0, "enter")  # no network
        with pytest.raises(ConfigError):
            MobilityEvent(-1.0, "leave")


class TestScenarios:
    def test_paper_testbed_shape(self):
        scenario = build(paper_testbed_spec(enter_devices=False))
        assert sorted(scenario.aggregators) == ["agg1", "agg2"]
        assert len(scenario.devices) == 4
        assert scenario.mesh.latency_s(
            scenario.aggregator("agg1").aggregator_id,
            scenario.aggregator("agg2").aggregator_id,
        ) == pytest.approx(0.001)

    def test_same_seed_same_chain(self):
        def run(seed):
            scenario = build(paper_testbed_spec(seed=seed))
            scenario.run_until(12.0)
            return scenario.chain.tip_hash

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_unknown_names_rejected(self):
        scenario = build(paper_testbed_spec(enter_devices=False))
        with pytest.raises(ConfigError):
            scenario.device("nope")
        with pytest.raises(ConfigError):
            scenario.aggregator("nope")

    def test_scaled_scenario_shape(self):
        scenario = build(scaled_spec(3, 4, enter_devices=False))
        assert len(scenario.aggregators) == 3
        assert len(scenario.devices) == 12
        # Full mesh: any pair routable.
        names = list(scenario.aggregators.values())
        assert scenario.mesh.latency_s(
            names[0].aggregator_id, names[2].aggregator_id
        ) > 0

    def test_scaled_scenario_runs(self):
        scenario = build(scaled_spec(2, 3, seed=1))
        scenario.run_until(10.0)
        assert scenario.chain.height > 0
        scenario.chain.validate()

    def test_scaled_validation(self):
        with pytest.raises(ConfigError):
            scaled_spec(0, 1)
        with pytest.raises(ConfigError):
            scaled_spec(1, -1)
