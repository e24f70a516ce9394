"""Tests for trace-driven and Markov appliance profiles."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.workloads import MarkovApplianceModel, TraceProfile


class TestTraceProfile:
    def make(self, repeat=False):
        return TraceProfile([0.0, 1.0, 2.5], [10.0, 50.0, 20.0], repeat=repeat)

    def test_step_interpolation(self):
        profile = self.make()
        assert profile(0.0) == 10.0
        assert profile(0.99) == 10.0
        assert profile(1.0) == 50.0
        assert profile(2.6) == 20.0

    def test_before_start_zero(self):
        assert self.make()(-1.0) == 0.0

    def test_after_span_zero_without_repeat(self):
        profile = self.make()
        assert profile(100.0) == 0.0

    def test_repeat_loops(self):
        profile = self.make(repeat=True)
        span = profile.span_s
        assert profile(0.5 + span) == profile(0.5)
        assert profile(1.5 + 2 * span) == profile(1.5)

    def test_csv_roundtrip(self):
        profile = self.make()
        text = profile.to_csv()
        reloaded = TraceProfile.from_csv(text)
        for t in (0.0, 0.5, 1.2, 2.7):
            assert reloaded(t) == profile(t)

    def test_file_roundtrip(self, tmp_path):
        profile = self.make()
        path = tmp_path / "trace.csv"
        profile.save(path)
        reloaded = TraceProfile.load(path)
        assert reloaded(1.5) == profile(1.5)

    def test_csv_validation(self):
        with pytest.raises(ConfigError):
            TraceProfile.from_csv("bogus,header\n1,2\n")
        with pytest.raises(ConfigError):
            TraceProfile.from_csv("time_s,current_ma\n0.0,abc\n")

    @pytest.mark.parametrize(
        "times,currents",
        [
            ([], []),
            ([0.0, 1.0], [1.0]),           # length mismatch
            ([0.0, 1.0, 1.0], [1, 2, 3]),  # not strictly increasing
            ([1.0, 2.0], [1, 2]),          # does not start at 0
            ([0.0, 1.0], [1.0, -2.0]),     # negative current
        ],
    )
    def test_constructor_validation(self, times, currents):
        with pytest.raises(ConfigError):
            TraceProfile(times, currents)

    def test_usable_as_device_profile(self):
        from repro.device.stack import DeviceConfig, MeteringDevice
        from repro.ids import DeviceId
        from repro.runtime import build
        from repro.workloads.scenarios import paper_testbed_spec

        scenario = build(paper_testbed_spec(seed=0, enter_devices=False))
        trace = TraceProfile([0.0, 5.0, 10.0], [30.0, 90.0, 15.0], repeat=True)
        device = MeteringDevice(
            scenario.simulator, DeviceId("traced"), DeviceConfig(),
            scenario.grid, scenario.transport, trace,
        )
        scenario.devices["traced"] = device
        scenario.enter_at("traced", "agg1", 0.0)
        scenario.run_until(15.0)
        assert scenario.chain.records_for_device(device.device_id.uid)


class TestMarkovAppliance:
    def make(self, seed=0, **kwargs):
        return MarkovApplianceModel(np.random.default_rng(seed), **kwargs)

    def test_deterministic_per_seed(self):
        a, b = self.make(5), self.make(5)
        assert [a(t) for t in range(200)] == [b(t) for t in range(200)]

    def test_values_are_state_draws(self):
        model = self.make(1)
        values = {model(t * 0.5) for t in range(4000)}
        assert values <= {0.0, 3.0, 60.0, 150.0}
        assert len(values) >= 3  # it actually visits several states

    def test_occupancy_sums_to_one(self):
        model = self.make(2)
        occupancy = model.occupancy(resolution_s=0.5)
        assert sum(occupancy.values()) == pytest.approx(1.0)
        assert occupancy["active"] > 0

    def test_burst_follows_active_only(self):
        # Bursts are entered only from active (default matrix); sampling
        # finely, a burst sample's predecessor state is never 'off'.
        model = self.make(3, mean_dwell_s=(5.0, 3.0, 5.0, 2.0))
        previous = model(0.0)
        for i in range(1, 40000):
            value = model(i * 0.05)
            if value == 150.0 and previous != 150.0:
                assert previous == 60.0
            previous = value

    def test_outside_horizon_off(self):
        model = self.make(0, horizon_s=100.0)
        assert model(101.0) == 0.0
        assert model(-1.0) == 0.0

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            MarkovApplianceModel(rng, standby_ma=-1.0)
        with pytest.raises(ConfigError):
            MarkovApplianceModel(rng, mean_dwell_s=(0.0, 1, 1, 1))
        with pytest.raises(ConfigError):
            MarkovApplianceModel(rng, horizon_s=0.0)
        with pytest.raises(ConfigError):
            MarkovApplianceModel(rng, transitions=np.ones((4, 4)))
        with pytest.raises(ConfigError):
            MarkovApplianceModel(rng, transitions=np.eye(3))

    def test_occupancy_needs_distinct_draws(self):
        model = self.make(0, standby_ma=60.0, active_ma=60.0)
        with pytest.raises(ConfigError):
            model.occupancy()
