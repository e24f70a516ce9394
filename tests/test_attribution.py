"""Tests for anomalous-device attribution (§IV future work)."""

import math

import numpy as np
import pytest

from repro.anomaly import DeviceAttributor, ScalingAttack
from repro.errors import AnomalyError
from repro.runtime import build
from repro.workloads.scenarios import paper_testbed_spec


def synthetic_windows(attributor, alphas, windows=120, loss=0.04, seed=0, noise=0.2):
    """Feed windows where device i truly draws alpha_i * its report."""
    rng = np.random.default_rng(seed)
    for t in range(windows):
        reported = {
            name: 40.0 + 30.0 * math.sin(2 * math.pi * t / (11.0 + 7 * i))
            for i, name in enumerate(alphas)
        }
        feeder = (1 + loss) * sum(a * reported[n] for n, a in alphas.items())
        feeder += 3.0 + float(rng.normal(0, noise))
        attributor.add_window(reported, feeder)


class TestDeviceAttributorUnit:
    def test_honest_devices_all_alpha_one(self):
        attributor = DeviceAttributor(expected_loss_fraction=0.04)
        synthetic_windows(attributor, {"d1": 1.0, "d2": 1.0})
        result = attributor.estimate()
        assert result.suspects == []
        for alpha in result.alphas.values():
            assert alpha == pytest.approx(1.0, abs=0.05)
        assert result.intercept_ma == pytest.approx(3.0, abs=0.5)

    def test_underreporting_device_identified(self):
        attributor = DeviceAttributor(expected_loss_fraction=0.04)
        synthetic_windows(attributor, {"d1": 2.0, "d2": 1.0, "d3": 1.0})
        result = attributor.estimate()
        assert result.suspects == ["d1"]
        assert result.alphas["d1"] == pytest.approx(2.0, abs=0.1)

    def test_multiple_suspects_ranked_by_severity(self):
        attributor = DeviceAttributor()
        synthetic_windows(attributor, {"d1": 1.5, "d2": 3.0, "d3": 1.0})
        result = attributor.estimate()
        assert result.suspects == ["d2", "d1"]

    def test_recovered_true_consumption(self):
        attributor = DeviceAttributor()
        synthetic_windows(attributor, {"d1": 2.0, "d2": 1.0})
        result = attributor.estimate()
        assert result.recovered_true_ma("d1", 50.0) == pytest.approx(100.0, rel=0.1)
        with pytest.raises(AnomalyError):
            result.recovered_true_ma("ghost", 1.0)

    def test_needs_minimum_windows(self):
        attributor = DeviceAttributor(min_windows=50)
        assert not attributor.ready
        with pytest.raises(AnomalyError):
            attributor.estimate()

    def test_identical_profiles_refused(self):
        # Two devices reporting the same shape cannot be told apart;
        # attribution must refuse, not guess.
        attributor = DeviceAttributor()
        for t in range(100):
            value = 40.0 + 30.0 * math.sin(2 * math.pi * t / 11.0)
            attributor.add_window({"d1": value, "d2": value}, 2.08 * value + 3.0)
        with pytest.raises(AnomalyError):
            attributor.estimate()

    def test_partial_windows_skipped(self):
        attributor = DeviceAttributor(min_windows=10)
        synthetic_windows(attributor, {"d1": 1.0, "d2": 1.0}, windows=30)
        attributor.add_window({"d1": 40.0}, 45.0)  # d2 missing
        result = attributor.estimate()
        assert result.windows_used == 30

    def test_validation(self):
        with pytest.raises(AnomalyError):
            DeviceAttributor(expected_loss_fraction=-0.1)
        with pytest.raises(AnomalyError):
            DeviceAttributor(min_windows=1)
        with pytest.raises(AnomalyError):
            DeviceAttributor(suspicion_threshold=0.0)
        attributor = DeviceAttributor()
        with pytest.raises(AnomalyError):
            attributor.add_window({}, 10.0)
        with pytest.raises(AnomalyError):
            attributor.add_window({"d": 1.0}, -1.0)

    def test_bounded_history(self):
        attributor = DeviceAttributor(min_windows=10, max_windows=20)
        synthetic_windows(attributor, {"d1": 1.0, "d2": 1.0}, windows=50)
        assert attributor.window_count == 20


class TestAttributionIntegration:
    def test_fraudulent_device_identified_in_full_simulation(self):
        scenario = build(paper_testbed_spec(seed=8))
        scenario.device("device1").tamper_attack = ScalingAttack(0.5)
        scenario.run_until(40.0)
        result = scenario.aggregator("agg1").attribute_anomaly()
        assert result.suspects == ["device1"]
        assert result.alphas["device1"] > 1.5
        assert result.alphas["device2"] == pytest.approx(1.0, abs=0.1)

    def test_honest_network_has_no_suspects(self):
        scenario = build(paper_testbed_spec(seed=9))
        scenario.run_until(40.0)
        result = scenario.aggregator("agg2").attribute_anomaly()
        assert result.suspects == []
