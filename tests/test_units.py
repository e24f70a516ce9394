"""Tests for repro.units."""

import math

import pytest

from repro.errors import ConfigError
from repro.units import energy_mwh, power_mw


class TestPowerEnergy:
    def test_power_ma_times_v_is_mw(self):
        # 100 mA at 3.3 V is 330 mW.
        assert power_mw(100.0, 3.3) == pytest.approx(330.0)

    def test_energy_one_hour(self):
        # 100 mA at 5 V for one hour is 500 mWh.
        assert energy_mwh(100.0, 5.0, 3600.0) == pytest.approx(500.0)

    def test_energy_100ms_window(self):
        # The paper's T_measure: 100 ms windows.
        value = energy_mwh(100.0, 5.0, 0.1)
        assert value == pytest.approx(500.0 * 0.1 / 3600.0)

    def test_energy_zero_duration(self):
        assert energy_mwh(100.0, 5.0, 0.0) == 0.0

    def test_energy_negative_duration_rejected(self):
        with pytest.raises(ConfigError):
            energy_mwh(100.0, 5.0, -1.0)


class TestMisc:
    def test_energy_is_finite_for_normal_inputs(self):
        assert math.isfinite(energy_mwh(400.0, 5.0, 86400.0))
