"""Tests for time series, dashboards and exports."""

import pytest

from repro.errors import ConfigError
from repro.monitoring import (
    SeriesBank,
    TimeSeries,
    render_dashboard,
    render_series,
)
from repro.monitoring.dashboards import sparkline
from repro.obs.metrics import write_series_csv


def filled_series(n=10, step=1.0):
    series = TimeSeries("test", "mA")
    for i in range(n):
        series.append(i * step, float(i))
    return series


class TestTimeSeries:
    def test_append_and_len(self):
        assert len(filled_series(5)) == 5

    def test_times_must_be_non_decreasing(self):
        series = TimeSeries("x")
        series.append(1.0, 1.0)
        series.append(1.0, 2.0)  # equal is fine
        with pytest.raises(ConfigError):
            series.append(0.5, 3.0)

    def test_window_half_open(self):
        series = filled_series(10)
        times, values = series.window(2.0, 5.0)
        assert times == [2.0, 3.0, 4.0]
        assert values == [2.0, 3.0, 4.0]

    def test_mean_full_and_windowed(self):
        series = filled_series(10)
        assert series.mean() == pytest.approx(4.5)
        assert series.mean(0.0, 2.0) == pytest.approx(0.5)

    def test_mean_empty_is_zero(self):
        assert TimeSeries("x").mean() == 0.0

    def test_integrate_trapezoid(self):
        series = TimeSeries("x")
        for t in range(5):
            series.append(float(t), 2.0)
        assert series.integrate(0.0, 4.5) == pytest.approx(8.0)

    def test_last_value(self):
        assert filled_series(3).last_value() == 2.0
        assert TimeSeries("x").last_value() is None
        assert filled_series(3, step=0.5).last_time() == 1.0
        assert TimeSeries("x").last_time() is None

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            TimeSeries("")


class TestSeriesBank:
    def test_get_or_create(self):
        bank = SeriesBank()
        a = bank.series("a", "mA")
        assert bank.series("a") is a
        assert "a" in bank

    def test_record_appends(self):
        bank = SeriesBank()
        bank.record("x", 1.0, 5.0)
        bank.record("x", 2.0, 6.0)
        assert len(bank["x"]) == 2

    def test_unknown_lookup_rejected(self):
        with pytest.raises(ConfigError):
            SeriesBank()["missing"]

    def test_names_in_creation_order(self):
        bank = SeriesBank()
        bank.record("b", 0.0, 0.0)
        bank.record("a", 0.0, 0.0)
        assert bank.names == ["b", "a"]

    def test_conflicting_unit_rejected(self):
        bank = SeriesBank()
        bank.series("load", "mA")
        with pytest.raises(ConfigError):
            bank.series("load", "mWh")
        with pytest.raises(ConfigError):
            bank.record("load", 0.0, 1.0, unit="V")

    def test_empty_unit_is_wildcard_and_adopts(self):
        bank = SeriesBank()
        bank.record("load", 0.0, 1.0)  # created unitless
        bank.record("load", 1.0, 2.0, unit="mA")  # adopts the unit
        assert bank["load"].unit == "mA"
        bank.record("load", 2.0, 3.0)  # wildcard still matches
        with pytest.raises(ConfigError):
            bank.record("load", 3.0, 4.0, unit="mW")


class TestDashboards:
    def test_sparkline_length_and_chars(self):
        line = sparkline([float(i) for i in range(100)], width=40)
        assert len(line) == 40

    def test_sparkline_flat_series(self):
        assert set(sparkline([5.0] * 10)) == {"▁"}

    def test_sparkline_empty(self):
        assert sparkline([]) == "(empty)"

    def test_render_series_includes_stats(self):
        text = render_series(filled_series())
        assert "test" in text and "mean" in text and "mA" in text

    def test_render_dashboard(self):
        bank = SeriesBank()
        bank.record("one", 0.0, 1.0)
        bank.record("two", 0.0, 2.0)
        text = render_dashboard(bank)
        assert "one" in text and "two" in text

    def test_render_empty_dashboard(self):
        assert "no series" in render_dashboard(SeriesBank())


class TestExport:
    def test_csv_has_header_and_rows(self, tmp_path):
        bank = SeriesBank()
        bank.record("received:device1", 0.0, 1.0, unit="mA")
        bank.record("received:device1", 1.0, 2.5)
        (path,) = write_series_csv(tmp_path, {"agg1": bank})
        assert path == tmp_path / "agg1__received_device1.csv"
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time_s,value_mA"
        assert lines[1:] == ["0.000000,1", "1.000000,2.5"]
