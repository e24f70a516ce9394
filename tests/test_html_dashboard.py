"""Tests for the HTML dashboard export."""

import pytest

from repro.errors import ConfigError
from repro.monitoring import SeriesBank
from repro.monitoring.html import (
    render_dashboard_html,
    render_series_html,
    save_dashboard_html,
)
from repro.runtime import build
from repro.workloads.scenarios import paper_testbed_spec


def filled_bank():
    bank = SeriesBank()
    for t in range(50):
        bank.record("feeder", t * 0.1, 100.0 + t, "mA")
        bank.record("received:device1", t * 0.1, 50.0, "mA")
    return bank


class TestHtmlRendering:
    def test_page_structure(self):
        page = render_dashboard_html(filled_bank(), title="t<est")
        assert page.startswith("<!DOCTYPE html>")
        assert "t&lt;est" in page  # escaped title
        assert page.count('<div class="panel">') == 2
        assert "polyline" in page

    def test_series_panel_contains_stats(self):
        bank = filled_bank()
        panel = render_series_html(bank["feeder"])
        assert "feeder" in panel
        assert "n=50" in panel
        assert "mA" in panel

    def test_empty_series_panel(self):
        bank = SeriesBank()
        bank.series("empty", "mA")
        panel = render_series_html(bank["empty"])
        assert "n=0" in panel

    def test_empty_bank_page(self):
        page = render_dashboard_html(SeriesBank())
        assert "no series recorded" in page

    def test_points_scale_into_viewbox(self):
        bank = filled_bank()
        panel = render_series_html(bank["feeder"])
        points = panel.split('points="')[1].split('"')[0]
        coords = [tuple(map(float, p.split(","))) for p in points.split()]
        assert all(0 <= x <= 800 and 0 <= y <= 140 for x, y in coords)

    def test_long_series_downsampled(self):
        bank = SeriesBank()
        for t in range(20000):
            bank.record("big", t * 0.01, float(t % 37))
        panel = render_series_html(bank["big"])
        points = panel.split('points="')[1].split('"')[0]
        assert len(points.split()) <= 900

    def test_save_dashboard(self, tmp_path):
        path = save_dashboard_html(filled_bank(), tmp_path / "dash.html")
        assert path.exists()
        assert "<svg" in path.read_text()

    def test_save_requires_html_suffix(self, tmp_path):
        with pytest.raises(ConfigError):
            save_dashboard_html(filled_bank(), tmp_path / "dash.txt")

    def test_export_from_real_run(self, tmp_path):
        scenario = build(paper_testbed_spec(seed=6))
        scenario.run_until(10.0)
        bank = scenario.aggregator("agg1").monitoring
        path = save_dashboard_html(bank, tmp_path / "agg1.html", title="agg1")
        text = path.read_text()
        assert "feeder" in text
        assert "received:device1" in text.replace("&#x27;", "'") or "received" in text
