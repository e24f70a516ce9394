"""Monitoring — the reproduction's Grafana substitute.

The testbed used Grafana to watch live transmissions; here a
:class:`~repro.monitoring.timeseries.TimeSeries` records any named
quantity over simulated time, a :class:`CounterBank` is the one store of
named counts, and :mod:`repro.monitoring.dashboards` renders text
sparkline dashboards.  Both stores are exported by
:mod:`repro.obs.metrics` (Prometheus text, JSONL, per-series CSV).
"""

from repro.monitoring.alerts import Alert, AlertCondition, AlertManager, AlertRule
from repro.monitoring.counters import CounterBank
from repro.monitoring.dashboards import render_dashboard, render_series
from repro.monitoring.html import render_dashboard_html, save_dashboard_html
from repro.monitoring.timeseries import SeriesBank, TimeSeries

__all__ = [
    "Alert",
    "AlertCondition",
    "AlertManager",
    "AlertRule",
    "CounterBank",
    "render_dashboard",
    "render_dashboard_html",
    "render_series",
    "save_dashboard_html",
    "SeriesBank",
    "TimeSeries",
]
