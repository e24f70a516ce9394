"""The one metrics exporter: a world's snapshot and three renderers.

Counts live only in the shared
:class:`~repro.monitoring.counters.CounterBank`; sampled values live in
each aggregator's :class:`~repro.monitoring.timeseries.SeriesBank`.
:func:`snapshot_metrics` reads both into plain data, which renders as
Prometheus text (:func:`render_prometheus`: a ``repro_counter`` counter
family and ``repro_series_last``/``repro_series_samples`` gauges, each
keyed by a ``name`` label so the dynamic counter namespace does not
explode the family namespace) or as ``metrics.jsonl`` records
(:func:`render_jsonl`); :func:`write_series_csv` writes the samples
themselves.  :func:`fold_counters` sums snapshots by name (a
multi-run artifact).  Every output is sorted by name.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitoring.timeseries import SeriesBank

_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}

# Series names become file names on export; everything outside this set
# is replaced so exports work on any filesystem.
_UNSAFE_CHARS = re.compile(r"[^A-Za-z0-9._-]")


def _escape_label(value: str) -> str:
    return "".join(_LABEL_ESCAPES.get(ch, ch) for ch in value)


def _format_value(value: float) -> str:
    # Non-finite samples must use the exposition-format spellings
    # (+Inf/-Inf/NaN) — Python's inf/nan are not parseable Prometheus
    # text.  Integral floats print as integers; everything else uses
    # repr, which round-trips and is stable across runs.
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value.is_integer():
        return str(int(value))
    return repr(value)


def snapshot_metrics(world: Any) -> tuple[dict[str, int], list[dict[str, Any]]]:
    """A scenario's ``(counters, series)``, duck-typed below ``repro.runtime``.

    Reads the ``world.counters`` bank and the
    ``world.monitoring`` banks (aggregator -> bank), whose series are
    named ``<aggregator>.<series>`` with their unit, count and last
    sample.
    """
    series: list[dict[str, Any]] = []
    for aggregator, bank in world.monitoring.items():
        for name in bank.names:
            samples = bank[name]
            series.append(
                {
                    "name": f"{aggregator}.{name}",
                    "unit": samples.unit,
                    "samples": len(samples),
                    "last_time": samples.last_time(),
                    "last_value": samples.last_value(),
                }
            )
    series.sort(key=lambda entry: entry["name"])
    return world.counters.snapshot(), series


def fold_counters(snapshots: Iterable[Mapping[str, int]]) -> dict[str, int]:
    """Sum counter snapshots by name, keys sorted like a snapshot's."""
    totals: dict[str, int] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            totals[name] = totals.get(name, 0) + value
    return {name: totals[name] for name in sorted(totals)}


def render_prometheus(
    counters: dict[str, int], series: list[dict[str, Any]]
) -> str:
    """Snapshotted metrics as Prometheus text exposition."""
    lines: list[str] = []
    lines.append("# HELP repro_counter Monotonic event counters from the run.")
    lines.append("# TYPE repro_counter counter")
    for name, value in sorted(counters.items()):
        lines.append(f'repro_counter{{name="{_escape_label(name)}"}} {value}')
    ordered = sorted(series, key=lambda e: e["name"])
    lines.append("# HELP repro_series_last Last recorded value per time series.")
    lines.append("# TYPE repro_series_last gauge")
    for entry in ordered:
        if entry["last_value"] is None:
            continue
        label = f'name="{_escape_label(entry["name"])}"'
        if entry.get("unit"):
            label += f',unit="{_escape_label(entry["unit"])}"'
        lines.append(f"repro_series_last{{{label}}} {_format_value(entry['last_value'])}")
    lines.append("# HELP repro_series_samples Samples recorded per time series.")
    lines.append("# TYPE repro_series_samples gauge")
    for entry in ordered:
        label = f'name="{_escape_label(entry["name"])}"'
        lines.append(f"repro_series_samples{{{label}}} {entry['samples']}")
    return "\n".join(lines) + "\n"


def _json_sample(value: float | None) -> float | str | None:
    # JSON (RFC 8259) has no NaN or infinity: a non-finite sample is
    # written as its exposition spelling, a string.
    if value is None or math.isfinite(value):
        return value
    return _format_value(value)


def render_jsonl(counters: dict[str, int], series: list[dict[str, Any]]) -> str:
    """Snapshotted metrics as ``metrics.jsonl``: counters, then series.

    A series' non-finite ``last_time``/``last_value`` is the string
    ``"+Inf"``, ``"-Inf"`` or ``"NaN"``, as in ``metrics.prom``.
    """
    records: list[dict[str, Any]] = [
        {"kind": "counter", "name": name, "value": value}
        for name, value in sorted(counters.items())
    ]
    for entry in sorted(series, key=lambda e: e["name"]):
        records.append(
            {
                "kind": "series",
                **entry,
                "last_time": _json_sample(entry["last_time"]),
                "last_value": _json_sample(entry["last_value"]),
            }
        )
    return "".join(
        json.dumps(record, sort_keys=True, allow_nan=False) + "\n" for record in records
    )


def write_series_csv(
    directory: str | Path, banks: Mapping[str, "SeriesBank"]
) -> list[Path]:
    """Write each series of ``banks`` (aggregator -> bank) to
    ``<aggregator>__<series>.csv``: a ``time_s,value_<unit or raw>``
    header, then one row per sample.  Returns the paths written.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for aggregator, bank in banks.items():
        for name in bank.names:
            samples = bank[name]
            path = target / f"{aggregator}__{_UNSAFE_CHARS.sub('_', name)}.csv"
            with path.open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["time_s", f"value_{samples.unit or 'raw'}"])
                for time, value in zip(samples.times, samples.values):
                    writer.writerow([f"{time:.6f}", f"{value:.9g}"])
            written.append(path)
    return written
