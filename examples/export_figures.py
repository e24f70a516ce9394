#!/usr/bin/env python3
"""Export the paper's figures as data + HTML artifacts.

Produces an ``artifacts/`` directory next to this script containing:

* ``fig5.csv`` — the per-interval decentralized-vs-centralized table,
* ``fig6.csv`` — the mobility timeline as received at Aggregator 1,
* ``agg1.html`` / ``agg2.html`` — self-contained dashboard pages with
  SVG charts of every monitored series (the Grafana substitute's
  shareable output),
* ``trace.jsonl`` — the span stream (conversations and trace points)
  of the 30 s paper-testbed world behind the dashboards.

Run:  python examples/export_figures.py [output_dir]
"""

import csv
import dataclasses
import sys
from pathlib import Path

from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.monitoring.html import save_dashboard_html
from repro.runtime import ObsSpec, build
from repro.workloads.scenarios import paper_testbed_spec


def export_fig5(out: Path) -> Path:
    result = run_fig5(seed=0)
    path = out / "fig5.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["network", "t_start_s", "device_sum_ma", "aggregator_ma", "gap_pct"]
        )
        for row in result.rows:
            writer.writerow(
                [row.network, row.start, f"{row.device_sum_ma:.4f}",
                 f"{row.aggregator_ma:.4f}", f"{row.gap_pct:.4f}"]
            )
    return path


def export_fig6(out: Path) -> list[Path]:
    result = run_fig6(seed=0)
    timeline = out / "fig6.csv"
    with timeline.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["arrival_time_s", "current_ma"])
        for t, v in zip(result.arrival_times, result.arrival_values):
            writer.writerow([f"{t:.4f}", f"{v:.4f}"])
    return [timeline]


def export_dashboards(out: Path) -> list[Path]:
    spec = paper_testbed_spec(seed=0)
    scenario = build(dataclasses.replace(spec, obs=ObsSpec(enabled=True, profile=False)))
    scenario.run_until(30.0)
    written = []
    for name, unit in scenario.aggregators.items():
        written.append(
            save_dashboard_html(
                unit.monitoring, out / f"{name}.html", title=f"{name} monitoring"
            )
        )
    with (out / "trace.jsonl").open("w") as handle:
        count = scenario.simulator.spans.save_jsonl(handle)
    print(f"trace.jsonl: {count} spans")
    written.append(out / "trace.jsonl")
    return written


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "artifacts"
    out.mkdir(parents=True, exist_ok=True)
    written = [export_fig5(out)]
    written += export_fig6(out)
    written += export_dashboards(out)
    print("wrote:")
    for path in written:
        print(f"  {path}  ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
