"""Self-contained run artifact directories (``--obs-dir``).

One artifact directory describes one observed run or a batch of them
(every world an experiment or sweep built, folded in memory by
:func:`write_artifacts`):

* ``manifest.json`` — format tag, per-run provenance (name, seed, sim
  time, event count, and for a batch the ``part``: the index of the
  sweep point or experiment that built the run), file list.
* ``spans.jsonl`` — every recorded span, protocol conversations and
  trace points alike, one JSON object per line, in begin order.
* ``metrics.prom`` / ``metrics.jsonl`` — the run's counters and series,
  snapshotted and rendered by :mod:`repro.obs.metrics`.
* ``profile.json`` — the kernel profiler snapshot (``{"enabled":
  false}`` when profiling was off).

Folding is deterministic given the run order: spans concatenate with a
``run`` index, counters sum by name, series entries are namespaced
``run<i>.``, and profile stats sum (max of maxes).  Wall-clock numbers
in ``profile.json`` vary run to run by nature; the event counts and
everything else in the directory are reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs.metrics import (
    fold_counters,
    render_jsonl,
    render_prometheus,
    snapshot_metrics,
)

FORMAT = "repro-obs/1"
FILES = ("manifest.json", "spans.jsonl", "metrics.prom", "metrics.jsonl", "profile.json")


@dataclass
class RunArtifact:
    """Everything observable collected from one finished scenario."""

    name: str
    seed: int
    sim_time: float
    events: int
    spans: list[dict[str, Any]]
    counters: dict[str, int]
    series: list[dict[str, Any]]
    profile: dict[str, Any]
    part: int | None = None

    def run_entry(self) -> dict[str, Any]:
        entry = {
            "name": self.name,
            "seed": self.seed,
            "sim_time": self.sim_time,
            "events": self.events,
            "spans": len(self.spans),
        }
        if self.part is not None:
            entry["part"] = self.part
        return entry


def collect_scenario(scenario: Any) -> RunArtifact:
    """Snapshot a (typically finished) scenario into a :class:`RunArtifact`.

    ``scenario`` is duck-typed (this module must not import
    ``repro.runtime``): anything with ``simulator``, ``counters``,
    ``monitoring`` and optionally ``spec`` works.
    """
    sim = scenario.simulator
    counters, series = snapshot_metrics(scenario)
    profiler = getattr(sim, "profiler", None)
    spec = getattr(scenario, "spec", None)
    return RunArtifact(
        name=spec.name if spec is not None else "scenario",
        seed=sim.rng.master_seed,
        sim_time=sim.now,
        events=sim.events_executed,
        spans=sim.spans.to_dicts(),
        counters=counters,
        series=series,
        profile=profiler.snapshot() if profiler is not None else {"enabled": False},
    )


def write_artifacts(
    directory: str | Path, artifacts: list[RunArtifact]
) -> dict[str, Path]:
    """Fold one or more runs into one artifact directory; returns file paths.

    With several runs (an experiment or sweep that builds several
    worlds), spans gain a ``run`` index and series names a ``run<i>.``
    prefix, both in list order, so nothing collides; a single run is
    stored verbatim.  Counters sum by name and profiles merge
    (:func:`merge_profiles`).  No runs still writes a valid, empty
    directory.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    many = len(artifacts) > 1
    series: list[dict[str, Any]] = []
    for index, artifact in enumerate(artifacts):
        series.extend(
            {**entry, "name": f"run{index}.{entry['name']}"} if many else entry
            for entry in artifact.series
        )
    counters = fold_counters(a.counters for a in artifacts)
    manifest = {
        "format": FORMAT,
        "runs": [a.run_entry() for a in artifacts],
        "files": [name for name in FILES if name != "manifest.json"],
    }
    paths = {name: target / name for name in FILES}
    paths["manifest.json"].write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    with paths["spans.jsonl"].open("w") as handle:
        for index, artifact in enumerate(artifacts):
            for span in artifact.spans:
                record = {**span, "run": index} if many else span
                handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
    paths["metrics.prom"].write_text(render_prometheus(counters, series))
    paths["metrics.jsonl"].write_text(render_jsonl(counters, series))
    paths["profile.json"].write_text(
        json.dumps(
            merge_profiles([a.profile for a in artifacts]), indent=2, sort_keys=True
        )
        + "\n"
    )
    return paths


def merge_profiles(profiles: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum profiler snapshots: counts/totals add, maxes take the max.

    Device-equivalent counts (``weighted_events`` and each key's
    ``weighted``, which a snapshot omits when they equal the plain
    count) sum too, and are emitted under the same omission rule.
    Per-label breakdowns and events/sec samples survive a single-run
    "merge" untouched; across several runs the label and sample detail
    is dropped (actor/event-type aggregates remain) to keep merged
    artifacts bounded.
    """
    live = [p for p in profiles if p.get("enabled")]
    if not live:
        return {"enabled": False}
    if len(live) == 1 and len(profiles) == 1:
        return live[0]
    events = sum(p.get("events", 0) for p in live)
    weighted = sum(p.get("weighted_events", p.get("events", 0)) for p in live)
    wall_s = round(sum(p.get("wall_s", 0.0) for p in live), 6)
    merged: dict[str, Any] = {
        "enabled": True,
        "events": events,
        "wall_s": wall_s,
        "merged": len(live),
        "events_per_s": int(events / wall_s) if wall_s > 0 else 0,
    }
    if weighted != events:
        merged["weighted_events"] = weighted
        merged["weighted_events_per_s"] = int(weighted / wall_s) if wall_s > 0 else 0
    for table_name in ("by_actor", "by_event_type"):
        table: dict[str, dict[str, Any]] = {}
        for profile in live:
            for key, stats in profile.get(table_name, {}).items():
                agg = table.setdefault(
                    key,
                    {"count": 0, "weighted": 0, "total_s": 0.0, "max_s": 0.0, "hist_log2_us": []},
                )
                agg["count"] += stats["count"]
                agg["weighted"] += stats.get("weighted", stats["count"])
                agg["total_s"] = round(agg["total_s"] + stats["total_s"], 9)
                agg["max_s"] = max(agg["max_s"], stats["max_s"])
                hist = agg["hist_log2_us"]
                other = stats["hist_log2_us"]
                if len(other) > len(hist):
                    hist.extend([0] * (len(other) - len(hist)))
                for i, n in enumerate(other):
                    hist[i] += n
        for agg in table.values():
            if agg["weighted"] == agg["count"]:
                del agg["weighted"]
        merged[table_name] = {k: table[k] for k in sorted(table)}
    return merged
