"""Self-contained run artifact directories (``--obs-dir``).

One artifact directory describes one observed run (or a deterministic
merge of several):

* ``manifest.json`` — format tag, per-run provenance (name, seed, sim
  time, event count), file list.
* ``spans.jsonl`` — every recorded span, protocol conversations and
  trace points alike, one JSON object per line, in begin order.
* ``metrics.prom`` / ``metrics.jsonl`` — the run's counters and series,
  snapshotted and rendered by :mod:`repro.obs.metrics`.
* ``profile.json`` — the kernel profiler snapshot (``{"enabled":
  false}`` when profiling was off).

Merging is deterministic given the input directory order: spans
concatenate with a ``part`` index, counters sum by name, series entries
are namespaced ``part<i>.``, and profile stats sum (max of maxes).
Wall-clock numbers in ``profile.json`` vary run to run by nature; the
event counts and everything else in the directory are reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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

    def run_entry(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "sim_time": self.sim_time,
            "events": self.events,
            "spans": len(self.spans),
        }


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


@dataclass
class ArtifactBundle:
    """The written form of one artifact directory, before serialization."""

    spans: list[dict[str, Any]] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    series: list[dict[str, Any]] = field(default_factory=list)
    profile: dict[str, Any] = field(default_factory=lambda: {"enabled": False})
    runs: list[dict[str, Any]] = field(default_factory=list)
    merged_from: list[str] = field(default_factory=list)


def bundle_artifacts(artifacts: list[RunArtifact]) -> ArtifactBundle:
    """Fold one or more in-process runs into a single bundle.

    With several runs (an experiment that builds multiple worlds),
    spans gain a ``run`` index and series names a ``run<i>.`` prefix so
    nothing collides; a single run is stored verbatim.
    """
    bundle = ArtifactBundle()
    many = len(artifacts) > 1
    for index, artifact in enumerate(artifacts):
        for span in artifact.spans:
            bundle.spans.append({**span, "run": index} if many else span)
        for entry in artifact.series:
            bundle.series.append(
                {**entry, "name": f"run{index}.{entry['name']}"} if many else entry
            )
        bundle.runs.append(artifact.run_entry())
    bundle.counters = fold_counters(a.counters for a in artifacts)
    bundle.profile = merge_profiles([a.profile for a in artifacts])
    return bundle


def write_bundle(directory: str | Path, bundle: ArtifactBundle) -> dict[str, Path]:
    """Serialize ``bundle`` into ``directory``; returns file paths."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, Any] = {
        "format": FORMAT,
        "runs": bundle.runs,
        "files": [name for name in FILES if name != "manifest.json"],
    }
    if bundle.merged_from:
        manifest["merged_from"] = bundle.merged_from
    paths = {name: target / name for name in FILES}
    paths["manifest.json"].write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    paths["spans.jsonl"].write_text(
        "".join(
            json.dumps(span, sort_keys=True, default=str) + "\n"
            for span in bundle.spans
        )
    )
    paths["metrics.prom"].write_text(
        render_prometheus(bundle.counters, bundle.series)
    )
    paths["metrics.jsonl"].write_text(render_jsonl(bundle.counters, bundle.series))
    paths["profile.json"].write_text(
        json.dumps(bundle.profile, indent=2, sort_keys=True) + "\n"
    )
    return paths


def write_artifacts(
    directory: str | Path, artifacts: list[RunArtifact]
) -> dict[str, Path]:
    """Collect-and-write convenience: one directory from 1+ runs."""
    return write_bundle(directory, bundle_artifacts(artifacts))


def read_bundle(directory: str | Path) -> ArtifactBundle:
    """Parse an artifact directory back into an :class:`ArtifactBundle`."""
    source = Path(directory)
    manifest = json.loads((source / "manifest.json").read_text())
    spans = [
        json.loads(line)
        for line in (source / "spans.jsonl").read_text().splitlines()
        if line
    ]
    counters: dict[str, int] = {}
    series: list[dict[str, Any]] = []
    for line in (source / "metrics.jsonl").read_text().splitlines():
        if not line:
            continue
        record = json.loads(line)
        if record.get("kind") == "counter":
            counters[record["name"]] = record["value"]
        elif record.get("kind") == "series":
            entry = {k: v for k, v in record.items() if k != "kind"}
            series.append(entry)
    return ArtifactBundle(
        spans=spans,
        counters=counters,
        series=series,
        profile=json.loads((source / "profile.json").read_text()),
        runs=manifest.get("runs", []),
        merged_from=manifest.get("merged_from", []),
    )


def merge_artifact_dirs(
    dirs: list[str | Path], out_dir: str | Path
) -> dict[str, Path]:
    """Merge per-worker artifact directories into one, deterministically.

    The result depends only on the *order* of ``dirs`` (callers pass
    submission order), never on worker scheduling: spans concatenate
    with a ``part`` index, counters sum, series entries are renamed
    ``part<i>.<name>``, profiles sum their deterministic counts (the
    wall-clock fields sum too, which is the meaningful aggregate).
    """
    merged = ArtifactBundle()
    parts = [read_bundle(directory) for directory in dirs]
    for index, (directory, part) in enumerate(zip(dirs, parts)):
        merged.spans.extend({**span, "part": index} for span in part.spans)
        merged.series.extend(
            {**entry, "name": f"part{index}.{entry['name']}"} for entry in part.series
        )
        merged.runs.extend({**run, "part": index} for run in part.runs)
        merged.merged_from.append(Path(directory).name)
    merged.counters = fold_counters(part.counters for part in parts)
    merged.profile = merge_profiles([part.profile for part in parts])
    return write_bundle(out_dir, merged)


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
