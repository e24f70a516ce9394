"""Observability: spans, unified metrics, kernel profiling, artifacts.

The reproduction's answer to the testbed's Grafana: a cross-cutting
layer that records *protocol conversations* as parent/child spans and
every actor's trace points as point events in the same stream
(:mod:`repro.obs.spans`), snapshots the counter and series banks once
and renders them as Prometheus text, JSONL or per-series CSV
(:mod:`repro.obs.metrics`, the one metrics exporter), times the kernel's event
loop per actor and event type (:mod:`repro.obs.profiler`), and packages
a run into a self-contained artifact directory — ``spans.jsonl``,
``metrics.prom``, ``metrics.jsonl``, ``profile.json``, ``manifest.json``
(:mod:`repro.obs.artifacts`, validated by :mod:`repro.obs.validate`).

Everything defaults to off and is engineered for zero overhead when
disabled: the span tracer method-swaps to no-ops, and the kernel's one
run loop pays a single ``is None`` test per event when no profiler is
installed.

Import-graph note: the kernel imports :mod:`repro.obs.spans`, so this
package sits *below* ``repro.sim`` and must not import it (or
``repro.runtime``) at module level.
"""

from repro.obs.artifacts import (
    RunArtifact,
    collect_scenario,
    merge_profiles,
    write_artifacts,
)
from repro.obs.profiler import KernelProfiler
from repro.obs.session import ObsSession, active, capture
from repro.obs.spans import Span, SpanTracer

__all__ = [
    "KernelProfiler",
    "ObsSession",
    "RunArtifact",
    "Span",
    "SpanTracer",
    "active",
    "capture",
    "collect_scenario",
    "merge_profiles",
    "write_artifacts",
]
