"""Kernel profiling: where a run spends its wall-clock time.

The profiler records; it does not run.  :meth:`Simulator._execute` is
the only event loop: with a profiler installed it wraps every callback
in ``perf_counter`` and hands ``(label, elapsed_s, now)`` to
:meth:`KernelProfiler.record`.  With none installed the loop pays one
``is None`` test per event.

What it records, keyed by event label:

* count / total / max wall seconds per label,
* a power-of-two microsecond histogram per label (bucket ``b`` holds
  callbacks with ``2^(b-1) <= µs < 2^b``),
* periodic events-per-second samples, every :data:`SAMPLE_EVERY`
  recorded events counted across run calls.

Snapshots aggregate labels two ways.  The **actor** is the label prefix
before the first ``:`` (labels follow ``"{actor}:{purpose}"``).  The
**event type** is the suffix, normalised so per-entity detail collapses:
an MQTT topic keeps only its last path segment, and backhaul routes
(``a->b``) collapse to ``send``.

Determinism note: wall-clock fields are inherently run-dependent; the
``events`` counts are deterministic.  Artifact merge tooling relies only
on the latter.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

HIST_BUCKETS = 32
#: Recorded events between events-per-second samples.
SAMPLE_EVERY = 10_000


class _LabelStats:
    __slots__ = ("count", "weighted", "total_s", "max_s", "hist")

    def __init__(self) -> None:
        self.count = 0
        self.weighted = 0
        self.total_s = 0.0
        self.max_s = 0.0
        self.hist = [0] * HIST_BUCKETS

    def add(self, elapsed: float, weight: int = 1) -> None:
        self.count += 1
        self.weighted += weight
        self.total_s += elapsed
        if elapsed > self.max_s:
            self.max_s = elapsed
        bucket = int(elapsed * 1e6).bit_length()
        self.hist[bucket if bucket < HIST_BUCKETS else HIST_BUCKETS - 1] += 1

    def merge(self, other: "_LabelStats") -> None:
        self.count += other.count
        self.weighted += other.weighted
        self.total_s += other.total_s
        if other.max_s > self.max_s:
            self.max_s = other.max_s
        for i, n in enumerate(other.hist):
            self.hist[i] += n

    def to_dict(self) -> dict[str, Any]:
        # Trim trailing empty buckets so artifacts stay readable.
        hist = self.hist
        top = HIST_BUCKETS
        while top > 0 and hist[top - 1] == 0:
            top -= 1
        payload = {
            "count": self.count,
            "total_s": round(self.total_s, 9),
            "max_s": round(self.max_s, 9),
            "hist_log2_us": hist[:top],
        }
        # Only weighted labels (cohort events standing in for many
        # device-equivalents) emit the extra key — unweighted profiles
        # keep their historical shape.
        if self.weighted != self.count:
            payload["weighted"] = self.weighted
        return payload


def _event_type(label: str) -> str:
    """Collapse a per-entity event label to its event type."""
    if not label:
        return "(unlabelled)"
    _, sep, suffix = label.partition(":")
    if not sep:
        return label
    if "->" in suffix:
        return "send"
    if "/" in suffix:
        return suffix.rsplit("/", 1)[-1]
    return suffix


class KernelProfiler:
    """Collects per-label wall-clock stats from the kernel's run loop.

    Install with :meth:`Simulator.set_profiler`; remove by installing
    ``None``.  The kernel calls :meth:`start_run`/:meth:`end_run`
    around each run call and :meth:`record` after each callback.  One
    profiler may span several ``run_until`` calls — the stats
    accumulate.
    """

    def __init__(self) -> None:
        self._by_label: dict[str, _LabelStats] = {}
        self._events = 0
        self._weighted_events = 0
        self._wall_s = 0.0
        self._run_start = 0.0
        self._samples: list[dict[str, Any]] = []
        self._weights: dict[str, Any] = {}

    @property
    def events(self) -> int:
        return self._events

    @property
    def weighted_events(self) -> int:
        """Device-equivalent event count (== :attr:`events` unless a
        weight provider inflated cohort events)."""
        return self._weighted_events

    def set_weight(self, label: str, provider: Any) -> None:
        """Register a per-event weight for ``label``.

        ``provider`` is a zero-arg callable returning how many
        device-equivalent events one callback with this label stands
        for (a vectorized cohort tick counts ``len(cohort)``, not 1).
        It is invoked *after* the callback returns, so it observes the
        post-event cohort size.  Pass ``None`` to unregister.
        """
        if provider is None:
            self._weights.pop(label, None)
        else:
            self._weights[label] = provider

    # -- the kernel's hooks ------------------------------------------------

    def start_run(self) -> None:
        """A run call begins: start its wall clock."""
        self._run_start = perf_counter()

    def end_run(self) -> None:
        """A run call ends (normally or by raising): bank its wall time."""
        self._wall_s += perf_counter() - self._run_start

    def record(self, label: str, elapsed_s: float, now: float) -> None:
        """One callback with ``label`` ran for ``elapsed_s`` at sim time ``now``.

        Every :data:`SAMPLE_EVERY`-th recorded event appends an
        events-per-second sample; the count spans run calls, so a world
        advanced in short steps samples as often as one long run.
        """
        stats = self._by_label.get(label)
        if stats is None:
            stats = self._by_label[label] = _LabelStats()
        provider = self._weights.get(label) if self._weights else None
        weight = 1 if provider is None else int(provider())
        stats.add(elapsed_s, weight)
        self._weighted_events += weight
        self._events = events = self._events + 1
        if events % SAMPLE_EVERY == 0:
            wall = self._wall_s + (perf_counter() - self._run_start)
            self._samples.append(
                {
                    "events": events,
                    "sim_time": now,
                    "wall_s": round(wall, 6),
                    "events_per_s": int(events / wall) if wall > 0 else 0,
                }
            )

    # -- reporting -----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The ``profile.json`` payload: totals plus three breakdowns."""
        by_actor: dict[str, _LabelStats] = {}
        by_type: dict[str, _LabelStats] = {}
        for label, stats in self._by_label.items():
            actor = label.partition(":")[0] if label else "(unlabelled)"
            for key, table in ((actor, by_actor), (_event_type(label), by_type)):
                agg = table.get(key)
                if agg is None:
                    agg = table[key] = _LabelStats()
                agg.merge(stats)
        payload = {
            "enabled": True,
            "events": self._events,
            "wall_s": round(self._wall_s, 6),
            "events_per_s": int(self._events / self._wall_s) if self._wall_s > 0 else 0,
            "by_actor": {k: by_actor[k].to_dict() for k in sorted(by_actor)},
            "by_event_type": {k: by_type[k].to_dict() for k in sorted(by_type)},
            "by_label": {
                k: self._by_label[k].to_dict() for k in sorted(self._by_label)
            },
            "samples": list(self._samples),
        }
        if self._weighted_events != self._events:
            payload["weighted_events"] = self._weighted_events
            payload["weighted_events_per_s"] = (
                int(self._weighted_events / self._wall_s) if self._wall_s > 0 else 0
            )
        return payload
