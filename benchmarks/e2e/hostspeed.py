"""Host speed references: fixed pure-Python work timed next to the measured work.

On a shared virtual machine the CPU's speed swings by tens of percent,
and up to 2x, for seconds to minutes at a time, longer than one run, so
the runs of a set land in different phases.  The benchmark therefore
times reference work next to the measured work and scales the measured
times to a host where the reference takes a fixed time.  The reference
uses only the standard library, never the program, so a change to the
program cannot move it.  README.md ("Host speed scaling") gives the
measured effect on the spread.

* :func:`probe_ms` — object churn, a heap, dict updates, canonical JSON
  and SHA-256 on a few hundred items, timed in the process doing the
  measured work, between its timed steps.  A time scaled by
  :func:`scale` reads as it would on a host where the probe takes
  ``PROBE_REFERENCE_MS``.
* :func:`reference_setup` — library imports and an object graph in a
  fresh process (``python -m benchmarks.e2e.hostspeed``), timed just
  before each set-up sample; a set-up sample is scaled to a host where
  it takes ``REFERENCE_SETUP_S``.  Set-up is a fresh process's start,
  imports and object building, which the in-process probe does not
  track.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import statistics
import time

# The probe's time at which scaled and raw times agree.
PROBE_REFERENCE_MS = 0.3
# A probe is the fastest of this many back-to-back runs, so a timer
# interrupt or a descheduling does not read as a slow host.
PROBE_REPEATS = 3
ITEMS = 260
# The reference set-up takes 0.16-0.25 s on the 2-vCPU Xeon VM these
# numbers come from; set-up samples are scaled to a host where it takes
# this long.
REFERENCE_SETUP_S = 0.2
REFERENCE_RECORDS = 60_000


class _Item:
    __slots__ = ("key", "bucket", "value")

    def __init__(self, i: int) -> None:
        self.key = (i * 7919) % 1009
        self.bucket = f"b{i % 37}"
        self.value = i * 0.5


def _compute() -> str:
    heap = []
    for i in range(ITEMS):
        item = _Item(i)
        heapq.heappush(heap, (item.key, i, item))
    totals: dict[str, float] = {}
    while heap:
        _, _, item = heapq.heappop(heap)
        totals[item.bucket] = totals.get(item.bucket, 0.0) + item.value
    return hashlib.sha256(json.dumps(totals, sort_keys=True).encode()).hexdigest()


def probe_ms() -> float:
    """One probe: the fastest of ``PROBE_REPEATS`` timed runs, in ms."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _compute()
        best = min(best, (time.perf_counter() - start) * 1000.0)
    return best


def scale(probes_ms: list[float]) -> float:
    """Factor turning times measured next to ``probes_ms`` into reference times."""
    return PROBE_REFERENCE_MS / statistics.fmean(probes_ms)


class _Record:
    __slots__ = ("key", "fields", "links")

    def __init__(self, i: int) -> None:
        self.key = i
        self.fields = {"name": f"r{i}", "value": i * 0.25}
        self.links = [i, i + 1]


def reference_setup() -> int:
    """Fixed set-up work for a fresh process: library imports, an object graph."""
    import argparse  # noqa: F401
    import csv  # noqa: F401
    import dataclasses  # noqa: F401
    import decimal  # noqa: F401
    import email.parser  # noqa: F401
    import http.client  # noqa: F401
    import http.server  # noqa: F401
    import ipaddress  # noqa: F401
    import logging  # noqa: F401
    import typing  # noqa: F401
    import urllib.parse  # noqa: F401
    import uuid  # noqa: F401

    index = {f"r{i}": _Record(i) for i in range(REFERENCE_RECORDS)}
    return len(index)


if __name__ == "__main__":
    reference_setup()
    # ``built_at`` as for a world: the parent times spawn -> built.
    print(json.dumps({"built_at": time.monotonic()}))
