"""CPU budget helpers shared by every multi-process executor.

CI containers (and cgroup-limited deployments generally) often expose
fewer *schedulable* CPUs than ``os.cpu_count()`` reports — the machine
may have 64 cores while the container is pinned to 2.  Sizing worker
pools from ``cpu_count()`` there oversubscribes the allowance and every
worker runs slower than the serial path.  ``sched_getaffinity`` reports
the schedulable set, so it is the number that actually bounds useful
parallelism; platforms without it (macOS) fall back to ``cpu_count()``.
"""

from __future__ import annotations

import os


def available_cpus() -> int:
    """Number of CPUs this process may actually be scheduled on."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1
