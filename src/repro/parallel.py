"""The one executor for independent runs: sweep points and experiments.

:func:`run_in_order` maps a call over items, serially or on one process
pool, and collects results in submission order, so the output never
depends on worker scheduling.  With an ``obs_dir`` every item runs under
a capture session (:func:`repro.obs.session.observed`) and the parent
folds the worlds of all items, in submission order, into one artifact
directory — identical for any worker count.

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
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import ExperimentError


def available_cpus() -> int:
    """Number of CPUs this process may actually be scheduled on."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def run_in_order(
    call: Callable[[Any], Any],
    items: Sequence[Any],
    workers: int | None,
    label: str,
    obs_dir: str | Path | None = None,
) -> list[Any]:
    """``[call(item) for item in items]``, on up to ``workers`` processes.

    ``workers=None`` autodetects :func:`available_cpus`.  With more than
    one worker and item, ``call`` must be picklable (module-level), and a
    failure in a worker re-raises as :class:`ExperimentError` naming the
    ``label`` and item.  With ``obs_dir``, every world the calls build is
    observed and written to ``obs_dir`` as one artifact, each manifest
    run tagged with the index (``part``) of the item that built it.
    """
    if workers is None:
        workers = available_cpus()
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
    task = call
    if obs_dir is not None:
        from repro.obs.session import observed

        task = partial(observed, call)
    if workers == 1 or len(items) <= 1:
        outcomes = [task(item) for item in items]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(task, item) for item in items]
            outcomes = []
            for item, future in zip(items, futures):
                try:
                    outcomes.append(future.result())
                except ExperimentError:
                    raise
                except Exception as exc:
                    raise ExperimentError(
                        f"{label} {item!r} failed in worker: {exc!r}"
                    ) from exc
    if obs_dir is None:
        return outcomes
    from repro.obs.artifacts import write_artifacts

    artifacts = []
    for part, (_, built) in enumerate(outcomes):
        for artifact in built:
            artifact.part = part
            artifacts.append(artifact)
    write_artifacts(obs_dir, artifacts)
    return [result for result, _ in outcomes]
