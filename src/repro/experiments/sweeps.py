"""Generic parameter-sweep helper for experiments.

A sweep maps a parameter grid over a run function and collects rows —
the pattern every ablation repeats.  Kept tiny and explicit: a sweep is
data (list of dicts) in, table (list of rows) out.

Sweeps parallelise across processes with ``workers=N`` through
:func:`repro.parallel.run_in_order`.  Each point is an independent
simulation constructed entirely from its parameters, so executing points
in separate interpreters cannot change any result; results are collected
in submission order, which makes the output table (and an ``obs_dir``
artifact) byte-identical to a serial run for every worker count.
"""

from __future__ import annotations

import itertools
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import ExperimentError
from repro.parallel import run_in_order
from repro.sim.rng import RngStreams

RunFn = Callable[..., dict[str, Any]]


def grid(**axes: Sequence[Any]) -> list[dict[str, Any]]:
    """Cartesian product of named axes as a list of parameter dicts.

    >>> grid(a=[1, 2], b=["x"])
    [{'a': 1, 'b': 'x'}, {'a': 2, 'b': 'x'}]
    """
    if not axes:
        raise ExperimentError("a grid needs at least one axis")
    names = list(axes)
    combos = itertools.product(*(axes[name] for name in names))
    return [dict(zip(names, combo)) for combo in combos]


def seeded(
    points: list[dict[str, Any]], master_seed: int, key: str = "seed"
) -> list[dict[str, Any]]:
    """Copy of ``points`` with a derived per-point seed added under ``key``.

    Seeds come from :meth:`RngStreams.fork` keyed by point index, so a
    multi-run sweep gets independent randomness per point while staying
    a pure function of ``(master_seed, index)`` — the assignment cannot
    depend on which worker executes the point or in what order.
    """
    streams = RngStreams(master_seed)
    out = []
    for index, point in enumerate(points):
        if key in point:
            raise ExperimentError(f"point {index} already has a {key!r} parameter")
        forked = streams.fork(f"point:{index}")
        out.append({**point, key: forked.master_seed})
    return out


def _run_point(run: RunFn, point: dict[str, Any]) -> dict[str, Any]:
    # Module-level so a process pool can pickle ``partial(_run_point, run)``.
    return run(**point)


def sweep(
    run: RunFn,
    points: list[dict[str, Any]],
    columns: list[str] | None = None,
    workers: int | None = 1,
    obs_dir: str | Path | None = None,
) -> tuple[list[str], list[list[Any]]]:
    """Run ``run(**point)`` for every point; tabulate parameters+results.

    ``run`` returns a dict of result values; the output table has one
    row per point with parameter columns first, result columns after.
    ``columns`` restricts/orders the result columns (default: keys of
    the first result, sorted).  ``workers`` > 1 fans points out over a
    process pool (``run`` must then be picklable, i.e. module-level);
    ``workers=None`` autodetects the CPUs this process may be scheduled
    on.  Results are collected in point order, so the table is
    identical for any worker count.  A point whose run raises (or whose worker dies)
    aborts the sweep with an :class:`ExperimentError` naming the point.

    ``obs_dir`` captures observability artifacts: every world the points
    build is folded, in point order, into one artifact in ``obs_dir``
    whose manifest runs carry their point's index as ``part``.
    """
    if not points:
        raise ExperimentError("sweep needs at least one point")
    param_names = list(points[0])
    for point in points:
        if list(point) != param_names:
            raise ExperimentError(
                f"inconsistent sweep point keys: {list(point)} != {param_names}"
            )
    results = run_in_order(
        partial(_run_point, run), points, workers, "sweep point", obs_dir
    )

    rows: list[list[Any]] = []
    result_names: list[str] | None = list(columns) if columns else None
    for point, result in zip(points, results):
        if not isinstance(result, dict):
            raise ExperimentError("run function must return a dict of results")
        if result_names is None:
            result_names = sorted(result)
        rows.append(
            [point[name] for name in param_names]
            + [result.get(name) for name in result_names]
        )
    return param_names + (result_names or []), rows
