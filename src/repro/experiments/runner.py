"""Run-everything orchestration used by the CLI.

Each experiment gets a named entry; ``run_all`` executes the requested
subset through :func:`repro.parallel.run_in_order` (the executor sweeps
use too) and returns rendered text blocks, so the CLI, tests and
EXPERIMENTS.md generation all share one code path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.errors import ExperimentError
from repro.experiments.ablations import (
    hotspot_instance,
    run_anomaly_ablation,
    run_attribution,
    run_handshake_stage_ablation,
    run_sensor_ablation,
    run_storage_ablation,
)
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6, run_handshake_distribution
from repro.experiments.report import (
    render_fig5,
    render_fig5_bars,
    render_fig6,
    render_handshake_stats,
    render_table,
)
from repro.parallel import run_in_order


def _run_fig5() -> str:
    result = run_fig5()
    return (
        render_fig5(result)
        + "\n\n"
        + render_fig5_bars(result, "agg1")
    )


def _run_fig6() -> str:
    return render_fig6(run_fig6())


def _run_handshake() -> str:
    return render_handshake_stats(run_handshake_distribution())


def _run_sensor_ablation() -> str:
    rows = run_sensor_ablation()
    return render_table(
        ["offset_mA", "wire_ohm", "leak_mA", "mean_gap_%", "max_gap_%"],
        [
            [r.offset_max_ma, r.wire_resistance_ohms, r.wire_leakage_ma,
             r.mean_gap_pct, r.max_gap_pct]
            for r in rows
        ],
    )


def _run_handshake_stages() -> str:
    row = run_handshake_stage_ablation()
    return render_table(
        ["scan_s", "assoc_s", "connect_s", "protocol_s", "total_s", "dominant"],
        [[row.scan_s, row.assoc_s, row.connect_s, row.protocol_s, row.total_s,
          row.dominant_stage]],
    )


def _run_storage_ablation() -> str:
    rows = run_storage_ablation()
    return render_table(
        ["idle_s", "buffered", "ledger_records", "handshake_s", "backfill_ok"],
        [[r.idle_s, r.buffered_records, r.ledger_records, r.handshake_s,
          r.backfill_worked] for r in rows],
    )


def _run_anomaly_ablation() -> str:
    rows = run_anomaly_ablation()
    return render_table(
        ["attack", "residual", "variation", "entropy", "detected"],
        [[r.attack, r.residual_detected, r.variation_detected,
          r.entropy_detected, r.detected_by_any] for r in rows],
    )


def _run_attribution() -> str:
    rows = [
        [factor, result.alphas["device1"], result.alphas["device2"],
         ",".join(result.suspects) or "-"]
        for factor, result in run_attribution().items()
    ]
    return render_table(["report_scale", "alpha_d1", "alpha_d2", "suspects"], rows)


def _run_loadbalance() -> str:
    from repro.planning import balance_min_max_utilisation, greedy_rssi_assignment

    rows = []
    for seed in range(3):
        problem = hotspot_instance(seed=seed)
        balanced = balance_min_max_utilisation(problem)
        rows.append(
            [seed, greedy_rssi_assignment(problem).max_utilisation(problem),
             balanced.max_utilisation(problem), len(balanced.unassigned)]
        )
    return render_table(
        ["seed", "greedy_max_util", "balanced_max_util", "stranded"], rows
    )


def _run_ledger_sync() -> str:
    from repro.experiments.ledger_sync import run_ledger_sync

    points = run_ledger_sync()
    return render_table(
        ["batch", "interval_s", "blocks", "hdrs/dev", "bytes/dev", "bytes/blk/dev",
         "mean_delay_s", "max_delay_s", "offline_ok", "requested"],
        [
            [p.batch_size, p.sync_interval_s, p.blocks_produced,
             round(p.headers_per_device, 1), round(p.sync_bytes_per_device, 1),
             round(p.bytes_per_block_per_device, 2), round(p.mean_delay_s, 3),
             round(p.max_delay_s, 3), p.receipts_verified_offline,
             p.receipts_requested]
            for p in points
        ],
    )


def _run_validation() -> str:
    from repro.experiments.validate import render_validation, run_validation

    return render_validation(run_validation())


EXPERIMENTS: dict[str, Callable[[], str]] = {
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "handshake": _run_handshake,
    "ablation-sensor": _run_sensor_ablation,
    "ablation-handshake": _run_handshake_stages,
    "ablation-storage": _run_storage_ablation,
    "ablation-anomaly": _run_anomaly_ablation,
    "attribution": _run_attribution,
    "loadbalance": _run_loadbalance,
    "ledger-sync": _run_ledger_sync,
    "validate": _run_validation,
}


def _run_by_name(name: str) -> str:
    """Execute one registered experiment (module-level: ``run_all`` with
    ``workers`` > 1 pickles this into worker processes)."""
    return EXPERIMENTS[name]()


def run_all(
    names: list[str] | None = None,
    workers: int | None = 1,
    obs_dir: str | Path | None = None,
) -> dict[str, str]:
    """Run the requested experiments (all by default); returns texts.

    ``workers`` > 1 fans the experiments out over a process pool — each
    experiment builds its own world from fixed seeds, so the rendered
    outputs are identical for any worker count; ``workers=None``
    autodetects the CPUs this process may be scheduled on.  Output
    order follows the request order either way.

    ``obs_dir`` additionally captures observability artifacts: every
    world the experiments build is folded, in request order, into one
    artifact in ``obs_dir`` whose manifest runs carry their experiment's
    index in the request as ``part``.
    """
    selected = list(EXPERIMENTS) if names is None else names
    for name in selected:
        if name not in EXPERIMENTS:
            raise ExperimentError(
                f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
            )
    texts = run_in_order(_run_by_name, selected, workers, "experiment", obs_dir)
    return dict(zip(selected, texts))
