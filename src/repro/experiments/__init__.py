"""Experiment harnesses.

One module per paper artifact (see DESIGN.md §4):

* :mod:`repro.experiments.fig5` — E1, decentralized vs centralized
  metering accuracy,
* :mod:`repro.experiments.fig6` — E2/E3, the mobility timeline and the
  ``T_handshake`` distribution,
* :mod:`repro.experiments.ablations` — the ablations' runs,
* :mod:`repro.experiments.faults` — chaos runs (blackout, crash,
  fault-intensity sweep) scoring delivery ratio and billing error,
* :mod:`repro.experiments.report` — text rendering of all results,
* :mod:`repro.experiments.validate` — the claims table that bounds
  them (imported on demand, not by this package).
"""

from repro.experiments.ablations import (
    run_anomaly_ablation,
    run_handshake_stage_ablation,
    run_sensor_ablation,
    run_storage_ablation,
)
from repro.experiments.faults import (
    ChaosResult,
    DeviceDelivery,
    SweepPoint,
    run_blackout_chaos,
    run_crash_chaos,
    run_fault_sweep,
    settle_and_measure,
)
from repro.experiments.fig5 import Fig5Result, IntervalRow, run_fig5
from repro.experiments.fig6 import (
    Fig6Result,
    HandshakeStats,
    run_fig6,
    run_handshake_distribution,
)
from repro.experiments.report import render_fig5, render_fig6, render_table

__all__ = [
    "Fig5Result",
    "IntervalRow",
    "run_fig5",
    "Fig6Result",
    "HandshakeStats",
    "run_fig6",
    "run_handshake_distribution",
    "run_anomaly_ablation",
    "run_handshake_stage_ablation",
    "run_sensor_ablation",
    "run_storage_ablation",
    "ChaosResult",
    "DeviceDelivery",
    "SweepPoint",
    "run_blackout_chaos",
    "run_crash_chaos",
    "run_fault_sweep",
    "settle_and_measure",
    "render_fig5",
    "render_fig6",
    "render_table",
]
