"""Workloads: consumption profiles, mobility traces, ready scenarios.

* :mod:`repro.workloads.profiles` — deterministic load-current functions
  (duty-cycled ESP32 tasks, the e-scooter CC/CV charge curve, stochastic
  appliances, composites),
* :mod:`repro.workloads.mobility` — timed enter/leave traces and the
  driver that schedules them on a simulator,
* :mod:`repro.workloads.scenarios` — :class:`ScenarioSpec` factories
  for the canonical shapes (the paper's exact 2x2 testbed, scaled N x M
  worlds, chaos variants), compiled with ``build(x_spec(...))``, plus
  :func:`build_partition_scenario`, which also arms a mobility itinerary.
"""

from repro.workloads.mobility import MobilityDriver, MobilityEvent, MobilityTrace
from repro.workloads.profiles import (
    ApplianceProfile,
    CompositeProfile,
    ConstantProfile,
    DutyCycleProfile,
    EscooterChargeProfile,
    SinusoidProfile,
)
from repro.workloads.scenarios import (
    Scenario,
    blackout_spec,
    build_partition_scenario,
    crash_spec,
    paper_testbed_spec,
    partition_spec,
    scaled_spec,
)
from repro.workloads.traces import MarkovApplianceModel, TraceProfile

__all__ = [
    "MobilityDriver",
    "MobilityEvent",
    "MobilityTrace",
    "ApplianceProfile",
    "CompositeProfile",
    "ConstantProfile",
    "DutyCycleProfile",
    "EscooterChargeProfile",
    "SinusoidProfile",
    "Scenario",
    "paper_testbed_spec",
    "scaled_spec",
    "blackout_spec",
    "crash_spec",
    "partition_spec",
    "build_partition_scenario",
    "MarkovApplianceModel",
    "TraceProfile",
]
