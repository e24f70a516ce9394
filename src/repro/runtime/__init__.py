"""Runtime layer: declarative specs and the one compiler into a world.

* :mod:`repro.runtime.spec` — :class:`ScenarioSpec` and friends: a
  simulation world as JSON-round-trippable data,
* :mod:`repro.runtime.codec` — the one JSON codec every spec shares,
* :mod:`repro.runtime.build` — the single :func:`build` compiler from
  spec to wired world: one kernel, whose counter bank and span stream
  every layer emits into,
* :mod:`repro.runtime.scenario` — :class:`Scenario`, the wired world
  the experiment harnesses drive.
"""

from repro.runtime.build import add_device, add_network, build
from repro.runtime.scenario import Scenario
from repro.runtime.spec import (
    DeviceSpec,
    FaultSpec,
    LedgerSpec,
    MeshSpec,
    NetworkSpec,
    ObsSpec,
    ProfileSpec,
    ScenarioSpec,
    ServeSpec,
    TransportSpec,
    VectorSpec,
)

__all__ = [
    "Scenario",
    "ScenarioSpec",
    "NetworkSpec",
    "DeviceSpec",
    "ProfileSpec",
    "MeshSpec",
    "FaultSpec",
    "LedgerSpec",
    "TransportSpec",
    "ObsSpec",
    "VectorSpec",
    "ServeSpec",
    "build",
    "add_network",
    "add_device",
]
