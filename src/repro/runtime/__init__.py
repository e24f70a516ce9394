"""Runtime layer: the shared simulation context and declarative specs.

* :mod:`repro.runtime.context` — :class:`SimContext`, the one object
  bundling kernel, clock, random streams, span tracer, a shared
  counter bank and fault/retry hooks that every layer constructs from,
* :mod:`repro.runtime.spec` — :class:`ScenarioSpec` and friends: a
  simulation world as JSON-round-trippable data,
* :mod:`repro.runtime.codec` — the one JSON codec every spec shares,
* :mod:`repro.runtime.build` — the single :func:`build` compiler from
  spec to wired world,
* :mod:`repro.runtime.scenario` — :class:`Scenario`, the wired world
  the experiment harnesses drive.
"""

from repro.runtime.build import add_device, add_network, build
from repro.runtime.context import SimContext, coerce_context
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
    "SimContext",
    "coerce_context",
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
