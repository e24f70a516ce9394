"""repro — reproduction of "Real-Time Energy Monitoring in IoT-enabled
Mobile Devices" (Shivaraman et al., DATE 2020).

A decentralized, blockchain-backed energy-metering architecture for
mobile IoT devices, rebuilt on a discrete-event simulation substrate.
The public API re-exports the pieces a downstream user composes:

>>> from repro import build, paper_testbed_spec
>>> scenario = build(paper_testbed_spec(seed=7))
>>> scenario.run_until(30.0)
>>> scenario.chain.validate()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.aggregator import AggregatorConfig, AggregatorUnit
from repro.billing import BillingEngine, FlatTariff, TimeOfUseTariff
from repro.chain import Blockchain, audit_chain
from repro.device import DeviceConfig, MeteringDevice
from repro.ids import AggregatorId, DeviceId, NetworkAddress
from repro.runtime import ScenarioSpec, build
from repro.sim import Simulator
from repro.workloads import (
    MobilityTrace,
    Scenario,
    paper_testbed_spec,
    scaled_spec,
)

__version__ = "1.0.0"

__all__ = [
    "AggregatorConfig",
    "AggregatorUnit",
    "BillingEngine",
    "FlatTariff",
    "TimeOfUseTariff",
    "Blockchain",
    "audit_chain",
    "DeviceConfig",
    "MeteringDevice",
    "AggregatorId",
    "DeviceId",
    "NetworkAddress",
    "Simulator",
    "ScenarioSpec",
    "build",
    "MobilityTrace",
    "Scenario",
    "paper_testbed_spec",
    "scaled_spec",
    "__version__",
]
