#!/usr/bin/env python3
"""The paper's motivating scenario: an e-scooter charging away from home.

An e-scooter with a CC/CV charge profile starts charging in its home
network, rides to another grid-location (no consumption in transit),
and finishes charging there under a temporary membership.  The host
aggregator forwards its consumption home over the backhaul, and the
home network issues a single consolidated invoice — location-independent
per-device billing, the architecture's headline capability.

Run:  python examples/escooter_roaming.py
"""

from repro import BillingEngine, DeviceId, FlatTariff
from repro.device.stack import DeviceConfig, MeteringDevice
from repro.runtime import build
from repro.workloads.mobility import MobilityTrace
from repro.workloads.profiles import EscooterChargeProfile
from repro.workloads.scenarios import paper_testbed_spec


def main() -> None:
    scenario = build(paper_testbed_spec(seed=42, enter_devices=False))

    # Add the e-scooter: a 50 mAh-scale battery charging at 150 mA.
    escooter = MeteringDevice(
        scenario.simulator,
        DeviceId("escooter"),
        DeviceConfig(),
        scenario.grid,
        scenario.transport,
        EscooterChargeProfile(
            capacity_mah=50.0, initial_soc=0.1, cc_current_ma=150.0
        ),
    )
    scenario.devices["escooter"] = escooter

    # Itinerary: charge at home for 25 s, ride for 12 s, finish at the
    # host network.
    scenario.schedule_mobility(
        "escooter",
        MobilityTrace.single_move(
            home="agg1", destination="agg2",
            enter_home_at=0.0, leave_home_at=25.0, idle_s=12.0,
        ),
    )
    scenario.run_until(70.0)

    handshake = escooter.last_handshake
    print(f"temporary membership at agg2 took {handshake.duration_s:.2f}s "
          "(paper: ~6s)")
    print(f"records buffered while joining: {escooter.reports_buffered}")

    agg1 = scenario.aggregator("agg1")
    print(f"reports forwarded home over the backhaul: "
          f"{agg1.liaison.stats.forwarded_received}")

    engine = BillingEngine(scenario.chain, FlatTariff(rate_per_mwh=0.0002))
    invoice = engine.invoice(DeviceId("escooter"), (0.0, 70.0))
    print()
    print(invoice.render())
    print()
    roaming_share = invoice.roaming_energy_mwh / invoice.total_energy_mwh
    print(f"{roaming_share:.0%} of the e-scooter's energy was consumed in a "
          "foreign network, yet billed on one home invoice.")


if __name__ == "__main__":
    main()
