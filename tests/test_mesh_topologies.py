"""Tests for backhaul topology shapes and multi-hop roaming."""

import pytest

from repro.errors import ConfigError
from repro.ids import AggregatorId, DeviceId
from repro.runtime import build
from repro.workloads.scenarios import scaled_spec


class TestTopologyShapes:
    def test_line_hop_latency_scales(self):
        scenario = build(scaled_spec(4, 0, enter_devices=False, mesh_topology="line"))
        latency = scenario.mesh.latency_s(AggregatorId("net-0"), AggregatorId("net-3"))
        # Three 1 ms links plus two intermediate forwarding hops.
        assert latency == pytest.approx(0.003 + 2 * 0.0002)

    def test_star_routes_through_hub(self):
        scenario = build(scaled_spec(4, 0, enter_devices=False, mesh_topology="star"))
        leaf_to_leaf = scenario.mesh.latency_s(
            AggregatorId("net-1"), AggregatorId("net-2")
        )
        assert leaf_to_leaf == pytest.approx(0.002 + 0.0002)

    def test_full_mesh_is_single_hop(self):
        scenario = build(scaled_spec(4, 0, enter_devices=False, mesh_topology="full"))
        assert scenario.mesh.latency_s(
            AggregatorId("net-1"), AggregatorId("net-3")
        ) == pytest.approx(0.001)

    def test_invalid_topology_rejected(self):
        with pytest.raises(ConfigError):
            build(scaled_spec(2, 0, mesh_topology="ring"))


class TestMultiHopRoaming:
    @pytest.mark.parametrize("topology", ["line", "star"])
    def test_roaming_to_far_network_still_bills_home(self, topology):
        scenario = build(scaled_spec(4, 1, seed=7, enter_devices=False, mesh_topology=topology))
        # dev-0-0's home is net-0; it roams to the far end net-3.
        scenario.enter_at("dev-0-0", "net-0", 0.0)
        device = scenario.device("dev-0-0")
        scenario.simulator.schedule(12.0, device.leave_network)
        scenario.simulator.schedule(
            16.0, lambda: device.enter_network(scenario.aggregator("net-3"))
        )
        scenario.run_until(35.0)
        assert device.fsm.is_roaming
        assert device.fsm.master.aggregator == AggregatorId("net-0")
        home = scenario.aggregator("net-0")
        assert home.liaison.stats.forwarded_received > 0
        roaming = [
            r
            for r in scenario.chain.records_for_device(DeviceId("dev-0-0").uid)
            if r.get("roaming")
        ]
        assert roaming
        assert all(r["network"] == "net-0" and r["host"] == "net-3" for r in roaming)

    def test_handshake_unaffected_by_hop_count(self):
        # The verify round-trip adds only milliseconds even over a line.
        durations = {}
        for topology in ("full", "line"):
            scenario = build(scaled_spec(4, 1, seed=8, enter_devices=False, mesh_topology=topology))
            scenario.enter_at("dev-0-0", "net-0", 0.0)
            device = scenario.device("dev-0-0")
            scenario.simulator.schedule(12.0, device.leave_network)
            scenario.simulator.schedule(
                15.0, lambda d=device, s=scenario: d.enter_network(s.aggregator("net-3"))
            )
            scenario.run_until(30.0)
            durations[topology] = device.last_handshake.duration_s
        assert durations["line"] == pytest.approx(durations["full"], abs=0.05)
