"""Tests for the pluggable transport layer (:mod:`repro.transport`).

Covers the seam four ways:

* contract tests parametrized over both backends (pub/sub routing,
  QoS-1 retransmission exhaustion during an outage, endpoint downtime,
  the shared topic router's ordering and cache invalidation),
* the direct backend's reason to exist: >= 3x faster than MQTT on a
  1k-link publish burst,
* :func:`topic_matches` edge cases shared by every backend,
* the layering rule itself: no protocol module imports the MQTT,
  Wi-Fi or radio-channel backend modules directly (enforced over the
  AST, so a regression fails in CI rather than in review), and running
  a world never imports networkx.
"""

import ast
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ConfigError, NetworkError
from repro.faults.injectors import LinkFaultInjector
from repro.net.channel import ChannelParams, WirelessChannel
from repro.runtime.spec import ScenarioSpec, TransportSpec
from repro.sim.kernel import Simulator
from repro.transport import (
    DirectTransport,
    MqttTransport,
    QoS,
    Transport,
    topic_matches,
)
from repro.workloads.scenarios import paper_testbed_spec

BACKENDS = ("mqtt", "direct")

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
PROTOCOL_PACKAGES = ("device", "aggregator", "decentral")
BANNED_MODULES = ("repro.net.channel", "repro.net.mqtt", "repro.net.wifi")


def make_transport(kind: str, sim: Simulator) -> Transport:
    if kind == "mqtt":
        channel = WirelessChannel(
            ChannelParams(shadowing_sigma_db=0.0), sim.rng.stream("channel")
        )
        return MqttTransport(channel)
    return DirectTransport()


def make_world(kind: str, seed: int = 0):
    sim = Simulator(seed=seed)
    transport = make_transport(kind, sim)
    endpoint = transport.make_endpoint(sim, "agg")
    link = transport.make_link(sim, "dev")
    return sim, transport, endpoint, link


def connect(sim, endpoint, link, rssi=-50.0):
    link.connect(endpoint, rssi)
    sim.run_until(sim.now + 2.0)


# -- layering rule ------------------------------------------------------


def _imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            modules.add(node.module)
    return modules


class TestLayering:
    def test_protocol_layers_never_import_backend_modules(self):
        """device/, aggregator/, decentral/ speak only the transport API."""
        offenders = []
        for package in PROTOCOL_PACKAGES:
            for path in sorted((SRC_ROOT / package).rglob("*.py")):
                bad = _imported_modules(path).intersection(BANNED_MODULES)
                if bad:
                    offenders.append((str(path.relative_to(SRC_ROOT)), sorted(bad)))
        assert offenders == []

    def test_packages_scanned_exist(self):
        # Guard against the scan silently passing on a renamed tree.
        for package in PROTOCOL_PACKAGES:
            assert (SRC_ROOT / package).is_dir()

    def test_runtime_path_never_imports_networkx(self):
        """Only repro.planning needs networkx; running a world must not load it."""
        code = (
            "import sys\n"
            "import repro, repro.cli, repro.serve\n"
            "from repro.runtime import build\n"
            "from repro.workloads.scenarios import paper_testbed_spec\n"
            "build(paper_testbed_spec(seed=7)).run_until(1.0)\n"
            "print('networkx' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC_ROOT.parent)}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.split() == ["False"]


# -- wire-path cost --------------------------------------------------------


def _uplink_fleet(kind, n_hubs=50, devices_per_hub=20):
    """A connected 1k-link fleet as ``(sim, links, delivered)``.

    The subscription tables mirror a real aggregator's: four wildcard
    uplink filters plus one exact control topic per device.  ``links``
    pairs each uplink with its report topic, formatted here so that a
    burst times the publishes, not the string formatting.
    """
    sim = Simulator(seed=11)
    transport = make_transport(kind, sim)
    links = []
    delivered = [0]
    for h in range(n_hubs):
        hub = transport.make_endpoint(sim, f"agg{h}")
        for purpose in ("report", "join", "leave", "sync"):
            hub.subscribe(
                f"meter/+/{purpose}",
                lambda t, p: delivered.__setitem__(0, delivered[0] + 1),
            )
        for d in range(devices_per_hub):
            hub.subscribe(f"device/agg{h}-d{d}/ctrl", lambda t, p: None)
            link = transport.make_link(sim, f"agg{h}-d{d}")
            link.connect(hub, -50.0)
            links.append((link, f"meter/agg{h}-d{d}/report"))
    sim.run()
    return sim, links, delivered


def _burst_cpu_s(fleet, messages=10):
    """CPU seconds of one publish burst across the fleet's uplinks.

    CPU time, not wall-clock: the time this process waits for a CPU
    while other processes run is no cost of the wire path.
    """
    sim, links, delivered = fleet
    start = time.process_time()
    for link, topic in links:
        for i in range(messages):
            link.publish(topic, i, qos=QoS.AT_LEAST_ONCE)
    sim.run()
    spent = time.process_time() - start
    assert delivered[0] == len(links) * messages
    return spent


def _wire_path_ratios(pairs=15):
    """mqtt-over-direct burst CPU-time ratios, one per pair.

    The host's speed drifts, so a pair builds both fleets first and then
    runs the mqtt burst and the direct burst back to back, at about the
    same speed.  Earlier fleets are cyclic garbage, and building two
    brings a full collection near: it runs before the bursts, so it is
    timed as neither.  The first pair only warms up.
    """
    ratios = []
    for _ in range(pairs + 1):
        fleets = [_uplink_fleet(kind) for kind in ("mqtt", "direct")]
        gc.collect()
        mqtt, direct = (_burst_cpu_s(fleet) for fleet in fleets)
        ratios.append(mqtt / direct)
    return ratios[1:]


class TestWirePathCost:
    def test_direct_transport_beats_mqtt_at_1k_devices(self):
        """The lightweight backend's reason to exist: >= 3x on the wire path.

        The bursts run in a fresh interpreter (this module run as a
        script), so the heap that earlier tests left behind is in
        neither burst; the ratio is the median over the pairs.
        """
        env = {**os.environ, "PYTHONPATH": str(SRC_ROOT.parent)}
        result = subprocess.run(
            [sys.executable, __file__],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        ratios = json.loads(result.stdout)
        assert statistics.median(ratios) >= 3.0, ratios


# -- topic matching edge cases ------------------------------------------


class TestTopicMatchingEdgeCases:
    @pytest.mark.parametrize(
        "pattern,topic",
        [("a/#/b", "a/x/b"), ("#/a", "q/a"), ("x/#/y/#", "x/q/y/z")],
    )
    def test_hash_mid_pattern_rejected(self, pattern, topic):
        with pytest.raises(NetworkError):
            topic_matches(pattern, topic)

    def test_hash_matches_parent_level(self):
        # MQTT spec: "a/#" matches "a" itself, not only children.
        assert topic_matches("a/#", "a")
        assert topic_matches("a/#", "a/b/c")
        assert not topic_matches("a/#", "b")

    def test_empty_levels_are_real_levels(self):
        assert topic_matches("a//b", "a//b")
        assert topic_matches("a/+/b", "a//b")
        assert not topic_matches("a/b", "a//b")
        assert topic_matches("/a", "/a")
        assert not topic_matches("/a", "a")

    def test_plus_matches_exactly_one_level(self):
        assert topic_matches("+", "a")
        assert not topic_matches("+", "a/b")
        assert topic_matches("+/+", "a/b")
        assert not topic_matches("+/+", "a")
        assert not topic_matches("a/+", "a/b/c")

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_bad_filter_rejected_at_subscribe(self, kind):
        _, _, endpoint, _ = make_world(kind)
        with pytest.raises(NetworkError):
            endpoint.subscribe("a/#/b", lambda t, p: None)


# -- backend contract ---------------------------------------------------


class TestBackendContract:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_publish_routes_to_subscriber(self, kind):
        sim, _, endpoint, link = make_world(kind)
        got = []
        endpoint.subscribe("meter/+/report", lambda t, p: got.append((t, p)))
        connect(sim, endpoint, link)
        assert link.connected
        assert link.publish("meter/dev/report", b"data")
        sim.run()
        assert got == [("meter/dev/report", b"data")]
        assert endpoint.messages_routed == 1
        assert link.stats["published"] == 1

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_delivery_is_scheduled_not_synchronous(self, kind):
        sim, _, endpoint, link = make_world(kind)
        got = []
        endpoint.subscribe("t", lambda t, p: got.append(sim.now))
        connect(sim, endpoint, link)
        sent_at = sim.now
        link.publish("t", 1)
        assert got == []  # nothing delivered inside publish()
        sim.run()
        assert got and got[0] > sent_at

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_publish_while_disconnected_raises(self, kind):
        _, _, _, link = make_world(kind)
        with pytest.raises(NetworkError):
            link.publish("t", b"x")

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_unsubscribe_unknown_rejected(self, kind):
        _, _, endpoint, _ = make_world(kind)

        def callback(topic, payload):
            return None

        with pytest.raises(NetworkError):  # never subscribed
            endpoint.unsubscribe("meter/+/report", callback)
        endpoint.subscribe("meter/+/report", callback)
        endpoint.unsubscribe("meter/+/report", callback)
        with pytest.raises(NetworkError):  # already unsubscribed
            endpoint.unsubscribe("meter/+/report", callback)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_qos1_exhausts_retries_during_link_blackout(self, kind):
        """An outage makes QoS 1 burn its whole budget, then give up."""
        sim, _, endpoint, link = make_world(kind)
        got = []
        endpoint.subscribe("t", lambda t, p: got.append(p))
        connect(sim, endpoint, link)
        injector = LinkFaultInjector("uplink:dev", sim.rng.stream("fault"))
        link.set_fault_injector(injector)
        injector.start_blackout()
        assert link.publish("t", b"lost", qos=QoS.AT_LEAST_ONCE) is False
        # 1 initial attempt + 5 retries, every one blocked by the blackout.
        assert injector.counters.get("uplink:dev.blackout_losses") == 6
        assert link.stats["dropped"] == 1
        injector.end_blackout()
        assert link.publish("t", b"after", qos=QoS.AT_LEAST_ONCE) is True
        sim.run()
        assert got == [b"after"]

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_environment_blackout_via_transport(self, kind):
        """transport.set_fault_injector reaches every link on any backend."""
        sim, transport, endpoint, link = make_world(kind)
        endpoint.subscribe("t", lambda t, p: None)
        connect(sim, endpoint, link)
        injector = LinkFaultInjector("radio", sim.rng.stream("fault"))
        transport.set_fault_injector(injector)
        injector.start_blackout()
        assert link.publish("t", b"lost") is False
        injector.end_blackout()
        assert link.publish("t", b"through") is True

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_downed_endpoint_drops_everything(self, kind):
        sim, _, endpoint, link = make_world(kind)
        got = []
        endpoint.subscribe("t", lambda t, p: got.append(p))
        connect(sim, endpoint, link)
        endpoint.set_down(True)
        assert endpoint.down
        link.publish("t", b"x")  # accepted by the link, dropped at the host
        sim.run_until(sim.now + 5.0)
        assert got == []
        assert endpoint.messages_dropped >= 1
        endpoint.set_down(False)
        link.publish("t", b"y")
        sim.run()
        assert got == [b"y"]

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_radio_prefers_closer_access_points(self, kind):
        sim = Simulator(seed=0)
        transport = make_transport(kind, sim)
        radio = transport.make_radio(_FakeProcess(sim))
        assert radio.rssi_dbm(2.0) > radio.rssi_dbm(80.0)
        assert radio.scan_duration_s() > 0
        assert radio.association_duration_s() > 0

    def test_direct_link_latency_and_loss_validated(self):
        with pytest.raises(ConfigError):
            DirectTransport(latency_s=-0.1)
        with pytest.raises(ConfigError):
            DirectTransport(loss_p=1.0)
        with pytest.raises(ConfigError):
            DirectTransport(connect_s=0.0)

    def test_direct_lossy_link_drops_some_qos0(self):
        sim = Simulator(seed=2)
        transport = DirectTransport(loss_p=0.5)
        endpoint = transport.make_endpoint(sim, "agg")
        link = transport.make_link(sim, "dev")
        connect(sim, endpoint, link)
        delivered = sum(
            link.publish("t", i, qos=QoS.AT_MOST_ONCE) for i in range(200)
        )
        assert 40 < delivered < 160
        assert link.stats["dropped"] > 0

    def test_mqtt_transport_without_channel_is_endpoint_only(self):
        sim = Simulator(seed=0)
        transport = MqttTransport()
        endpoint = transport.make_endpoint(sim, "agg")
        assert endpoint.name == "agg-broker"
        with pytest.raises(ConfigError):
            transport.make_link(sim, "dev")
        with pytest.raises(ConfigError):
            transport.set_fault_injector(None)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_describe_names_the_backend(self, kind):
        sim = Simulator(seed=0)
        transport = make_transport(kind, sim)
        assert transport.describe()["kind"] == kind


class TestRoutingContract:
    """Both endpoints route through one cached topic router."""

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_callbacks_fire_in_subscription_order(self, kind):
        sim, _, endpoint, _ = make_world(kind)
        got = []
        endpoint.subscribe("device/+/ctrl", lambda t, p: got.append("plus"))
        endpoint.subscribe("device/d1/ctrl", lambda t, p: got.append("exact"))
        endpoint.subscribe("device/#", lambda t, p: got.append("hash"))
        endpoint.subscribe("device/d2/ctrl", lambda t, p: got.append("other"))
        endpoint.deliver("device/d1/ctrl", 1)
        sim.run()
        assert got == ["plus", "exact", "hash"]

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_late_subscription_receives_later_messages(self, kind):
        sim, _, endpoint, _ = make_world(kind)
        first, late = [], []
        endpoint.subscribe("meter/+/report", lambda t, p: first.append(p))
        endpoint.deliver("meter/d1/report", 1)
        sim.run()  # the topic is routed (and cached) now
        endpoint.subscribe("meter/d1/report", lambda t, p: late.append(p))
        endpoint.deliver("meter/d1/report", 2)
        sim.run()
        assert first == [1, 2]
        assert late == [2]

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_unsubscribe_inside_callback_applies_from_next_message(self, kind):
        sim, _, endpoint, _ = make_world(kind)
        got = []

        def once(topic, payload):
            got.append(("once", payload))
            endpoint.unsubscribe("t", once)

        endpoint.subscribe("t", once)
        endpoint.subscribe("t", lambda t, p: got.append(("stay", p)))
        endpoint.deliver("t", 1)
        endpoint.deliver("t", 2)  # due at the same instant as message 1
        sim.run()
        assert got == [("once", 1), ("stay", 1), ("stay", 2)]


class _FakeProcess:
    """Just enough of the Process surface for Transport.make_radio."""

    def __init__(self, sim):
        self._sim = sim
        self.name = "dev"

    def rng(self, purpose):
        return self._sim.rng.stream(f"{self.name}:{purpose}")


# -- spec round-trip ----------------------------------------------------


class TestTransportSpec:
    def test_defaults_to_mqtt(self):
        assert TransportSpec().kind == "mqtt"
        assert paper_testbed_spec().transport.kind == "mqtt"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            TransportSpec(kind="carrier-pigeon")

    @pytest.mark.parametrize(
        "spec",
        [
            TransportSpec(),
            TransportSpec(kind="direct"),
            TransportSpec(kind="direct", latency_s=0.002, loss_p=0.1, connect_s=0.5),
        ],
    )
    def test_round_trips_losslessly(self, spec):
        assert TransportSpec.from_dict(spec.to_dict()) == spec

    def test_scenario_spec_round_trips_transport(self):
        spec = paper_testbed_spec(seed=3, transport=TransportSpec(kind="direct"))
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.transport.kind == "direct"

    def test_legacy_dict_without_transport_defaults_to_mqtt(self):
        data = paper_testbed_spec().to_dict()
        del data["transport"]
        assert ScenarioSpec.from_dict(data).transport == TransportSpec()

    def test_paper_testbed_runs_end_to_end_on_direct_backend(self):
        from repro.runtime.build import build

        scenario = build(paper_testbed_spec(seed=5, transport=TransportSpec(kind="direct")))
        assert scenario.channel is None  # no radio environment on direct
        scenario.run_until(12.0)
        assert scenario.chain.height > 0
        for device in scenario.devices.values():
            assert device.acked_count > 0

    def test_build_makes_matching_backend(self):
        sim = Simulator(seed=0)
        assert isinstance(TransportSpec().build(object()), MqttTransport)
        direct = TransportSpec(kind="direct", latency_s=0.001).build(None)
        assert isinstance(direct, DirectTransport)
        assert direct.latency_s == 0.001
        del sim


if __name__ == "__main__":
    print(json.dumps(_wire_path_ratios()))
