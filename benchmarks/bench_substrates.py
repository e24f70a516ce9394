"""Micro-benchmarks of the substrates the experiments run on.

Not a paper artifact — these guard the reproduction itself: the kernel,
hashing, Merkle trees and message routing must stay fast enough that
the paper-scale experiments run in seconds.
"""

import time

from repro.chain.hashing import hash_value
from repro.chain.merkle import MerkleTree
from repro.net import ChannelParams, MqttBroker, WirelessChannel
from repro.sim import Simulator
from repro.transport import DirectTransport, MqttTransport, QoS

RECORD = {
    "device": "device1", "device_uid": "abc123", "sequence": 42,
    "measured_at": 1.5, "interval_s": 0.1, "current_ma": 123.4,
    "voltage_v": 3.3, "energy_mwh": 0.0113, "buffered": False,
}


def test_kernel_event_throughput(benchmark):
    def run_10k_events():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1

        for i in range(10_000):
            sim.schedule(i * 1e-4, tick)
        sim.run()
        return count[0]

    executed = benchmark(run_10k_events)
    assert executed == 10_000


def test_canonical_hash_cost(benchmark):
    digest = benchmark(hash_value, RECORD)
    assert len(digest) == 64


def test_merkle_tree_of_1000_records(benchmark):
    records = [dict(RECORD, sequence=i) for i in range(1000)]

    def build():
        return MerkleTree(records).root

    root = benchmark(build)
    assert len(root) == 64


def test_mqtt_routing_cost(benchmark):
    sim = Simulator()
    broker = MqttBroker(sim, "broker", processing_latency_s=0.0)
    hits = [0]
    broker.subscribe("meter/+/report", lambda t, p: hits.__setitem__(0, hits[0] + 1))
    for i in range(64):
        broker.subscribe(f"device/d{i}/ctrl", lambda t, p: None)

    def route_100():
        for i in range(100):
            broker.deliver(f"meter/d{i % 8}/report", RECORD)
        sim.run()

    benchmark(route_100)
    assert hits[0] > 0


def _transport_for(kind, sim):
    if kind == "mqtt":
        channel = WirelessChannel(
            ChannelParams(shadowing_sigma_db=0.0), sim.rng.stream("channel")
        )
        return MqttTransport(channel)
    return DirectTransport()


def _messaging_wall_clock(kind, n_hubs=50, devices_per_hub=20, messages=10):
    """Wall-clock of one publish burst across a 1k-link fleet's uplinks.

    The subscription tables mirror a real aggregator's: four wildcard
    uplink filters plus one exact control topic per device.
    """
    sim = Simulator(seed=11)
    transport = _transport_for(kind, sim)
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
            links.append((link, h, d))
    sim.run()
    start = time.perf_counter()
    for link, h, d in links:
        for i in range(messages):
            link.publish(f"meter/agg{h}-d{d}/report", i, qos=QoS.AT_LEAST_ONCE)
    sim.run()
    wall = time.perf_counter() - start
    assert delivered[0] == len(links) * messages
    return wall


def test_direct_transport_beats_mqtt_at_1k_devices(once):
    """The lightweight backend's reason to exist: >= 3x on the wire path."""

    def compare():
        _messaging_wall_clock("direct")  # warm both code paths
        mqtt_wall = _messaging_wall_clock("mqtt")
        direct_wall = _messaging_wall_clock("direct")
        return mqtt_wall, direct_wall

    mqtt_wall, direct_wall = once(compare)
    ratio = mqtt_wall / direct_wall
    print(
        f"\n1k-device publish burst: mqtt {mqtt_wall:.3f}s, "
        f"direct {direct_wall:.3f}s ({ratio:.1f}x)"
    )
    assert ratio >= 3.0


def test_channel_rssi_and_per(benchmark):
    channel = WirelessChannel(ChannelParams(), Simulator().rng.stream("c"))

    def evaluate():
        rssi = channel.rssi_dbm(25.0)
        return channel.packet_error_rate(rssi)

    per = benchmark(evaluate)
    assert 0.0 <= per <= 1.0
