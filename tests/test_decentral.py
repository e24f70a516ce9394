"""Tests for the fully decentralized (aggregator-free) variant."""

import pytest

from repro.chain import Blockchain, audit_chain
from repro.decentral import DecentralizedDevice, DecentralizedNetwork
from repro.decentral.network import _Gossip
from repro.errors import ConsensusError
from repro.ids import AggregatorId, DeviceId
from repro.net.backhaul import BackhaulLink, BackhaulMesh
from repro.sim import Simulator
from repro.workloads.profiles import SinusoidProfile


def build_committee(n=4, seed=0, round_interval=1.0):
    sim = Simulator(seed=seed)
    mesh = BackhaulMesh(sim)
    chain = Blockchain(authorized=set())
    devices = [
        DecentralizedDevice(
            sim,
            DeviceId(f"node{i}"),
            mesh,
            SinusoidProfile(mean_ma=50.0 + 10 * i, amplitude_ma=20.0,
                            period_s=7.0 + i),
        )
        for i in range(n)
    ]
    network = DecentralizedNetwork(
        sim, devices, chain, round_interval_s=round_interval
    )
    return sim, chain, devices, network


class TestHonestCommittee:
    def test_rounds_commit_blocks(self):
        sim, chain, devices, network = build_committee()
        network.start()
        sim.run_until(10.5)
        assert network.commits >= 9
        assert network.failures == 0
        chain.validate()

    def test_all_devices_recorded(self):
        sim, chain, devices, network = build_committee()
        network.start()
        sim.run_until(6.5)
        for device in devices:
            records = chain.records_for_device(device.device_id.uid)
            assert records, device.device_id.name

    def test_ledger_energy_matches_meters(self):
        sim, chain, devices, network = build_committee()
        network.start()
        sim.run_until(10.5)
        network.drain()
        sim.run_until(12.0)
        for device in devices:
            ledger = chain.total_energy_mwh(device.device_id.uid)
            measured = device.meter.total_energy_mwh
            assert ledger == pytest.approx(measured, rel=0.02)

    def test_block_creators_rotate(self):
        sim, chain, _, network = build_committee()
        network.start()
        sim.run_until(8.5)
        creators = {block.header.aggregator for block in chain}
        assert len(creators) >= 3

    def test_audit_clean(self):
        sim, chain, _, network = build_committee()
        network.start()
        sim.run_until(5.5)
        assert audit_chain(chain).clean

    def test_commit_latency_reflects_mesh(self):
        sim, _, _, network = build_committee()
        network.start()
        sim.run_until(5.5)
        for latency in network.commit_latencies:
            assert 0.004 < latency < 0.05


class TestByzantineProposer:
    def test_rewritten_record_rejected_by_committee(self):
        sim, chain, devices, network = build_committee()
        network.start()
        sim.run_until(3.5)  # a few honest rounds
        network.stop()
        sim.run_until(3.7)  # let any in-flight round finish
        honest_height = chain.height

        # Drive one malicious round by hand: gossip normally, then the
        # proposer rewrites a victim's record before proposing.
        round_index = 1000
        for device in devices:
            device.enter_round(round_index)
            device.broadcast_round(round_index)
        sim.run_until(sim.now + 0.1)  # let gossip settle
        proposer = devices[0]
        batch = proposer.round_view(round_index)
        victim_uid = devices[1].device_id.uid
        forged = []
        for record in batch:
            if record["device_uid"] == victim_uid:
                record = dict(record, energy_mwh=0.0, current_ma=0.0)
            forged.append(record)
        outcomes = []
        network._consensus.propose(forged, lambda ok, lat: outcomes.append(ok))
        sim.run_until(sim.now + 0.5)
        assert outcomes == [False]
        assert chain.height == honest_height

    def test_dropped_record_rejected(self):
        sim, chain, devices, network = build_committee()
        round_index = 2000
        for device in devices:
            device.enter_round(round_index)
        # Everyone samples a bit first.
        for device in devices:
            device.start()
        sim.run_until(1.0)
        for device in devices:
            device.broadcast_round(round_index)
        sim.run_until(sim.now + 0.1)
        proposer = devices[0]
        batch = [
            r for r in proposer.round_view(round_index)
            if r["device_uid"] != devices[2].device_id.uid
        ]
        outcomes = []
        network._consensus.propose(batch, lambda ok, lat: outcomes.append(ok))
        sim.run_until(sim.now + 0.5)
        assert outcomes == [False]
        assert devices[2].rejections > 0


class TestForgedGossip:
    """Gossip counts only from a committee member, about its own records."""

    FORGED_SEQUENCE = 10**6

    def run_forged_round(self, uid, sender_index=None):
        """Gossip round 1's proposer (node1) a 1e6 mWh reading of ``uid``
        at t = 1.01 s, from committee member ``sender_index`` or else from
        an outside mesh node; run two rounds; return ``uid``'s records."""
        sim, chain, devices, network = build_committee()
        proposer = devices[1]
        mesh = proposer.mesh
        if sender_index is None:
            sender = AggregatorId("outsider")
            mesh.add_aggregator(sender, lambda source, payload: None)
            mesh.connect(BackhaulLink(sender, proposer.node_id, latency_s=0.001))
        else:
            sender = devices[sender_index].node_id
        record = {"device": "forged", "device_uid": uid,
                  "sequence": self.FORGED_SEQUENCE, "measured_at": 1.0,
                  "energy_mwh": 1e6}
        network.start()
        sim.call_later(
            1.01,
            lambda: mesh.send(sender, proposer.node_id, _Gossip(1, "forged", (record,))),
        )
        sim.run_until(3.0)
        assert network.commits == 2 and network.failures == 0
        return chain.records_for_device(uid)

    def test_outsider_gossip_is_ignored(self):
        assert self.run_forged_round("ghost") == []

    def test_member_gossip_about_another_member_is_ignored(self):
        records = self.run_forged_round(DeviceId("node3").uid, sender_index=2)
        assert records  # node3's own gossip still counts
        assert all(r["sequence"] != self.FORGED_SEQUENCE for r in records)


class TestCommitteeValidation:
    def test_too_small_committee_rejected(self):
        sim = Simulator()
        mesh = BackhaulMesh(sim)
        device = DecentralizedDevice(
            sim, DeviceId("solo"), mesh, SinusoidProfile(50.0, 10.0)
        )
        with pytest.raises(ConsensusError):
            DecentralizedNetwork(sim, [device], Blockchain())

    def test_round_interval_must_exceed_settle(self):
        sim, _, devices, _ = build_committee()
        with pytest.raises(ConsensusError):
            DecentralizedNetwork(
                sim, devices[:2], Blockchain(),
                round_interval_s=0.01, gossip_settle_s=0.05,
            )

    def test_view_is_bounded(self):
        sim, chain, devices, network = build_committee(round_interval=0.5)
        network.start()
        sim.run_until(10.0)
        # Views for rounds older than ~5 rounds ago are dropped.
        assert len(devices[0]._view) <= 6
