"""Tests for networked consensus and inclusion receipts."""

import pytest

from repro.chain import (
    Block,
    Blockchain,
    InMemoryBlockStore,
    NetworkedPoaConsensus,
    NetworkedValidator,
    find_and_issue,
    issue_receipt,
)
from repro.errors import ChainError, ConsensusError
from repro.ids import AggregatorId
from repro.net import BackhaulLink, BackhaulMesh
from repro.sim import Simulator


def make_committee(n=4, check=None, link_latency=0.001):
    sim = Simulator(seed=0)
    mesh = BackhaulMesh(sim)
    chain = Blockchain(authorized=set())
    validators = [
        NetworkedValidator(sim, AggregatorId(f"v{i}"), mesh, check=check)
        for i in range(n)
    ]
    for i, a in enumerate(validators):
        for b in validators[i + 1:]:
            mesh.connect(BackhaulLink(a.node_id, b.node_id, latency_s=link_latency))
    consensus = NetworkedPoaConsensus(sim, validators, chain)
    return sim, chain, consensus


RECORDS = [{"device": "d1", "device_uid": "u1", "sequence": 0,
            "measured_at": 0.0, "energy_mwh": 0.5}]


class TestNetworkedConsensus:
    def test_honest_round_commits(self):
        sim, chain, consensus = make_committee(4)
        outcomes = []
        consensus.propose(RECORDS, lambda ok, lat: outcomes.append((ok, lat)))
        sim.run()
        assert outcomes and outcomes[0][0] is True
        assert chain.height == 1

    def test_commit_latency_reflects_network(self):
        # Latency >= proposal hop + processing + vote hop.
        sim, _, consensus = make_committee(4, link_latency=0.005)
        latencies = []
        consensus.propose(RECORDS, lambda ok, lat: latencies.append(lat))
        sim.run()
        assert latencies[0] >= 0.005 + 0.002 + 0.005

    def test_latency_smaller_on_faster_links(self):
        def run(link):
            sim, _, consensus = make_committee(4, link_latency=link)
            latencies = []
            consensus.propose(RECORDS, lambda ok, lat: latencies.append(lat))
            sim.run()
            return latencies[0]

        assert run(0.001) < run(0.010)

    def test_fraud_rejected_by_quorum(self):
        def plausible(records):
            return all(r["energy_mwh"] < 100 for r in records)

        sim, chain, consensus = make_committee(5, check=plausible)
        outcomes = []
        forged = [dict(RECORDS[0], energy_mwh=1e9)]
        consensus.propose(forged, lambda ok, lat: outcomes.append(ok))
        sim.run()
        assert outcomes == [False]
        assert chain.height == 0

    def test_proposer_rotates_across_rounds(self):
        sim, chain, consensus = make_committee(3)
        done = []
        consensus.propose(RECORDS, lambda ok, lat: done.append(ok))
        sim.run()
        consensus.propose(RECORDS, lambda ok, lat: done.append(ok))
        sim.run()
        creators = [b.header.aggregator for b in chain]
        assert creators == ["v0", "v1"]

    def test_rejection_decided_early(self):
        # With 3 validators and quorum > 2/3, 1 reject is decisive.
        sim, chain, consensus = make_committee(3, check=lambda r: False)
        outcomes = []
        consensus.propose(RECORDS, lambda ok, lat: outcomes.append(ok))
        sim.run()
        assert outcomes == [False]

    def test_empty_committee_rejected(self):
        sim = Simulator()
        with pytest.raises(ConsensusError):
            NetworkedPoaConsensus(sim, [], Blockchain())

    def test_invalid_configs_rejected(self):
        sim = Simulator()
        validator = NetworkedValidator(sim, AggregatorId("a"), BackhaulMesh(sim))
        with pytest.raises(ConsensusError, match="duplicate validators"):
            NetworkedPoaConsensus(sim, [validator, validator], Blockchain())
        with pytest.raises(ConsensusError, match="quorum ratio"):
            NetworkedPoaConsensus(sim, [validator], Blockchain(), quorum_ratio=1.5)


class TestInclusionReceipts:
    def build_chain(self):
        chain = Blockchain()
        for b in range(3):
            chain.append(
                "agg1", float(b),
                [{"device": f"d{i}", "device_uid": f"u{i}", "sequence": b,
                  "measured_at": float(b), "energy_mwh": 0.1 * i}
                 for i in range(5)],
            )
        return chain

    def test_issue_and_verify(self):
        chain = self.build_chain()
        receipt = issue_receipt(chain, 1, 3)
        assert receipt.verify()
        assert receipt.verify(chain)
        assert receipt.record["device"] == "d3"

    def test_find_by_device_and_sequence(self):
        chain = self.build_chain()
        receipt = find_and_issue(chain, "u2", 1)
        assert receipt.block_height == 1
        assert receipt.verify(chain)

    def test_find_missing_raises(self):
        chain = self.build_chain()
        with pytest.raises(ChainError):
            find_and_issue(chain, "ghost", 0)

    def test_forged_record_fails_verification(self):
        chain = self.build_chain()
        receipt = issue_receipt(chain, 1, 3)
        forged = type(receipt)(
            block_height=receipt.block_height,
            block_hash=receipt.block_hash,
            merkle_root=receipt.merkle_root,
            leaf_count=receipt.leaf_count,
            record=dict(receipt.record, energy_mwh=0.0),
            proof=receipt.proof,
        )
        assert not forged.verify()

    def test_receipt_against_rewritten_chain_fails(self):
        store = InMemoryBlockStore()
        chain = Blockchain(store)
        for b in range(3):
            chain.append(
                "agg1", float(b),
                [{"device": "d0", "device_uid": "u0", "sequence": b,
                  "measured_at": float(b), "energy_mwh": 1.0}],
            )
        receipt = issue_receipt(chain, 1, 0)
        # Attacker rewrites block 1 entirely (including its hash).
        forged_block = Block.create(
            height=1,
            previous_hash=chain.get(0).block_hash,
            aggregator="agg1",
            timestamp=1.0,
            records=[{"device": "d0", "device_uid": "u0", "sequence": 1,
                      "measured_at": 1.0, "energy_mwh": 0.0}],
        )
        store.tamper(1, forged_block)
        # Standalone proof still checks out (it is self-consistent)...
        assert receipt.verify()
        # ...but binding it to the live chain exposes the rewrite.
        assert not receipt.verify(chain)

    def test_out_of_range_issue_rejected(self):
        chain = self.build_chain()
        with pytest.raises(ChainError):
            issue_receipt(chain, 0, 99)
        with pytest.raises(ChainError):
            issue_receipt(chain, 99, 0)

    def test_receipt_bounds_checked_against_chain(self):
        chain = self.build_chain()
        receipt = issue_receipt(chain, 2, 0)
        shorter = Blockchain()
        assert not receipt.verify(shorter)
