"""Tests for the PBFT-lite two-phase consensus."""

import pytest

from repro.chain.hashing import hash_value
from repro.chain.pbft import Commit, PbftCluster, PbftReplica, Prepare, PrePrepare
from repro.errors import ConsensusError
from repro.ids import AggregatorId
from repro.net import BackhaulLink, BackhaulMesh
from repro.sim import Simulator

RECORDS_A = [{"device": "d", "device_uid": "u", "sequence": 0,
              "measured_at": 0.0, "energy_mwh": 0.5}]
RECORDS_B = [{"device": "d", "device_uid": "u", "sequence": 0,
              "measured_at": 0.0, "energy_mwh": 0.0}]  # the forged half


def build_cluster(n=4, check=None, seed=0):
    sim = Simulator(seed=seed)
    mesh = BackhaulMesh(sim)
    replicas = [
        PbftReplica(sim, AggregatorId(f"r{i}"), mesh, check=check)
        for i in range(n)
    ]
    for i, a in enumerate(replicas):
        for b in replicas[i + 1:]:
            mesh.connect(BackhaulLink(a.node_id, b.node_id, latency_s=0.001))
    return sim, PbftCluster(replicas)


class TestHonestPath:
    def test_all_replicas_execute_and_converge(self):
        sim, cluster = build_cluster(4)
        cluster.propose(RECORDS_A)
        sim.run()
        assert all(r.executed_count == 1 for r in cluster.replicas)
        tip = cluster.converged_tip()
        assert tip is not None
        for replica in cluster.replicas:
            replica.chain.validate()
            assert replica.chain.height == 1

    def test_multiple_sequences_in_order(self):
        sim, cluster = build_cluster(7)
        for i in range(5):
            cluster.propose([dict(RECORDS_A[0], sequence=i)])
            sim.run()
        assert cluster.converged_tip() is not None
        assert cluster.replicas[0].chain.height == 5

    def test_f_and_quorum(self):
        _, cluster4 = build_cluster(4)
        assert cluster4.f == 1 and cluster4.quorum == 3
        _, cluster7 = build_cluster(7)
        assert cluster7.f == 2 and cluster7.quorum == 5

    def test_implausible_payload_not_executed(self):
        def plausible(records):
            return all(r["energy_mwh"] < 100 for r in records)

        sim, cluster = build_cluster(4, check=plausible)
        cluster.propose([dict(RECORDS_A[0], energy_mwh=1e9)])
        sim.run()
        assert all(r.executed_count == 0 for r in cluster.replicas)


class TestByzantinePrimary:
    def test_equivocation_never_executes(self):
        # The property single-phase PoA cannot give: a primary sending
        # different blocks to different replicas commits NOWHERE,
        # because neither digest reaches a 2f+1 prepare quorum.
        sim, cluster = build_cluster(4)
        cluster.propose_equivocating(RECORDS_A, RECORDS_B)
        sim.run()
        assert all(r.executed_count == 0 for r in cluster.replicas)
        assert cluster.converged_tip() is not None  # all still at genesis

    def test_equivocation_never_diverges_at_scale(self):
        sim, cluster = build_cluster(10)
        cluster.propose_equivocating(RECORDS_A, RECORDS_B)
        sim.run()
        tips = {r.chain.tip_hash for r in cluster.replicas}
        assert len(tips) == 1

    def test_equivocation_is_detected_by_someone(self):
        # With prepares carrying digests, replicas holding digest A see
        # quorum-blocking prepares for digest B — and any replica that
        # receives both pre-prepares flags it.  (Detection requires the
        # conflicting halves to cross paths; at n=4 with 3 non-primary
        # replicas, at least the odd one out overlaps.)
        sim, cluster = build_cluster(4)
        cluster.propose_equivocating(RECORDS_A, RECORDS_B)
        sim.run()
        # No execution is the hard guarantee; detection is best-effort.
        assert all(r.executed_count == 0 for r in cluster.replicas)

    @pytest.mark.parametrize("forgers", ["impersonators", "outsiders"])
    def test_forged_prepares_and_commits_never_execute(self, forgers):
        # The primary equivocates, then r1 gets two more prepares and
        # commits for its digest: from the primary under the other
        # replicas' ids, or from two outside mesh nodes under their own.
        # A phase message counts only from a committee member, under
        # the mesh identity that sent it, so r1 stays unprepared and
        # the ledgers cannot diverge.
        sim, cluster = build_cluster(4)
        primary, target, *others = cluster.replicas
        mesh = primary.mesh
        if forgers == "impersonators":
            senders = [(primary.node_id, other.node_id) for other in others]
        else:
            outsiders = [AggregatorId(f"o{i}") for i in range(2)]
            senders = [(outsider, outsider) for outsider in outsiders]
            for outsider in outsiders:
                mesh.add_aggregator(outsider, lambda source, payload: None)
                mesh.connect(BackhaulLink(outsider, target.node_id, latency_s=0.001))
        cluster.propose_equivocating(RECORDS_A, RECORDS_B)
        digest = hash_value(RECORDS_A)
        for source, claimed in senders:
            for message in (Prepare(0, 0, digest, claimed), Commit(0, 0, digest, claimed)):
                mesh.send(source, target.node_id, message)
        sim.run()
        assert all(r.executed_count == 0 for r in cluster.replicas)
        assert cluster.converged_tip() is not None

    def test_preprepare_counts_only_from_the_primary(self):
        # A backup races the primary with a forged pre-prepare in its
        # name; only the view's primary may propose, so every replica
        # still executes the honest block.
        sim, cluster = build_cluster(4)
        primary, *backups = cluster.replicas
        forged = PrePrepare(0, 0, hash_value(RECORDS_B), tuple(RECORDS_B), primary.node_id)
        for backup in backups[:-1]:
            primary.mesh.send(backups[-1].node_id, backup.node_id, forged)
        cluster.propose(RECORDS_A)
        sim.run()
        assert all(r.executed_count == 1 for r in cluster.replicas)
        assert cluster.converged_tip() is not None

    def test_honest_round_after_byzantine_round(self):
        sim, cluster = build_cluster(4)
        cluster.propose_equivocating(RECORDS_A, RECORDS_B)
        sim.run()
        cluster.propose(RECORDS_A)
        sim.run()
        assert all(r.executed_count == 1 for r in cluster.replicas)
        assert cluster.converged_tip() is not None


class TestClusterValidation:
    def test_too_small_committee_rejected(self):
        sim = Simulator()
        mesh = BackhaulMesh(sim)
        replicas = [
            PbftReplica(sim, AggregatorId(f"r{i}"), mesh) for i in range(3)
        ]
        with pytest.raises(ConsensusError):
            PbftCluster(replicas)

    def test_duplicate_identities_rejected(self):
        sim = Simulator()
        mesh = BackhaulMesh(sim)
        PbftReplica(sim, AggregatorId("r0"), mesh)
        with pytest.raises(Exception):
            # Second registration of the same mesh identity fails at the
            # mesh level already.
            PbftReplica(sim, AggregatorId("r0"), mesh)

    def test_bad_quorum_rejected(self):
        sim = Simulator()
        mesh = BackhaulMesh(sim)
        replica = PbftReplica(sim, AggregatorId("r0"), mesh)
        with pytest.raises(ConsensusError):
            replica.set_quorum(0)
