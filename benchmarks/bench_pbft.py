"""A14 — the consensus ladder: trusted aggregator vs PoA vs PBFT.

Three trust models, three costs.  The trusted aggregator (the paper's
design) appends for free; PoA buys decentralization among *honest*
proposers for 2(n-1) mesh messages (A5's round); PBFT additionally
survives a *Byzantine* proposer for two phases of O(n^2) traffic.  This
bench measures all three on the same mesh and proves the Byzantine case
behaves.
"""

import pytest

from benchmarks.bench_consensus import run_round as run_poa_round
from repro.chain.pbft import PbftCluster, PbftReplica
from repro.experiments.report import render_table
from repro.ids import AggregatorId
from repro.net import BackhaulLink, BackhaulMesh
from repro.sim import Simulator

RECORDS = [{"device": "d", "device_uid": "u", "sequence": 0,
            "measured_at": 0.0, "energy_mwh": 0.5}]
FORGED = [{"device": "d", "device_uid": "u", "sequence": 0,
           "measured_at": 0.0, "energy_mwh": 0.0}]


def build_pbft(n=4, seed=0):
    sim = Simulator(seed=seed)
    mesh = BackhaulMesh(sim)
    replicas = [
        PbftReplica(sim, AggregatorId(f"r{i}"), mesh) for i in range(n)
    ]
    for i, a in enumerate(replicas):
        for b in replicas[i + 1:]:
            mesh.connect(BackhaulLink(a.node_id, b.node_id, latency_s=0.001))
    return sim, mesh, PbftCluster(replicas)


@pytest.mark.parametrize("n", [4, 7])
def test_pbft_commit_cost_and_latency(once, n):
    def run():
        sim, mesh, cluster = build_pbft(n)
        cluster.propose(RECORDS)
        sim.run()
        return mesh.messages_sent, sim.now, cluster

    messages, latency, cluster = once(run)
    print(f"\nPBFT n={n}: {messages} messages, commit in {latency * 1000:.1f} ms")
    assert cluster.converged_tip() is not None
    assert all(r.executed_count == 1 for r in cluster.replicas)
    # Two all-to-all phases dominate: O(n^2) with constant ~2.
    assert messages >= 2 * (n - 1) * (n - 1)


def test_consensus_ladder_table(once):
    def ladder():
        rows = [["trusted aggregator (paper)", 0, 0.0, "crash-stop only"]]
        _, latency, messages = run_poa_round(4)
        rows.append(["PoA 1-phase", messages, latency * 1000, "honest proposer"])
        sim, mesh, cluster = build_pbft(4)
        cluster.propose(RECORDS)
        sim.run()
        rows.append(
            ["PBFT 2-phase", mesh.messages_sent, sim.now * 1000,
             "Byzantine proposer (f=1)"]
        )
        return rows

    rows = once(ladder)
    print()
    print(render_table(
        ["protocol", "messages_per_block", "latency_ms", "tolerates"], rows
    ))
    # The ladder is strictly ordered in cost.
    assert rows[0][1] < rows[1][1] < rows[2][1]


def test_pbft_survives_equivocation_where_poa_would_not(once):
    def run():
        sim, _, cluster = build_pbft(4)
        cluster.propose_equivocating(RECORDS, FORGED)
        sim.run()
        return cluster

    cluster = once(run)
    # Nobody executed either half; no divergence.
    assert all(r.executed_count == 0 for r in cluster.replicas)
    assert cluster.converged_tip() is not None
    print("\nequivocating primary: 0/4 replicas executed, no divergence")
