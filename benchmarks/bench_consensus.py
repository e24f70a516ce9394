"""A5 — cost of the future-work consensus vs the trusted-aggregator chain.

Paper §II-A: with trusted aggregators "there is no consensus required";
§IV plans device-level consensus.  Quantifies what that would cost, in
messages the mesh actually sends: a PoA round sends the proposal to
n-1 validators and gets n-1 votes back, 2(n-1) messages per committed
block, while the no-consensus append sends none.
"""

import pytest

from repro.chain import Blockchain, NetworkedPoaConsensus, NetworkedValidator
from repro.experiments.report import render_table
from repro.ids import AggregatorId
from repro.net import BackhaulLink, BackhaulMesh
from repro.sim import Simulator

RECORDS = [
    {"device": f"d{i}", "device_uid": f"u{i}", "sequence": i,
     "measured_at": 0.0, "energy_mwh": 0.01}
    for i in range(8)
]


def run_round(validators):
    """One PoA round over 1 ms mesh links: (committed, latency, messages)."""
    sim = Simulator(seed=0)
    mesh = BackhaulMesh(sim)
    chain = Blockchain(authorized=set())
    committee = [
        NetworkedValidator(sim, AggregatorId(f"v{i}"), mesh)
        for i in range(validators)
    ]
    for i, a in enumerate(committee):
        for b in committee[i + 1:]:
            mesh.connect(BackhaulLink(a.node_id, b.node_id, latency_s=0.001))
    consensus = NetworkedPoaConsensus(sim, committee, chain)
    outcomes = []
    consensus.propose(RECORDS, lambda ok, lat: outcomes.append((ok, lat)))
    sim.run()
    committed, latency = outcomes[0]
    return committed, latency, mesh.messages_sent


def test_no_consensus_append_message_cost_is_zero(benchmark):
    chain = Blockchain()
    counter = iter(range(10**9))

    def append():
        chain.append("agg1", float(next(counter)), RECORDS)

    benchmark(append)
    print("\ntrusted-aggregator append: 0 consensus messages per block")


@pytest.mark.parametrize("validators", [2, 4, 8, 16])
def test_consensus_message_scaling(benchmark, validators):
    committed, _, messages = benchmark(run_round, validators)
    print(f"\n{validators} validators: {messages} mesh messages/block")
    assert committed
    assert messages == 2 * (validators - 1)


@pytest.mark.parametrize("validators", [3, 5, 9])
def test_networked_consensus_commit_latency(once, validators):
    """Latency, not just messages: a round over 1 ms mesh links."""
    committed, latency, _ = once(run_round, validators)
    print(f"\n{validators} validators: commit latency {latency * 1000:.2f} ms "
          "(trusted aggregator: 0 ms)")
    assert committed
    # One proposal hop + processing + one vote hop, plus slack.
    assert 0.004 <= latency <= 0.02


def test_consensus_cost_table(once):
    def sweep():
        return [[n, run_round(n)[2]] for n in (2, 4, 8, 16)]

    rows = once(sweep)
    print()
    print(render_table(["validators", "messages_per_block"], rows))
    # Linear growth: the proposal out and the votes back, 2 at n=2 and
    # 30 at n=16.
    assert rows == [[n, 2 * (n - 1)] for n in (2, 4, 8, 16)]
