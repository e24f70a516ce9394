"""Safety tests for the proof-of-authority rounds on the mesh."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chain import Blockchain, NetworkedPoaConsensus, NetworkedValidator
from repro.chain.consensus_net import _NetVote
from repro.chain.hashing import hash_value
from repro.ids import AggregatorId
from repro.net import BackhaulLink, BackhaulMesh
from repro.sim import Simulator

RECORDS = [{"device": "d", "device_uid": "u", "sequence": 0,
            "measured_at": 0.0, "energy_mwh": 0.1}]
MEMBERS = [AggregatorId(f"v{i}") for i in range(4)]  # v0 proposes round 0
PROPOSER, OTHERS = MEMBERS[0], MEMBERS[1:]
NEXT = OTHERS[1:] + OTHERS[:1]  # v2, v3, v1
OUTSIDERS = [AggregatorId(f"outsider{i}") for i in range(3)]
# Three accept votes as (mesh source, destination, claimed voter, the
# round's hash?); only the members' own votes to the proposer count.
SENDERS = {
    "members": [(v, PROPOSER, v, True) for v in OTHERS],
    "ghosts": [(OUTSIDERS[0], PROPOSER, AggregatorId(f"ghost{i}"), False) for i in range(3)],
    "impersonators": [(OUTSIDERS[0], PROPOSER, v, True) for v in OTHERS],
    "swapped_ids": [(v, PROPOSER, n, True) for v, n in zip(OTHERS, NEXT)],
    "outsiders": [(o, PROPOSER, o, True) for o in OUTSIDERS],
    "another_proposal": [(v, PROPOSER, v, False) for v in OTHERS],
    "not_to_the_proposer": [(v, n, v, True) for v, n in zip(OTHERS, NEXT)],
}


def committee(checks, latencies=(), spans=False):
    """A fully meshed committee with one validator per acceptance check.

    ``latencies`` gives the links' latencies in wiring order; a link
    past its end takes 1 ms.
    """
    sim = Simulator(seed=0, spans=spans)
    mesh = BackhaulMesh(sim)
    chain = Blockchain(authorized=set())
    validators = [
        NetworkedValidator(sim, AggregatorId(f"v{i}"), mesh, check=check)
        for i, check in enumerate(checks)
    ]
    latencies = iter(latencies)
    for i, a in enumerate(validators):
        for b in validators[i + 1:]:
            latency_s = next(latencies, 0.001)
            mesh.connect(BackhaulLink(a.node_id, b.node_id, latency_s=latency_s))
    return sim, mesh, chain, NetworkedPoaConsensus(sim, validators, chain)


def honest_as(votes):
    """One acceptance check per entry of ``votes``, answering it."""
    return [(lambda accept: (lambda records: accept))(accept) for accept in votes]


class TestSynchronousConsensusSafety:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=12))
    @example([True] * 6 + [False] * 3)  # exactly 2/3 is not a quorum
    def test_commit_iff_strict_quorum(self, votes):
        """Every link takes 1 ms, so the votes reach the proposer in
        lock step. For any validator honesty pattern, each validator
        votes once, as its check says; a block commits exactly when
        accepts strictly exceed 2/3 of the committee; and the round
        costs 2(n-1) mesh messages: the proposal out, the votes back."""
        sim, mesh, chain, consensus = committee(honest_as(votes), spans=True)
        outcomes = []
        consensus.propose(RECORDS, lambda ok, lat: outcomes.append(ok))
        sim.run()
        cast = sorted(
            (span.actor, span.tags["accept"]) for span in sim.spans.by_name("consensus.vote")
        )
        assert cast == sorted((f"validator:v{i}", accept) for i, accept in enumerate(votes))
        expected = sum(votes) > (2.0 / 3.0) * len(votes)
        assert outcomes == [expected]
        assert chain.height == (1 if expected else 0)
        assert mesh.messages_sent == 2 * (len(votes) - 1)


class TestNetworkedConsensusSafety:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.booleans(), min_size=2, max_size=7), st.data())
    def test_networked_commit_iff_quorum(self, votes, data):
        """With each link's latency drawn, the votes reach the proposer
        in any order, and it may decide before the last one arrives; the
        block still commits exactly when accepts strictly exceed 2/3 of
        the committee."""
        links = len(votes) * (len(votes) - 1) // 2
        latencies = data.draw(st.lists(
            st.floats(min_value=0.0005, max_value=0.05), min_size=links, max_size=links
        ))
        sim, _, chain, consensus = committee(honest_as(votes), latencies)
        outcomes = []
        consensus.propose(RECORDS, lambda ok, lat: outcomes.append(ok))
        sim.run()
        expected = sum(votes) > (2.0 / 3.0) * len(votes)
        assert outcomes == [expected]
        assert chain.height == (1 if expected else 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=10), st.data())
    def test_height_equals_committed_rounds(self, n_validators, data):
        """Rounds run back to back, each with its own honesty pattern
        (carried in the batch): the chain holds exactly the committed
        rounds, each made by that round's rotating proposer."""
        patterns = data.draw(st.lists(
            st.lists(st.booleans(), min_size=n_validators, max_size=n_validators),
            max_size=20,
        ))
        sim, _, chain, consensus = committee(
            (lambda i: (lambda records: records[0]["votes"][i]))(i)
            for i in range(n_validators)
        )
        committed = []
        for round_id, pattern in enumerate(patterns):
            outcomes = []
            consensus.propose([{"votes": pattern}], lambda ok, lat: outcomes.append(ok))
            sim.run()
            assert outcomes == [sum(pattern) > (2.0 / 3.0) * n_validators]
            if outcomes[0]:
                committed.append(f"v{round_id % n_validators}")
        assert chain.height == len(committed)
        assert [block.header.aggregator for block in chain] == committed
        chain.validate()

    @pytest.mark.parametrize("senders", SENDERS)
    def test_forged_votes_are_not_counted(self, senders):
        """Every validator rejects the batch, and three accept votes race
        the honest rejects to the mesh. A vote counts only from a
        committee member, under the mesh source that delivered it, for
        the round's proposal hash, at the round's proposer: so only the
        members' own early accepts (the control) commit the batch."""
        sim, mesh, chain, consensus = committee([lambda r: False] * 4)
        for outsider in OUTSIDERS:
            mesh.add_aggregator(outsider, lambda source, payload: None)
            mesh.connect(BackhaulLink(outsider, PROPOSER, latency_s=0.001))
        outcomes = []
        consensus.propose(RECORDS, lambda ok, lat: outcomes.append(ok))
        round_hash = hash_value({"round": 0, "records": RECORDS})
        for source, destination, voter, right_hash in SENDERS[senders]:
            vote = _NetVote(0, round_hash if right_hash else "0" * 64, voter, True)
            mesh.send(source, destination, vote)
        sim.run()
        assert outcomes == [senders == "members"]
        assert chain.height == (1 if senders == "members" else 0)
