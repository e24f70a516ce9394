"""Proof-of-authority consensus over the mesh — the paper's future work.

"In a truly decentralized network, the aggregators' role could be
performed by the devices themselves having a consensus among themselves"
(§II-A), and §IV plans "addition of consensus among devices".  This is
that extension: a known validator set on the backhaul mesh, a rotating
proposer, and a round that runs as

1. the proposer sends the proposal to every other validator,
2. each validator re-checks the records against its own acceptance
   predicate after a processing delay and sends its vote to the
   proposer (the proposer's own vote stays local),
3. the proposer commits once accepts strictly exceed 2/3 of the
   committee, or rejects once that is out of reach.

Every message is a mesh send, so :attr:`BackhaulMesh.messages_sent`
prices a round at 2(n−1) messages, and the commit latency — proposal
propagation + processing + vote propagation — is what a fully
decentralized deployment adds to every block, against the trusted
aggregator's zero.  A misbehaving proposer cannot commit fabricated
data, and a vote counts only from a committee member, under the mesh
source that delivered it, for the round's proposal hash, at the round's
proposer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.chain.hashing import hash_value
from repro.chain.ledger import Blockchain
from repro.errors import ConsensusError
from repro.ids import AggregatorId
from repro.net.backhaul import BackhaulMesh
from repro.sim.kernel import Simulator
from repro.sim.process import Process

RecordCheck = Callable[[list[dict[str, Any]]], bool]
CommitCallback = Callable[[bool, float], None]


@dataclass(frozen=True)
class _Proposal:
    round_id: int
    proposal_hash: str
    records: tuple[dict[str, Any], ...]
    timestamp: float
    proposer: AggregatorId
    # The caller's round the batch was built for (a decentralized
    # committee's gossip round), for validators that check against it.
    view_round: int | None = None


@dataclass(frozen=True)
class _NetVote:
    round_id: int
    proposal_hash: str
    voter: AggregatorId
    accept: bool


@dataclass
class _Round:
    proposal: _Proposal
    on_commit: CommitCallback
    voted: set[AggregatorId] = field(default_factory=set)
    accepts: int = 0
    rejects: int = 0


class NetworkedValidator(Process):
    """A consensus participant attached to the mesh.

    Args:
        simulator: The kernel.
        node_id: This validator's mesh identity.
        mesh: The backhaul network.
        check: Acceptance predicate over proposed record batches.
        processing_delay_s: Local evaluation time per proposal.
    """

    def __init__(
        self,
        simulator: Simulator,
        node_id: AggregatorId,
        mesh: BackhaulMesh,
        check: RecordCheck | None = None,
        processing_delay_s: float = 0.002,
    ) -> None:
        super().__init__(simulator, f"validator:{node_id.name}")
        if processing_delay_s < 0:
            raise ConsensusError(
                f"processing delay must be >= 0, got {processing_delay_s}"
            )
        self._node_id = node_id
        self._mesh = mesh
        self._check = check or (lambda records: True)
        self._processing_delay_s = processing_delay_s
        self._coordinator: "NetworkedPoaConsensus | None" = None
        mesh.add_aggregator(node_id, self._on_message)

    @property
    def node_id(self) -> AggregatorId:
        """This validator's mesh identity."""
        return self._node_id

    @property
    def mesh(self) -> BackhaulMesh:
        """The network this validator communicates over."""
        return self._mesh

    @property
    def processing_delay_s(self) -> float:
        """Local proposal-evaluation time."""
        return self._processing_delay_s

    def evaluate(self, proposal: "_Proposal") -> None:
        """Evaluate a proposal and emit the vote (public entry point)."""
        self._vote(proposal)

    def accepts(self, proposal: "_Proposal") -> bool:
        """This validator's verdict: its ``check`` over the records."""
        return bool(self._check(list(proposal.records)))

    def bind(self, coordinator: "NetworkedPoaConsensus") -> None:
        """Attach the round coordinator (done by the consensus object)."""
        self._coordinator = coordinator

    def _on_message(self, source: AggregatorId, payload: Any) -> None:
        if isinstance(payload, _Proposal):
            self.sim.call_later(
                self._processing_delay_s,
                lambda: self._vote(payload),
                label=f"{self.name}:evaluate",
            )
        elif isinstance(payload, _NetVote):
            if self._coordinator is not None:
                self._coordinator.receive_vote(self._node_id, source, payload)
        else:
            raise ConsensusError(
                f"unexpected consensus payload {type(payload).__name__}"
            )

    def _vote(self, proposal: _Proposal) -> None:
        accept = self.accepts(proposal)
        vote = _NetVote(proposal.round_id, proposal.proposal_hash, self._node_id, accept)
        self.trace("consensus.vote", round=proposal.round_id, accept=accept)
        # Vote goes to the proposer (commit decision is the proposer's).
        if proposal.proposer == self._node_id:
            if self._coordinator is not None:
                self._coordinator.receive_vote(self._node_id, self._node_id, vote)
        else:
            self._mesh.send(self._node_id, proposal.proposer, vote)


class NetworkedPoaConsensus(Process):
    """Round coordinator measuring commit latency over the mesh.

    Args:
        simulator: The kernel.
        validators: Validator set (order = proposer rotation); each
            validator appears once.
        chain: Ledger committed blocks land in.
        quorum_ratio: Strict-greater-than accept fraction.
    """

    def __init__(
        self,
        simulator: Simulator,
        validators: list[NetworkedValidator],
        chain: Blockchain,
        quorum_ratio: float = 2.0 / 3.0,
    ) -> None:
        super().__init__(simulator, "networked-consensus")
        if not validators:
            raise ConsensusError("validator set must be non-empty")
        members = {validator.node_id for validator in validators}
        if len(members) != len(validators):
            names = [validator.node_id.name for validator in validators]
            raise ConsensusError(f"duplicate validators in {names}")
        if not 0.0 < quorum_ratio < 1.0:
            raise ConsensusError(f"quorum ratio must be in (0, 1), got {quorum_ratio}")
        self._validators = list(validators)
        self._members = members
        self._chain = chain
        self._quorum_ratio = quorum_ratio
        self._round = 0
        self._pending: dict[int, _Round] = {}
        for validator in validators:
            validator.bind(self)
            chain.authorize(validator.node_id.name)

    @property
    def rounds_started(self) -> int:
        """Rounds proposed so far."""
        return self._round

    def propose(
        self,
        records: list[dict[str, Any]],
        on_commit: CommitCallback,
        view_round: int | None = None,
    ) -> int:
        """Start a round; ``on_commit(committed, latency_s)`` fires once.

        ``view_round`` travels with the proposal: the caller's round the
        batch was built for.  Returns the round id.
        """
        round_id = self._round
        self._round += 1
        proposer = self._validators[round_id % len(self._validators)]
        proposal = _Proposal(
            round_id=round_id,
            proposal_hash=hash_value({"round": round_id, "records": records}),
            records=tuple(records),
            timestamp=self.now,
            proposer=proposer.node_id,
            view_round=view_round,
        )
        self._pending[round_id] = _Round(proposal, on_commit)
        mesh = proposer.mesh
        for validator in self._validators:
            if validator.node_id != proposer.node_id:
                mesh.send(proposer.node_id, validator.node_id, proposal)
        # The proposer evaluates its own proposal too.
        self.sim.call_later(
            proposer.processing_delay_s,
            lambda: proposer.evaluate(proposal),
            label="consensus:self-vote",
        )
        return round_id

    def receive_vote(
        self, receiver: AggregatorId, source: AggregatorId, vote: _NetVote
    ) -> None:
        """Tally one vote the mesh delivered from ``source`` to ``receiver``.

        Only the round's proposer tallies, and only a committee member's
        first vote under its own mesh identity for the round's proposal
        hash counts; anything else is ignored.
        """
        state = self._pending.get(vote.round_id)
        if state is None:
            return
        proposal = state.proposal
        if (
            receiver != proposal.proposer
            or source != vote.voter
            or source not in self._members
            or vote.proposal_hash != proposal.proposal_hash
        ):
            self.trace("consensus.vote_ignored", round=vote.round_id, source=source.name)
            return
        if source in state.voted:
            return
        state.voted.add(source)
        if vote.accept:
            state.accepts += 1
        else:
            state.rejects += 1
        total = len(self._validators)
        quorum = self._quorum_ratio * total
        if state.accepts > quorum:
            self._decide(vote.round_id, committed=True)
        elif total - state.rejects <= quorum:
            # Even unanimous remaining accepts cannot reach quorum.
            self._decide(vote.round_id, committed=False)

    def _decide(self, round_id: int, committed: bool) -> None:
        state = self._pending.pop(round_id)
        proposal = state.proposal
        latency = self.now - proposal.timestamp
        if committed:
            self._chain.append(
                proposal.proposer.name, proposal.timestamp, list(proposal.records)
            )
        self.trace(
            "consensus.decided",
            round=round_id,
            committed=committed,
            latency_s=latency,
        )
        state.on_commit(committed, latency)
