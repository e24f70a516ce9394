"""PBFT-lite: two-phase Byzantine-tolerant consensus over the mesh.

The PoA extension (:mod:`repro.chain.consensus_net`) assumes a correct
proposer: one vote round suffices.  A *Byzantine* proposer, however,
can equivocate — send different blocks to different validators — and a
single-phase protocol would let two groups commit different histories.
This module implements the classic two-phase answer (after Castro &
Liskov's PBFT, happy path):

1. **Pre-prepare** — the view's primary broadcasts the proposed block.
2. **Prepare** — every replica that accepts the payload broadcasts a
   *digest-bound* prepare; a replica is *prepared* once ``2f+1``
   matching prepares (its own included) exist for one digest.
3. **Commit** — prepared replicas broadcast commits; a replica
   *executes* (appends to its local ledger replica) at ``2f+1``
   matching commits.

With ``n = 3f+1`` replicas, at most ``f`` Byzantine, two conflicting
digests can never both gather ``2f+1`` prepares, so replicas' ledgers
cannot diverge — the property the tests assert directly by comparing
per-replica chain tips.  View changes (primary failover) are out of
scope: the committee here is crash-stop once past proposal, and the
paper's setting has no liveness adversary.
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


@dataclass(frozen=True)
class PrePrepare:
    """Phase 1: the primary's proposal for (view, seq)."""

    view: int
    seq: int
    digest: str
    records: tuple[dict[str, Any], ...]
    primary: AggregatorId


@dataclass(frozen=True)
class Prepare:
    """Phase 2: a replica vouches for one digest at (view, seq)."""

    view: int
    seq: int
    digest: str
    replica: AggregatorId


@dataclass(frozen=True)
class Commit:
    """Phase 3: a prepared replica is ready to execute the digest."""

    view: int
    seq: int
    digest: str
    replica: AggregatorId


@dataclass
class _SlotState:
    accepted_digest: str | None = None
    records: tuple[dict[str, Any], ...] = ()
    prepares: dict[str, set[AggregatorId]] = field(default_factory=dict)
    commits: dict[str, set[AggregatorId]] = field(default_factory=dict)
    prepared: bool = False
    executed: bool = False
    equivocation_seen: bool = False


class PbftReplica(Process):
    """One replica: local ledger copy plus the three-phase state machine.

    Args:
        simulator: The kernel.
        node_id: Mesh identity.
        mesh: The committee's network.
        check: Payload acceptance predicate.
        processing_delay_s: Local work per phase step.
    """

    def __init__(
        self,
        simulator: Simulator,
        node_id: AggregatorId,
        mesh: BackhaulMesh,
        check: RecordCheck | None = None,
        processing_delay_s: float = 0.002,
    ) -> None:
        super().__init__(simulator, f"pbft:{node_id.name}")
        if processing_delay_s < 0:
            raise ConsensusError(
                f"processing delay must be >= 0, got {processing_delay_s}"
            )
        self._node_id = node_id
        self._mesh = mesh
        self._check = check or (lambda records: True)
        self._delay = processing_delay_s
        self.chain = Blockchain()  # this replica's ledger copy
        self._slots: dict[tuple[int, int], _SlotState] = {}
        self._quorum = 1  # set by the cluster once n is known
        self._committee: tuple[AggregatorId, ...] = ()  # likewise
        self._executed_count = 0
        self._equivocations_detected = 0
        mesh.add_aggregator(node_id, self._on_message)

    @property
    def node_id(self) -> AggregatorId:
        """Mesh identity."""
        return self._node_id

    @property
    def mesh(self) -> BackhaulMesh:
        """The committee's network."""
        return self._mesh

    @property
    def executed_count(self) -> int:
        """Blocks this replica has executed."""
        return self._executed_count

    @property
    def equivocations_detected(self) -> int:
        """Conflicting pre-prepares observed for one (view, seq)."""
        return self._equivocations_detected

    def set_quorum(self, quorum: int) -> None:
        """Install the 2f+1 threshold (done by the cluster)."""
        if quorum < 1:
            raise ConsensusError(f"quorum must be >= 1, got {quorum}")
        self._quorum = quorum

    def set_committee(self, members: list[AggregatorId]) -> None:
        """Install the committee in primary-rotation order (done by the cluster)."""
        self._committee = tuple(members)

    def _primary_of(self, view: int) -> AggregatorId | None:
        committee = self._committee
        return committee[view % len(committee)] if committee else None

    def _slot(self, view: int, seq: int) -> _SlotState:
        return self._slots.setdefault((view, seq), _SlotState())

    def _broadcast(self, payload: Any) -> None:
        self._mesh.broadcast(self._node_id, payload)

    # -- message handling ---------------------------------------------------

    def _on_message(self, source: AggregatorId, payload: Any) -> None:
        # A phase message counts only under the mesh identity that sent
        # it: a pre-prepare from the view's primary, a prepare or commit
        # from a committee member.
        if isinstance(payload, PrePrepare):
            bound = source == payload.primary == self._primary_of(payload.view)
        elif isinstance(payload, (Prepare, Commit)):
            bound = source == payload.replica and source in self._committee
        else:
            raise ConsensusError(f"unexpected PBFT payload {type(payload).__name__}")
        if not bound:
            self.trace("pbft.unbound_message", kind=type(payload).__name__, source=source.name)
        elif isinstance(payload, PrePrepare):
            self.sim.call_later(
                self._delay, lambda: self._on_preprepare(payload),
                label=f"{self.name}:preprepare",
            )
        elif isinstance(payload, Prepare):
            self._register_prepare(payload)
        else:
            self._register_commit(payload)

    def _on_preprepare(self, message: PrePrepare) -> None:
        slot = self._slot(message.view, message.seq)
        if slot.accepted_digest is not None:
            if slot.accepted_digest != message.digest:
                # The primary equivocated: same slot, different payloads.
                slot.equivocation_seen = True
                self._equivocations_detected += 1
                self.trace("pbft.equivocation", view=message.view, seq=message.seq)
            return
        if hash_value(list(message.records)) != message.digest:
            self.trace("pbft.bad_digest", view=message.view, seq=message.seq)
            return
        if not self._check(list(message.records)):
            self.trace("pbft.payload_rejected", view=message.view, seq=message.seq)
            return
        slot.accepted_digest = message.digest
        slot.records = message.records
        prepare = Prepare(message.view, message.seq, message.digest, self._node_id)
        self._register_prepare(prepare)
        self._broadcast(prepare)

    def _register_prepare(self, message: Prepare) -> None:
        slot = self._slot(message.view, message.seq)
        slot.prepares.setdefault(message.digest, set()).add(message.replica)
        if (
            not slot.prepared
            and slot.accepted_digest == message.digest
            and len(slot.prepares[message.digest]) >= self._quorum
        ):
            slot.prepared = True
            commit = Commit(message.view, message.seq, message.digest, self._node_id)
            self._register_commit(commit)
            self._broadcast(commit)

    def _register_commit(self, message: Commit) -> None:
        slot = self._slot(message.view, message.seq)
        slot.commits.setdefault(message.digest, set()).add(message.replica)
        if (
            slot.prepared
            and not slot.executed
            and slot.accepted_digest == message.digest
            and len(slot.commits[message.digest]) >= self._quorum
        ):
            slot.executed = True
            self._executed_count += 1
            self.chain.append(
                f"view{message.view}", float(message.seq), list(slot.records)
            )
            self.trace("pbft.executed", view=message.view, seq=message.seq)


class PbftCluster:
    """Committee wiring and the client-side propose API.

    Args:
        replicas: The committee; ``n = 3f+1`` gives tolerance ``f``.
    """

    def __init__(self, replicas: list[PbftReplica]) -> None:
        if len(replicas) < 4:
            raise ConsensusError(
                f"PBFT needs >= 4 replicas (n=3f+1, f>=1), got {len(replicas)}"
            )
        names = [r.node_id for r in replicas]
        if len(set(names)) != len(names):
            raise ConsensusError("duplicate replica identities")
        self._replicas = list(replicas)
        self._seq = 0
        self._view = 0
        for replica in replicas:
            replica.set_quorum(self.quorum)
            replica.set_committee(names)

    @property
    def f(self) -> int:
        """Byzantine replicas tolerated."""
        return (len(self._replicas) - 1) // 3

    @property
    def quorum(self) -> int:
        """The 2f+1 threshold."""
        return 2 * self.f + 1

    @property
    def replicas(self) -> list[PbftReplica]:
        """The committee."""
        return list(self._replicas)

    def primary(self) -> PbftReplica:
        """The current view's primary."""
        return self._replicas[self._view % len(self._replicas)]

    def propose(self, records: list[dict[str, Any]]) -> int:
        """Honest proposal: the primary pre-prepares one payload."""
        seq = self._seq
        self._seq += 1
        primary = self.primary()
        message = PrePrepare(
            view=self._view,
            seq=seq,
            digest=hash_value(records),
            records=tuple(records),
            primary=primary.node_id,
        )
        primary._on_preprepare(message)  # the primary processes its own
        primary.mesh.broadcast(primary.node_id, message)
        return seq

    def propose_equivocating(
        self,
        records_a: list[dict[str, Any]],
        records_b: list[dict[str, Any]],
    ) -> int:
        """Byzantine proposal: different payloads to the two halves.

        Used by tests/benches to demonstrate that no replica executes —
        neither digest can reach a 2f+1 prepare quorum.
        """
        seq = self._seq
        self._seq += 1
        primary = self.primary()
        halves = (records_a, records_b)
        others = [r for r in self._replicas if r.node_id != primary.node_id]
        for index, replica in enumerate(others):
            payload = halves[index % 2]
            message = PrePrepare(
                view=self._view,
                seq=seq,
                digest=hash_value(payload),
                records=tuple(payload),
                primary=primary.node_id,
            )
            primary.mesh.send(primary.node_id, replica.node_id, message)
        return seq

    def converged_tip(self) -> str | None:
        """The common chain tip, or None if replicas diverge."""
        tips = {replica.chain.tip_hash for replica in self._replicas}
        if len(tips) == 1:
            return next(iter(tips))
        return None
