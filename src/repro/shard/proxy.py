"""The per-shard backhaul mesh.

:class:`ShardBackhaulProxy` subclasses the serial
:class:`~repro.net.backhaul.BackhaulMesh` and keeps the *full* spec
topology in its links and route table, so latency lookups, partitions
and link injectors behave exactly as on the serial mesh.  Only delivery differs:
a message whose destination lives on another shard is appended to an
outbox (with its absolute arrival time) instead of being scheduled
locally; the runner drains outboxes at each window barrier and the
owning shard injects them via :meth:`ShardBackhaulProxy.deliver_remote`.

Counter discipline: ``messages_sent``/``messages_dropped`` follow the
serial mesh's send-side semantics on the *source* shard; the receiving
shard only ever counts in-flight-crash drops (mirroring the serial
``_arrive`` recheck), never a second send.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import BackhaulError
from repro.ids import AggregatorId
from repro.net.backhaul import BackhaulHandler, BackhaulMesh
from repro.shard.plane import RemoteMessage

if TYPE_CHECKING:
    from repro.runtime.context import SimContext
    from repro.sim.kernel import Simulator


class ShardBackhaulProxy(BackhaulMesh):
    """One shard's view of the global backhaul mesh.

    Args:
        runtime: The shard's kernel or shared context.
        shard_index: This shard's index (stamped on outbox messages).
        order: Every aggregator in the *full* spec, declaration order —
            broadcasts must fan out in exactly the serial iteration
            order, locals and remotes interleaved.
        remote: The subset of ``order`` owned by other shards.
        per_hop_cost_s: As on :class:`BackhaulMesh`.
    """

    def __init__(
        self,
        runtime: "Simulator | SimContext",
        shard_index: int,
        order: tuple[AggregatorId, ...],
        remote: frozenset[AggregatorId],
        per_hop_cost_s: float = 0.0002,
    ) -> None:
        super().__init__(runtime, per_hop_cost_s)
        unknown = set(remote) - set(order)
        if unknown:
            raise BackhaulError(
                f"remote aggregators not in the global order: "
                f"{sorted(a.name for a in unknown)}"
            )
        self._shard_index = shard_index
        self._order = tuple(order)
        self._remote = frozenset(remote)
        # Remote nodes join the mesh up front: links touching them must
        # wire, and routes must match the serial mesh's.
        for aggregator_id in self._order:
            if aggregator_id in self._remote:
                self._add_node(aggregator_id)
        self._outbox: list[RemoteMessage] = []
        self._outbox_seq = 0

    @property
    def shard_index(self) -> int:
        """This shard's index."""
        return self._shard_index

    @property
    def remote(self) -> frozenset[AggregatorId]:
        """Aggregators owned by other shards."""
        return self._remote

    def _knows(self, aggregator_id: AggregatorId) -> bool:
        return aggregator_id in self._handlers or aggregator_id in self._remote

    def add_aggregator(self, aggregator_id: AggregatorId, handler: BackhaulHandler) -> None:
        if aggregator_id in self._remote:
            raise BackhaulError(
                f"{aggregator_id} is owned by another shard; cannot attach locally"
            )
        super().add_aggregator(aggregator_id, handler)

    def send(self, source: AggregatorId, destination: AggregatorId, payload: Any) -> float:
        if destination not in self._remote:
            return super().send(source, destination, payload)
        if source in self._remote:
            raise BackhaulError(
                f"{source} is not local to shard {self._shard_index}; "
                "only the owning shard may originate its traffic"
            )
        span = None
        if self._spans.enabled:
            span = self._spans.begin(
                "backhaul.forward",
                self.name,
                source=source.name,
                destination=destination.name,
            )
        latency, copies = self._admit(source, destination, span)
        if copies == 0:
            return latency
        self.count("messages_sent")
        now = self.sim.now
        for _ in range(copies):
            self._outbox.append(
                RemoteMessage(
                    deliver_at=now + latency,
                    sent_at=now,
                    source_shard=self._shard_index,
                    seq=self._outbox_seq,
                    source=source,
                    destination=destination,
                    payload=payload,
                )
            )
            self._outbox_seq += 1
        if span is not None:
            # The source shard cannot observe the remote arrival; the
            # span closes at hand-off and the destination shard's
            # backhaul.remote_deliver trace point records the delivery.
            self._spans.finish(span, "forwarded", remote_shard=True)
        return latency

    def broadcast(self, source: AggregatorId, payload: Any) -> int:
        # Global declaration order, locals and remotes interleaved —
        # bit-identical side-effect order to the serial mesh's fan-out.
        others = [agg for agg in self._order if agg != source]
        for destination in others:
            self.send(source, destination, payload)
        return len(others)

    def drain_outbox(self) -> list[RemoteMessage]:
        """Take (and clear) the messages queued for other shards."""
        out = self._outbox
        self._outbox = []
        return out

    def deliver_remote(self, message: RemoteMessage) -> None:
        """Hand one inbound cross-shard message to its local handler.

        Runs *inside* the shard kernel at ``message.deliver_at`` —
        :meth:`ShardEngine.absorb` schedules it — and replays the serial
        ``_arrive`` closure: a destination that crashed while the
        message was in flight drops it (counted), otherwise the handler
        fires.
        """
        destination = message.destination
        if destination in self._down:
            self.count("messages_dropped")
            self.trace("backhaul.drop_down", destination=str(destination))
            return
        handler = self._handlers.get(destination)
        if handler is None:
            raise BackhaulError(
                f"{destination} is not local to shard {self._shard_index}"
            )
        self.trace(
            "backhaul.remote_deliver",
            source=str(message.source),
            destination=str(destination),
            source_shard=message.source_shard,
        )
        handler(message.source, message.payload)
