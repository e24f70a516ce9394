"""Inter-aggregator backhaul mesh.

"The aggregators are interconnected through a mesh/cloud network to
exchange consumption data of the devices connected to them", and the
paper measures the aggregator-to-aggregator delay at ~1 ms because "the
backhaul network is assumed to have high bandwidth" (§III-B).

We model the mesh as an adjacency map whose links carry latency;
messages route over the minimum-latency path and arrive after the sum of
link latencies plus per-hop forwarding cost.  Routes change only with
the topology, so each ``(source, destination)`` route is computed once
and kept in a route table until an aggregator or link is added.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import BackhaulError
from repro.faults.injectors import FaultAction, LinkFaultInjector
from repro.ids import AggregatorId
from repro.sim.kernel import Simulator
from repro.sim.process import Process

if TYPE_CHECKING:
    from repro.runtime.context import SimContext

BackhaulHandler = Callable[[AggregatorId, Any], None]
Route = tuple[float, tuple[AggregatorId, ...]]


@dataclass(frozen=True)
class BackhaulLink:
    """One mesh link between two aggregators."""

    a: AggregatorId
    b: AggregatorId
    latency_s: float = 0.001

    def __post_init__(self) -> None:
        if self.latency_s <= 0:
            raise BackhaulError(f"link latency must be positive, got {self.latency_s}")
        if self.a == self.b:
            raise BackhaulError(f"self-link at {self.a} not allowed")


class BackhaulMesh(Process):
    """Routes messages between aggregators over the mesh.

    A route minimises the summed link latency.  Ties go to the path
    with fewer hops, then to the one Dijkstra finds first when it
    settles aggregators in ``(latency, hops, name)`` order, so a route
    never depends on the order links were wired.

    Args:
        runtime: The kernel, or a shared :class:`SimContext`.
        per_hop_cost_s: Forwarding cost added at each intermediate hop.
    """

    def __init__(
        self, runtime: "Simulator | SimContext", per_hop_cost_s: float = 0.0002
    ) -> None:
        super().__init__(runtime, "backhaul")
        if per_hop_cost_s < 0:
            raise BackhaulError(f"per-hop cost must be >= 0, got {per_hop_cost_s}")
        # aggregator -> {neighbour: link latency}; every link both ways.
        self._links: dict[AggregatorId, dict[AggregatorId, float]] = {}
        # (source, destination) -> (latency, path), filled on first use
        # and cleared whenever an aggregator or link is added.
        self._routes: dict[tuple[AggregatorId, AggregatorId], Route] = {}
        self._handlers: dict[AggregatorId, BackhaulHandler] = {}
        self._per_hop_cost_s = per_hop_cost_s
        self._partition: list[frozenset[AggregatorId]] | None = None
        self._down: set[AggregatorId] = set()
        self._link_injectors: dict[frozenset[AggregatorId], LinkFaultInjector] = {}

    @property
    def messages_sent(self) -> int:
        """Total messages routed so far."""
        return self.counted("messages_sent")

    @property
    def messages_dropped(self) -> int:
        """Messages lost to partitions, downed nodes or link faults."""
        return self.counted("messages_dropped")

    @property
    def partitioned(self) -> bool:
        """Whether a partition is currently in force."""
        return self._partition is not None

    # -- fault injection -------------------------------------------------

    def set_partition(self, groups: list[set[AggregatorId]]) -> None:
        """Split the mesh: messages between different groups are lost.

        Every aggregator must appear in exactly one group.  The physical
        links stay configured — :meth:`heal_partition` restores service
        without re-wiring.
        """
        seen: set[AggregatorId] = set()
        for group in groups:
            overlap = seen & group
            if overlap:
                raise BackhaulError(f"aggregators in two groups: {sorted(a.name for a in overlap)}")
            seen |= group
        missing = set(self._handlers) - seen
        if missing:
            raise BackhaulError(
                f"partition misses aggregators: {sorted(a.name for a in missing)}"
            )
        self._partition = [frozenset(group) for group in groups]
        self.trace("backhaul.partition", groups=len(groups))

    def heal_partition(self) -> None:
        """Remove the partition; traffic flows again.  Idempotent."""
        self._partition = None
        self.trace("backhaul.heal")

    def set_node_down(self, aggregator_id: AggregatorId, down: bool) -> None:
        """Mark one aggregator crashed: messages to/from it are lost."""
        if aggregator_id not in self._handlers:
            raise BackhaulError(f"unknown aggregator {aggregator_id}")
        if down:
            self._down.add(aggregator_id)
        else:
            self._down.discard(aggregator_id)

    def install_link_injector(
        self,
        a: AggregatorId,
        b: AggregatorId,
        injector: LinkFaultInjector | None,
    ) -> None:
        """Attach a fault injector to the direct mesh link ``a — b``.

        Every message whose best path crosses the link consults the
        injector; ``None`` removes a previously installed one.
        """
        if b not in self._links.get(a, ()):
            raise BackhaulError(f"no mesh link {a} -- {b}")
        key = frozenset((a, b))
        if injector is None:
            self._link_injectors.pop(key, None)
        else:
            self._link_injectors[key] = injector

    def _severed(self, source: AggregatorId, destination: AggregatorId) -> bool:
        """Whether a partition or downed node makes delivery impossible."""
        if source in self._down or destination in self._down:
            return True
        if self._partition is None:
            return False
        for group in self._partition:
            if source in group:
                return destination not in group
        return True

    def add_aggregator(self, aggregator_id: AggregatorId, handler: BackhaulHandler) -> None:
        """Attach an aggregator and its receive handler to the mesh."""
        if aggregator_id in self._handlers:
            raise BackhaulError(f"{aggregator_id} already on the mesh")
        self._links.setdefault(aggregator_id, {})
        self._routes.clear()
        self._handlers[aggregator_id] = handler

    def connect(self, link: BackhaulLink) -> None:
        """Add one mesh link (re-wiring a pair replaces its latency)."""
        for end in (link.a, link.b):
            if end not in self._handlers:
                raise BackhaulError(f"{end} is not on the mesh")
        self._links[link.a][link.b] = link.latency_s
        self._links[link.b][link.a] = link.latency_s
        self._routes.clear()

    def route(self, source: AggregatorId, destination: AggregatorId) -> Route:
        """``(latency, path)`` of the best route, from the route table.

        The latency is the path's link latencies summed in path order
        plus ``per_hop_cost_s`` per intermediate hop.
        """
        route = self._routes.get((source, destination))
        if route is None:
            if source == destination:
                return 0.0, (source,)
            self._fill_routes(source)
            route = self._routes.get((source, destination))
            if route is None:
                raise BackhaulError(f"no backhaul path {source} -> {destination}")
        return route

    def _fill_routes(self, source: AggregatorId) -> None:
        """Dijkstra from ``source``: tabulate a route to every reachable node."""
        if source not in self._links:
            return
        best: dict[AggregatorId, tuple[float, int]] = {source: (0.0, 0)}
        paths = {source: (source,)}
        queue = [(0.0, 0, source)]
        while queue:
            latency, hops, node = heapq.heappop(queue)
            if best[node] != (latency, hops):
                continue  # superseded by a better offer
            for neighbour, link_latency in self._links[node].items():
                offer = (latency + link_latency, hops + 1)
                if neighbour not in best or offer < best[neighbour]:
                    best[neighbour] = offer
                    paths[neighbour] = paths[node] + (neighbour,)
                    heapq.heappush(queue, (*offer, neighbour))
        for node, (latency, hops) in best.items():
            if node != source:
                latency += self._per_hop_cost_s * (hops - 1)
                self._routes[(source, node)] = (latency, paths[node])

    def latency_s(self, source: AggregatorId, destination: AggregatorId) -> float:
        """End-to-end latency along the best path."""
        return self.route(source, destination)[0]

    def send(self, source: AggregatorId, destination: AggregatorId, payload: Any) -> float:
        """Deliver ``payload`` to ``destination``; returns the latency.

        Injected faults apply here: messages crossing a partition or
        touching a crashed node are lost (counted, not raised — a
        partition is an operational condition, not a wiring error), and
        each traversed link's injector may drop, corrupt, delay or
        duplicate the message.
        """
        handler = self._handlers.get(destination)
        if handler is None:
            raise BackhaulError(f"unknown destination {destination}")
        span = None
        if self._spans.enabled:
            span = self._spans.begin(
                "backhaul.forward",
                self.name,
                source=source.name,
                destination=destination.name,
            )
        if self._severed(source, destination):
            self.count("messages_dropped")
            if span is not None:
                self._spans.finish(span, "dropped", reason="severed")
            return 0.0
        latency, path = self.route(source, destination)
        copies = 1
        if self._link_injectors:
            for a, b in zip(path, path[1:]):
                injector = self._link_injectors.get(frozenset((a, b)))
                if injector is None:
                    continue
                verdict = injector.message_verdict()
                if verdict in (FaultAction.DROP, FaultAction.CORRUPT):
                    self.count("messages_dropped")
                    if span is not None:
                        self._spans.finish(span, "dropped", reason=verdict.value)
                    return latency
                if verdict is FaultAction.DELAY:
                    latency += injector.extra_delay_s
                elif verdict is FaultAction.DUPLICATE:
                    copies = 2
        self.count("messages_sent")

        def _arrive() -> None:
            # finish() is idempotent, so a DUPLICATE fault's second copy
            # leaves the span's outcome to whichever copy landed first.
            if destination in self._down:
                # Crashed while the message was in flight.
                self.count("messages_dropped")
                if span is not None:
                    self._spans.finish(span, "dropped", reason="node_down")
                return
            if span is not None:
                self._spans.finish(span, "delivered")
            handler(source, payload)

        for _ in range(copies):
            self.sim.call_later(latency, _arrive, label=f"backhaul:{source}->{destination}")
        return latency

    def broadcast(self, source: AggregatorId, payload: Any) -> int:
        """Send ``payload`` to every other aggregator; returns fan-out."""
        others = [agg for agg in self._handlers if agg != source]
        for destination in others:
            self.send(source, destination, payload)
        return len(others)
