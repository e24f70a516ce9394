"""Transport abstraction: what the protocol layers see of the wire.

The paper's architecture (Fig. 2) layers the device stack — application,
data, network — but the reproduction's actors were originally hard-wired
to the MQTT-over-Wi-Fi models.  This module names the seam instead:

* :class:`Endpoint` — the aggregator-hosted message hub (topic-based
  routing with MQTT wildcard filters, downtime and fault-injection
  hooks, a connect-latency model),
* :class:`TopicRouter` — the subscription table every endpoint routes
  with, resolving each topic once until the table changes,
* :class:`DeviceLink` — the device-side session (connect / publish /
  disconnect with :class:`QoS` delivery semantics),
* :class:`RadioModel` — the network-entry latencies (scan, association)
  and the RSSI a device sees at a distance,
* :class:`Transport` — the backend factory tying the three together,
* :class:`Mesh` — the structural interface of the inter-aggregator
  backhaul that the roaming/consensus layers speak.

Concrete backends live in :mod:`repro.transport.mqtt` (full radio
fidelity, wraps :mod:`repro.net.mqtt` / :mod:`repro.net.wifi`) and
:mod:`repro.transport.direct` (in-process router with fixed latencies
for large-fleet runs).  Protocol code — :mod:`repro.device.stack`,
:mod:`repro.aggregator.unit` — talks only to the interfaces here and
never names a backend module.
"""

from __future__ import annotations

import abc
import enum
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

from repro.errors import NetworkError

if TYPE_CHECKING:
    from repro.faults.injectors import LinkFaultInjector
    from repro.ids import AggregatorId
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process

Subscriber = Callable[[str, Any], None]


class QoS(enum.IntEnum):
    """Delivery semantics of one published message (MQTT levels)."""

    AT_MOST_ONCE = 0
    AT_LEAST_ONCE = 1


def topic_matches(pattern: str, topic: str) -> bool:
    """MQTT topic-filter matching with ``+`` and trailing ``#``."""
    pattern_parts = pattern.split("/")
    topic_parts = topic.split("/")
    for i, part in enumerate(pattern_parts):
        if part == "#":
            if i != len(pattern_parts) - 1:
                raise NetworkError(f"'#' must be the last level in filter {pattern!r}")
            return True
        if i >= len(topic_parts):
            return False
        if part != "+" and part != topic_parts[i]:
            return False
    return len(pattern_parts) == len(topic_parts)


def compile_topic_filter(pattern: str) -> Callable[[str], bool]:
    """Precompile ``pattern`` into a ``topic -> bool`` matcher.

    Splits and validates the filter once at subscribe time instead of on
    every routed message; the returned matcher gives exactly
    ``topic_matches(pattern, topic)`` answers.  Raises
    :class:`~repro.errors.NetworkError` for a non-terminal ``#`` — the
    same eager-validation contract brokers apply on subscribe.
    """
    parts = pattern.split("/")
    if "#" in parts:
        if parts.index("#") != len(parts) - 1:
            raise NetworkError(f"'#' must be the last level in filter {pattern!r}")
        prefix = tuple(parts[:-1])

        def match_hash(topic: str, _prefix: tuple[str, ...] = prefix) -> bool:
            topic_parts = topic.split("/")
            if len(topic_parts) < len(_prefix):
                return False
            for want, got in zip(_prefix, topic_parts):
                if want != "+" and want != got:
                    return False
            return True

        return match_hash
    if "+" not in parts:
        return pattern.__eq__
    levels = tuple(parts)

    def match_plus(topic: str, _levels: tuple[str, ...] = levels) -> bool:
        topic_parts = topic.split("/")
        if len(topic_parts) != len(_levels):
            return False
        for want, got in zip(_levels, topic_parts):
            if want != "+" and want != got:
                return False
        return True

    return match_plus


class TopicRouter:
    """One endpoint's subscription table with a per-topic route cache.

    :meth:`targets` resolves the callbacks whose filter matches a topic,
    in subscription order, once per topic; the answer stays in
    :attr:`routes` until the next :meth:`subscribe` or
    :meth:`unsubscribe`, so routing a hot topic is one dict lookup.
    Dispatchers iterate the tuple they were handed, so a callback that
    (un)subscribes mid-dispatch takes effect from the next message.
    """

    __slots__ = ("_subscriptions", "routes")

    def __init__(self) -> None:
        # (pattern, callback, compiled matcher), in subscription order.
        self._subscriptions: list[tuple[str, Subscriber, Callable[[str], bool]]] = []
        #: topic -> matching callbacks.  Cleared in place on every table
        #: change, so a hot loop may hold it and call :meth:`targets`
        #: only on a miss.
        self.routes: dict[str, tuple[Subscriber, ...]] = {}

    def subscribe(self, pattern: str, callback: Subscriber) -> None:
        """Register ``callback`` for topics matching ``pattern``."""
        # Compiling validates eagerly: a bad '#' placement fails here,
        # not on first publish.
        self._subscriptions.append((pattern, callback, compile_topic_filter(pattern)))
        self.routes.clear()

    def unsubscribe(self, pattern: str, callback: Subscriber) -> None:
        """Remove the earliest ``(pattern, callback)`` subscription."""
        for i, (sub_pattern, sub_callback, _) in enumerate(self._subscriptions):
            if sub_pattern == pattern and sub_callback == callback:
                del self._subscriptions[i]
                self.routes.clear()
                return
        raise NetworkError(f"no subscription {pattern!r} to remove")

    def targets(self, topic: str) -> tuple[Subscriber, ...]:
        """The callbacks subscribed to ``topic``, in subscription order."""
        targets = self.routes.get(topic)
        if targets is None:
            targets = self.routes[topic] = tuple(
                callback for _, callback, matches in self._subscriptions if matches(topic)
            )
        return targets


class Endpoint(abc.ABC):
    """The aggregator-hosted message hub of one network.

    Devices connect their :class:`DeviceLink` here; the aggregator
    subscribes its uplink handlers and publishes downlink control
    messages.  Every backend must honour the same contract the MQTT
    broker set: topic filters with ``+``/``#``, deliveries are
    *scheduled* (never synchronous), a downed endpoint drops everything,
    and an installed fault injector rules on each routed message.
    """

    #: Whether this endpoint carries encoded wire bytes.  In-process
    #: backends set this False and payloads pass through as the frozen
    #: message dataclasses themselves — senders consult the flag to skip
    #: the codec, receivers accept either form via
    #: :func:`repro.protocol.codec.as_message`.
    wire_bytes: bool = True

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Endpoint name (appears in traces and counters)."""

    @property
    @abc.abstractmethod
    def down(self) -> bool:
        """Whether the endpoint host is currently crashed."""

    @abc.abstractmethod
    def set_down(self, down: bool) -> None:
        """Crash/restore the endpoint host (fault injection)."""

    @abc.abstractmethod
    def set_fault_injector(self, injector: "LinkFaultInjector | None") -> None:
        """Install (or clear) a fault injector on the routing path."""

    @abc.abstractmethod
    def connect_duration_s(self) -> float:
        """Sample one client connect latency."""

    @abc.abstractmethod
    def subscribe(self, pattern: str, callback: Subscriber) -> None:
        """Register ``callback`` for topics matching ``pattern``."""

    @abc.abstractmethod
    def unsubscribe(self, pattern: str, callback: Subscriber) -> None:
        """Remove a previously registered subscription."""

    @abc.abstractmethod
    def deliver(self, topic: str, payload: Any, after_s: float = 0.0) -> None:
        """Route ``payload`` to matching subscribers after a delay."""

    @property
    @abc.abstractmethod
    def messages_routed(self) -> int:
        """Messages delivered to at least one subscriber."""

    @property
    @abc.abstractmethod
    def messages_dropped(self) -> int:
        """Messages lost to downtime or injected faults."""


class DeviceLink(abc.ABC):
    """The device-side session with one :class:`Endpoint`.

    A link is connected to at most one endpoint at a time; publishing
    while disconnected raises :class:`~repro.errors.NetworkError` so the
    device data layer buffers instead of transmitting blind.
    """

    #: Mirror of :attr:`Endpoint.wire_bytes` for the device side: when
    #: False the link's endpoint takes message dataclasses verbatim and
    #: publishers skip the codec.
    wire_bytes: bool = True

    @property
    @abc.abstractmethod
    def connected(self) -> bool:
        """Whether the link currently has an endpoint session."""

    @property
    @abc.abstractmethod
    def stats(self) -> dict[str, int]:
        """Counters: published, dropped, retransmissions."""

    @abc.abstractmethod
    def connect(
        self,
        endpoint: Endpoint,
        rssi_dbm: float,
        on_connected: Callable[[], None] | None = None,
    ) -> float:
        """Open a session to ``endpoint``; returns the connect latency."""

    @abc.abstractmethod
    def disconnect(self) -> None:
        """Drop the endpoint session (e.g. on leaving the network)."""

    @abc.abstractmethod
    def set_fault_injector(self, injector: "LinkFaultInjector | None") -> None:
        """Install (or clear) a fault injector on this link's uplink."""

    @abc.abstractmethod
    def publish(
        self,
        topic: str,
        payload: Any,
        qos: QoS = QoS.AT_LEAST_ONCE,
        payload_bytes: int = 64,
    ) -> bool:
        """Publish one message; True when handed to the endpoint."""


class RadioModel(abc.ABC):
    """Network-entry latencies and signal strength for one device."""

    @abc.abstractmethod
    def scan_duration_s(self) -> float:
        """One full network scan."""

    @abc.abstractmethod
    def association_duration_s(self) -> float:
        """Association/admission latency after the scan."""

    @abc.abstractmethod
    def disconnect_detect_duration_s(self) -> float:
        """Time until the old network is declared lost."""

    @abc.abstractmethod
    def rssi_dbm(self, distance_m: float) -> float:
        """Received signal strength at ``distance_m`` from the endpoint."""


class Transport(abc.ABC):
    """Factory for one wire backend: endpoints, links and radios.

    One transport instance is shared by a whole scenario; the builder
    threads it into every aggregator (which makes its endpoint from it)
    and every device (which makes its link and radio from it).  Fault
    injection at environment scale — a jammer, an AP power loss —
    installs through :meth:`set_fault_injector` so chaos schedules work
    on every backend.
    """

    #: Backend identifier (matches ``TransportSpec.kind``).
    kind: str = "abstract"

    @abc.abstractmethod
    def make_endpoint(self, simulator: "Simulator", owner_name: str) -> Endpoint:
        """Create the hub hosted by aggregator ``owner_name``."""

    @abc.abstractmethod
    def make_link(self, simulator: "Simulator", device_name: str) -> DeviceLink:
        """Create the device-side link for ``device_name``."""

    @abc.abstractmethod
    def make_radio(self, process: "Process") -> RadioModel:
        """Create the radio model for one device actor."""

    @abc.abstractmethod
    def set_fault_injector(self, injector: "LinkFaultInjector | None") -> None:
        """Install (or clear) an environment-wide uplink fault injector."""

    def describe(self) -> dict[str, Any]:
        """Provenance: backend kind plus backend-specific parameters."""
        return {"kind": self.kind}


@runtime_checkable
class Mesh(Protocol):
    """What the roaming/consensus layers need of the backhaul.

    Structural: :class:`repro.net.backhaul.BackhaulMesh` satisfies it
    unchanged; an alternative backhaul only has to route payloads
    between registered aggregators and expose the kernel for timers.
    """

    @property
    def sim(self) -> "Simulator": ...

    def add_aggregator(self, aggregator_id: "AggregatorId", handler: Any) -> None: ...

    def send(self, source: "AggregatorId", destination: "AggregatorId", payload: Any) -> float: ...

    def broadcast(self, source: "AggregatorId", payload: Any) -> int: ...

    def connect(self, link: Any) -> None: ...

    def set_node_down(self, aggregator_id: "AggregatorId", down: bool) -> None: ...

    def latency_s(self, source: "AggregatorId", destination: "AggregatorId") -> float: ...

    def trace(self, kind: str, **fields: Any) -> None: ...
