"""Lightweight backend: in-process topic router, no radio model.

``DirectTransport`` trades radio fidelity for throughput so large-fleet
scalability runs stop paying the full per-frame cost:

* routing shares the MQTT broker's cached
  :class:`~repro.transport.base.TopicRouter`, and the drain loop reads
  its route table directly: one dict lookup per message, no call,
* link latency and loss are fixed parameters (no airtime computation,
  no RSSI draw, no shadowing — the zero-loss default draws no RNG at
  all on the publish path),
* deliveries due at the same instant share one kernel event (the hub
  drains a per-instant batch), so a burst of reports costs one heap
  operation instead of one per message,
* network-entry latencies are the Wi-Fi means without jitter, so
  handshake-time reports stay comparable across backends.

Delivery semantics match the MQTT backend: deliveries are scheduled
(never synchronous), a downed hub drops everything, QoS 1 retries up to
the budget, and fault injectors rule on links and routing alike — chaos
scenarios run unchanged on either backend.  With ``wire_bytes=True``
this is the ``serve`` backend: the same router carrying codec-encoded
bytes, as serve mode's HTTP boundary needs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigError, NetworkError
from repro.faults.injectors import FaultAction, LinkFaultInjector
from repro.sim.process import Process
from repro.transport.base import (
    DeviceLink,
    Endpoint,
    QoS,
    RadioModel,
    Subscriber,
    TopicRouter,
    Transport,
)

if TYPE_CHECKING:
    from repro.sim.kernel import Simulator


class DirectHub(Process, Endpoint):
    """Topic router hosted by one aggregator, without a broker model.

    Subscribers are resolved per topic by a :class:`TopicRouter`: the
    first message on a topic scans the filters, later ones are a dict
    lookup until the subscription table changes.

    Args:
        simulator: The kernel.
        name: Hub name for traces (usually ``{aggregator}-broker``).
        connect_s: Fixed client connect latency.
        wire_bytes: Carry codec-encoded bytes; when False, message
            dataclasses pass by reference and protocol code skips the codec.
    """

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        connect_s: float = 0.35,
        wire_bytes: bool = False,
    ) -> None:
        super().__init__(simulator, name)
        if connect_s <= 0:
            raise NetworkError(f"connect latency must be positive, got {connect_s}")
        self.wire_bytes = wire_bytes
        self._connect_s = connect_s
        self._router = TopicRouter()
        # Batches keyed by absolute due time: every message scheduled
        # for the same instant rides one kernel event, at exactly that
        # time, whose callback (bound once, not a closure per batch)
        # finds its batch by the clock.
        self._batches: dict[float, list[tuple[str, Any]]] = {}
        self._drain_due = self._drain
        self._drain_label = f"direct-drain:{name}"
        self._down = False
        self._injector: LinkFaultInjector | None = None
        # Called with this hub on every routing-state change (crash,
        # restore, injector install/clear).  The vectorized fleet hangs
        # de-vectorization off these; empty for everyone else.
        self._state_watchers: list[Callable[["DirectHub"], None]] = []

    @property
    def messages_routed(self) -> int:
        """Messages delivered to at least one subscriber."""
        return self.counted("messages_routed")

    @property
    def messages_dropped(self) -> int:
        """Messages lost to hub downtime or injected faults."""
        return self.counted("messages_dropped")

    @property
    def down(self) -> bool:
        """Whether the hub host is currently crashed."""
        return self._down

    def set_down(self, down: bool) -> None:
        """Crash/restore the hub host (fault injection)."""
        self._down = down
        self.trace("direct.hub_down" if down else "direct.hub_up")
        for watcher in self._state_watchers:
            watcher(self)

    def set_fault_injector(self, injector: LinkFaultInjector | None) -> None:
        """Install (or clear) a fault injector on the routing path."""
        self._injector = injector
        for watcher in self._state_watchers:
            watcher(self)

    def connect_duration_s(self) -> float:
        """Fixed connect latency (no jitter draw)."""
        return self._connect_s

    def subscribe(self, pattern: str, callback: Subscriber) -> None:
        """Register ``callback`` for topics matching ``pattern``."""
        self._router.subscribe(pattern, callback)

    def unsubscribe(self, pattern: str, callback: Subscriber) -> None:
        """Remove a previously registered subscription."""
        self._router.unsubscribe(pattern, callback)

    def deliver(self, topic: str, payload: Any, after_s: float = 0.0) -> None:
        """Route ``payload`` to matching subscribers after a delay."""
        if self._down:
            self.count("messages_dropped")
            self.trace("direct.drop_down", topic=topic)
            return
        if self._injector is None:
            # No fault injector: enqueue directly (the _enqueue body,
            # inlined for the per-message fleet hot path).
            due = self._clock.now + after_s
            batch = self._batches.get(due)
            if batch is None:
                self._batches[due] = batch = []
                self.sim.schedule(due, self._drain_due, label=self._drain_label)
            batch.append((topic, payload))
            return
        delay = after_s
        copies = 1
        if self._injector is not None:
            verdict = self._injector.message_verdict()
            if verdict in (FaultAction.DROP, FaultAction.CORRUPT):
                self.count("messages_dropped")
                self.trace("direct.drop_fault", topic=topic, verdict=verdict.value)
                return
            if verdict is FaultAction.DELAY:
                delay += self._injector.extra_delay_s
            elif verdict is FaultAction.DUPLICATE:
                copies = 2

        for _ in range(copies):
            self._enqueue(topic, payload, delay)

    def _enqueue(self, topic: str, payload: Any, delay: float) -> None:
        # Same kernel step + same delay => bitwise-identical due time, so
        # a burst of simultaneous reports shares one scheduled event.
        due = self._clock.now + delay
        batch = self._batches.get(due)
        if batch is None:
            self._batches[due] = batch = []
            self.sim.schedule(due, self._drain_due, label=self._drain_label)
        batch.append((topic, payload))

    def _drain(self) -> None:
        batch = self._batches.pop(self._clock.now, ())
        if self._down:
            self.count("messages_dropped", len(batch))
            for topic, _ in batch:
                self.trace("direct.drop_down", topic=topic)
            return
        router = self._router
        routes = router.routes
        spans = self._spans
        routed = 0
        for topic, payload in batch:
            # One dict lookup per cached topic.  A mid-drain
            # (un)subscribe clears ``routes`` in place, so later
            # messages in the batch re-resolve against the new table.
            targets = routes.get(topic)
            if targets is None:
                targets = router.targets(topic)
            if targets:
                routed += 1
                if spans.enabled:
                    spans.event(
                        "transport.deliver", self.name, backend="direct", topic=topic
                    )
                for callback in targets:
                    callback(topic, payload)
        if routed:
            self.count("messages_routed", routed)


class DirectLink(Process, DeviceLink):
    """A device-side session with fixed latency and configurable loss.

    Mirrors the MQTT client's QoS semantics — QoS 1 retries up to the
    budget with backoff, counters fold into the shared bank — but each
    attempt costs a fixed latency instead of airtime, and the loss draw
    is skipped entirely at the zero-loss default.

    Args:
        simulator: The kernel.
        name: Link name (usually ``{device}-link``).
        transport: The owning transport (fixed parameters, the payload
            form and the environment-wide fault injector live there).
        max_retries: QoS 1 retransmission budget.
        retry_backoff_s: Delay before a QoS 1 retransmission.
    """

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        transport: "DirectTransport",
        max_retries: int = 5,
        retry_backoff_s: float = 0.2,
    ) -> None:
        super().__init__(simulator, name)
        if max_retries < 0:
            raise NetworkError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s <= 0:
            raise NetworkError(f"retry backoff must be positive, got {retry_backoff_s}")
        self.wire_bytes = transport.wire_bytes
        self._transport = transport
        self._max_retries = max_retries
        self._retry_backoff_s = retry_backoff_s
        self._endpoint: Endpoint | None = None
        self._injector: LinkFaultInjector | None = None
        # Called on injector install/clear (vectorized-fleet hook).
        self._state_watchers: list[Callable[[], None]] = []

    @property
    def connected(self) -> bool:
        """Whether the link currently has an endpoint session."""
        return self._endpoint is not None

    @property
    def stats(self) -> dict[str, int]:
        """Counters: published, dropped, retransmissions."""
        return {
            "published": self.counters.get(f"{self.name}.published"),
            "dropped": self.counters.get(f"{self.name}.dropped"),
            "retransmissions": self.counters.get(f"{self.name}.retransmissions"),
        }

    def connect(
        self,
        endpoint: Endpoint,
        rssi_dbm: float,
        on_connected: Callable[[], None] | None = None,
    ) -> float:
        """Open a session to ``endpoint``; returns the connect latency."""
        latency = endpoint.connect_duration_s()

        def _established() -> None:
            self._endpoint = endpoint
            self.trace("direct.connected", endpoint=endpoint.name, rssi_dbm=rssi_dbm)
            if on_connected is not None:
                on_connected()

        self.sim.call_later(latency, _established, label=f"direct-connect:{self.name}")
        return latency

    def disconnect(self) -> None:
        """Drop the endpoint session (e.g. on leaving the network)."""
        self._endpoint = None
        self.trace("direct.disconnected")

    def set_fault_injector(self, injector: LinkFaultInjector | None) -> None:
        """Install (or clear) a fault injector on this link's uplink."""
        self._injector = injector
        for watcher in self._state_watchers:
            watcher()

    def _attempt_lost(self) -> bool:
        """One transmission attempt's fate: blocked, lost, or through."""
        if self._injector is not None and self._injector.packet_blocked():
            return True
        env = self._transport.fault_injector
        if env is not None and env.packet_blocked():
            return True
        loss_p = self._transport.loss_p
        if loss_p > 0.0:
            return bool(self.rng("loss").random() < loss_p)
        return False

    def publish(
        self,
        topic: str,
        payload: Any,
        qos: QoS = QoS.AT_LEAST_ONCE,
        payload_bytes: int = 64,
    ) -> bool:
        """Publish one message; True when handed to the endpoint."""
        if self._endpoint is None:
            raise NetworkError(f"link {self.name} is not connected")
        if self._spans.enabled:
            self._spans.event(
                "transport.send", self.name, backend="direct", topic=topic
            )
        transport = self._transport
        if (
            self._injector is None
            and transport._injector is None
            and transport.loss_p == 0.0
        ):
            # Nothing can lose the attempt: skip the loss machinery
            # entirely (the common zero-loss fleet configuration).
            self._endpoint.deliver(topic, payload, after_s=transport.latency_s)
            self.count("published")
            return True
        attempts = 1 + (self._max_retries if qos == QoS.AT_LEAST_ONCE else 0)
        latency = transport.latency_s
        delay = 0.0
        for attempt in range(attempts):
            delay += latency
            if not self._attempt_lost():
                self._endpoint.deliver(topic, payload, after_s=delay)
                self.count("published")
                if attempt > 0:
                    self.count("retransmissions", attempt)
                return True
            delay += self._retry_backoff_s
        self.count("dropped")
        self.trace("direct.drop", topic=topic)
        return False


class DirectRadio(RadioModel):
    """Deterministic network-entry latencies, no jitter draws.

    The RSSI is the zero-shadowing log-distance mean of the default
    channel model, so RSSI-based network selection still ranks closer
    access points higher on this backend.
    """

    def __init__(self, scan_s: float, assoc_s: float, disconnect_detect_s: float = 1.0) -> None:
        self._scan_s = scan_s
        self._assoc_s = assoc_s
        self._disconnect_detect_s = disconnect_detect_s

    def scan_duration_s(self) -> float:
        """Fixed scan latency."""
        return self._scan_s

    def association_duration_s(self) -> float:
        """Fixed association latency."""
        return self._assoc_s

    def disconnect_detect_duration_s(self) -> float:
        """Fixed loss-detection latency."""
        return self._disconnect_detect_s

    def rssi_dbm(self, distance_m: float) -> float:
        """Unshadowed log-distance RSSI (tx 16 dBm, exponent 3)."""
        if distance_m <= 0:
            raise NetworkError(f"distance must be positive, got {distance_m}")
        return 16.0 - (40.0 + 30.0 * math.log10(max(distance_m, 1.0)))


class DirectTransport(Transport):
    """In-process router with fixed latency/loss, no radio model.

    Args:
        latency_s: One-way per-attempt link latency.
        loss_p: Per-attempt loss probability (0 disables the RNG draw).
        connect_s: Fixed session-connect latency.
        scan_s: Fixed network-scan latency (default: the Wi-Fi mean,
            3 passes x 13 channels x 110 ms).
        assoc_s: Fixed association latency (default: the Wi-Fi median).
        wire_bytes: Make every hub and link carry codec-encoded bytes
            (the ``serve`` backend).
    """

    def __init__(
        self,
        latency_s: float = 0.0005,
        loss_p: float = 0.0,
        connect_s: float = 0.35,
        scan_s: float = 4.29,
        assoc_s: float = 1.2,
        wire_bytes: bool = False,
    ) -> None:
        if latency_s < 0:
            raise ConfigError(f"latency must be >= 0, got {latency_s}")
        if not 0.0 <= loss_p < 1.0:
            raise ConfigError(f"loss probability must be in [0, 1), got {loss_p}")
        if connect_s <= 0:
            raise ConfigError(f"connect latency must be positive, got {connect_s}")
        if scan_s < 0 or assoc_s < 0:
            raise ConfigError(f"scan/assoc latencies must be >= 0, got {scan_s}/{assoc_s}")
        self.latency_s = latency_s
        self.loss_p = loss_p
        self.connect_s = connect_s
        self.scan_s = scan_s
        self.assoc_s = assoc_s
        self.wire_bytes = wire_bytes
        self.kind = "serve" if wire_bytes else "direct"
        self._injector: LinkFaultInjector | None = None
        # Called on environment-injector install/clear (fleet hook).
        self._state_watchers: list[Callable[[], None]] = []

    @property
    def fault_injector(self) -> LinkFaultInjector | None:
        """The environment-wide fault injector, if any."""
        return self._injector

    def make_endpoint(self, simulator: "Simulator", owner_name: str) -> Endpoint:
        """The hub hosted on aggregator ``owner_name``."""
        return DirectHub(simulator, f"{owner_name}-broker", self.connect_s, self.wire_bytes)

    def make_link(self, simulator: "Simulator", device_name: str) -> DeviceLink:
        """A fixed-latency link for ``device_name``."""
        return DirectLink(simulator, f"{device_name}-link", self)

    def make_radio(self, process: "Process") -> RadioModel:
        """Deterministic entry latencies; no per-device RNG stream."""
        return DirectRadio(self.scan_s, self.assoc_s)

    def set_fault_injector(self, injector: LinkFaultInjector | None) -> None:
        """Environment-scale faults: every link consults this injector."""
        self._injector = injector
        for watcher in self._state_watchers:
            watcher()

    def describe(self) -> dict[str, Any]:
        """Backend kind plus the fixed link parameters."""
        return {
            "kind": self.kind,
            "latency_s": self.latency_s,
            "loss_p": self.loss_p,
            "connect_s": self.connect_s,
        }
