"""MQTT-like publish/subscribe transport.

The testbed moves consumption data over MQTT on Wi-Fi.  This module
models the pieces the experiments feel:

* per-client **connect** latency (TCP + MQTT CONNECT/CONNACK),
* topic-based routing with ``+``/``#`` wildcards,
* **QoS 0** (fire and forget, packets can be lost) and **QoS 1**
  (acknowledged, retransmitted until acked),
* delivery latency = airtime + broker processing.

The broker lives on the aggregator host; clients are devices (and the
aggregator's own services subscribe locally with zero airtime).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from repro.errors import NetworkError
from repro.faults.injectors import FaultAction, LinkFaultInjector
from repro.net.channel import WirelessChannel
from repro.sim.kernel import Simulator
from repro.sim.process import Process

# QoS and topic matching now live with the transport interfaces; they
# are re-exported here because this module defined them historically.
from repro.transport.base import (
    DeviceLink,
    Endpoint,
    QoS,
    Subscriber,
    TopicRouter,
    topic_matches,
)

__all__ = ["MqttBroker", "MqttClient", "QoS", "Subscriber", "topic_matches"]


class MqttBroker(Process, Endpoint):
    """Topic router hosted by one aggregator.

    Args:
        simulator: The kernel to schedule deliveries on.
        name: Broker name for traces (usually the aggregator name).
        processing_latency_s: Broker-side handling per message.
        connect_latency_s: Median TCP+MQTT connect time.
        connect_jitter_sigma: Lognormal sigma for connect time.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        processing_latency_s: float = 0.001,
        connect_latency_s: float = 0.35,
        connect_jitter_sigma: float = 0.2,
    ) -> None:
        super().__init__(simulator, name)
        if processing_latency_s < 0:
            raise NetworkError(
                f"processing latency must be >= 0, got {processing_latency_s}"
            )
        if connect_latency_s <= 0:
            raise NetworkError(
                f"connect latency must be positive, got {connect_latency_s}"
            )
        self._processing_latency_s = processing_latency_s
        self._connect_latency_s = connect_latency_s
        self._connect_jitter_sigma = connect_jitter_sigma
        self._router = TopicRouter()
        self._messages_routed = 0
        self._messages_dropped = 0
        self._down = False
        self._injector: LinkFaultInjector | None = None

    @property
    def messages_routed(self) -> int:
        """Messages delivered to at least one subscriber."""
        return self._messages_routed

    @property
    def messages_dropped(self) -> int:
        """Messages lost to broker downtime or injected faults."""
        return self._messages_dropped

    @property
    def down(self) -> bool:
        """Whether the broker host is currently crashed."""
        return self._down

    def set_down(self, down: bool) -> None:
        """Crash/restore the broker host (fault injection).

        While down, every message — inbound publishes and queued
        deliveries alike — is dropped; MQTT sessions themselves are the
        devices' concern (their reports time out and buffer locally).
        """
        self._down = down
        self.trace("mqtt.broker_down" if down else "mqtt.broker_up")

    def set_fault_injector(self, injector: LinkFaultInjector | None) -> None:
        """Install (or clear) a fault injector on the routing path."""
        self._injector = injector

    def connect_duration_s(self) -> float:
        """Sample one client connect latency."""
        if self._connect_jitter_sigma == 0:
            return self._connect_latency_s
        return float(
            self._connect_latency_s
            * self.rng("connect").lognormal(0.0, self._connect_jitter_sigma)
        )

    def subscribe(self, pattern: str, callback: Subscriber) -> None:
        """Register ``callback`` for topics matching ``pattern``."""
        self._router.subscribe(pattern, callback)

    def unsubscribe(self, pattern: str, callback: Subscriber) -> None:
        """Remove a previously registered subscription."""
        self._router.unsubscribe(pattern, callback)

    def deliver(self, topic: str, payload: Any, after_s: float = 0.0) -> None:
        """Route ``payload`` to matching subscribers after a delay.

        A crashed broker drops everything; an installed fault injector
        may additionally drop, corrupt (discarded at the integrity
        check), delay or duplicate the message.
        """
        if self._down:
            self._messages_dropped += 1
            self.trace("mqtt.drop_down", topic=topic)
            return
        delay = after_s + self._processing_latency_s
        copies = 1
        if self._injector is not None:
            verdict = self._injector.message_verdict()
            if verdict in (FaultAction.DROP, FaultAction.CORRUPT):
                self._messages_dropped += 1
                self.trace("mqtt.drop_fault", topic=topic, verdict=verdict.value)
                return
            if verdict is FaultAction.DELAY:
                delay += self._injector.extra_delay_s
            elif verdict is FaultAction.DUPLICATE:
                copies = 2

        def _route() -> None:
            if self._down:
                self._messages_dropped += 1
                self.trace("mqtt.drop_down", topic=topic)
                return
            if self._spans.enabled:
                self._spans.event(
                    "transport.deliver", self.name, backend="mqtt", topic=topic
                )
            targets = self._router.targets(topic)
            for callback in targets:
                callback(topic, payload)
            if targets:
                self._messages_routed += 1

        for _ in range(copies):
            self.sim.call_later(delay, _route, label=f"mqtt:{topic}")


class MqttClient(Process, DeviceLink):
    """A device-side MQTT client publishing over the wireless channel.

    Args:
        simulator: The kernel.
        name: Client name (device name).
        channel: Wireless channel between the client and the broker's AP.
        max_retries: QoS 1 retransmission budget.
        retry_backoff_s: Delay before a QoS 1 retransmission.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        channel: WirelessChannel,
        max_retries: int = 5,
        retry_backoff_s: float = 0.2,
    ) -> None:
        super().__init__(simulator, name)
        if max_retries < 0:
            raise NetworkError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s <= 0:
            raise NetworkError(f"retry backoff must be positive, got {retry_backoff_s}")
        self._channel = channel
        self._max_retries = max_retries
        self._retry_backoff_s = retry_backoff_s
        self._broker: Endpoint | None = None
        self._rssi_dbm: float | None = None
        self._injector: LinkFaultInjector | None = None

    @property
    def connected(self) -> bool:
        """Whether the client currently has a broker session."""
        return self._broker is not None

    @property
    def stats(self) -> dict[str, int]:
        """Counters: published, dropped, retransmissions.

        Backed by the shared :class:`~repro.monitoring.counters.CounterBank`
        (namespaced by client name), so transport counters appear in the
        same snapshot as every other actor's.
        """
        return {
            "published": self.counters.get(f"{self.name}.published"),
            "dropped": self.counters.get(f"{self.name}.dropped"),
            "retransmissions": self.counters.get(f"{self.name}.retransmissions"),
        }

    def connect(
        self,
        broker: Endpoint,
        rssi_dbm: float,
        on_connected: Callable[[], None] | None = None,
    ) -> float:
        """Open a session to ``broker``; returns the connect latency.

        ``on_connected`` fires when the CONNACK would arrive.
        """
        latency = broker.connect_duration_s()

        def _established() -> None:
            self._broker = broker
            self._rssi_dbm = rssi_dbm
            self.trace("mqtt.connected", broker=broker.name, rssi_dbm=rssi_dbm)
            if on_connected is not None:
                on_connected()

        self.sim.call_later(latency, _established, label=f"mqtt-connect:{self.name}")
        return latency

    def set_fault_injector(self, injector: LinkFaultInjector | None) -> None:
        """Install (or clear) a fault injector on this client's radio link.

        Frame-level: each transmission attempt additionally consults
        :meth:`~repro.faults.injectors.LinkFaultInjector.packet_blocked`,
        so a blackout makes every publish exhaust its QoS-1 budget and
        return False (the device stack then buffers the data).
        """
        self._injector = injector

    def disconnect(self) -> None:
        """Drop the broker session (e.g. on leaving the network)."""
        self._broker = None
        self._rssi_dbm = None
        self.trace("mqtt.disconnected")

    def publish(
        self,
        topic: str,
        payload: Any,
        qos: QoS = QoS.AT_LEAST_ONCE,
        payload_bytes: int = 64,
    ) -> bool:
        """Publish one message.

        Returns True if the message was handed to the broker (after loss
        and, for QoS 1, retries); False if it was dropped.  Raises
        :class:`~repro.errors.NetworkError` when not connected — callers
        (the device data layer) are expected to buffer instead of
        publishing blind.
        """
        if self._broker is None or self._rssi_dbm is None:
            raise NetworkError(f"client {self.name} is not connected")
        if self._spans.enabled:
            self._spans.event(
                "transport.send", self.name, backend="mqtt", topic=topic
            )
        airtime = self._channel.airtime_s(payload_bytes)
        attempts = 1 + (self._max_retries if qos == QoS.AT_LEAST_ONCE else 0)
        delay = 0.0
        for attempt in range(attempts):
            delay += airtime
            blocked = self._injector is not None and self._injector.packet_blocked()
            if not blocked and not self._channel.packet_lost(self._rssi_dbm):
                self._broker.deliver(topic, payload, after_s=delay)
                self.count("published")
                if attempt > 0:
                    self.count("retransmissions", attempt)
                return True
            delay += self._retry_backoff_s
        self.count("dropped")
        self.trace("mqtt.drop", topic=topic)
        return False
