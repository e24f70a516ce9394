"""Pluggable transport layer: protocol code speaks interfaces, not wires.

Interfaces (:class:`Transport`, :class:`Endpoint`, :class:`DeviceLink`,
:class:`RadioModel`, :class:`Mesh`) import eagerly from
:mod:`repro.transport.base`; the concrete backends load lazily so that
``repro.net.mqtt`` can import the interfaces without a cycle:

* :class:`MqttTransport` — full radio fidelity (airtime, RSSI, jitter),
* :class:`DirectTransport` — in-process routing for large fleets; with
  ``wire_bytes=True`` it is the ``serve`` backend, carrying
  codec-encoded bytes across serve mode's HTTP boundary.
"""

from typing import Any

from repro.transport.base import (
    DeviceLink,
    Endpoint,
    Mesh,
    QoS,
    RadioModel,
    Subscriber,
    Transport,
    topic_matches,
)

_BACKENDS = {
    "MqttTransport": "repro.transport.mqtt",
    "MqttRadio": "repro.transport.mqtt",
    "DirectTransport": "repro.transport.direct",
    "DirectHub": "repro.transport.direct",
    "DirectLink": "repro.transport.direct",
    "DirectRadio": "repro.transport.direct",
}

__all__ = [
    "DeviceLink",
    "Endpoint",
    "Mesh",
    "QoS",
    "RadioModel",
    "Subscriber",
    "Transport",
    "topic_matches",
    *sorted(_BACKENDS),
]


def __getattr__(name: str) -> Any:
    module_name = _BACKENDS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
