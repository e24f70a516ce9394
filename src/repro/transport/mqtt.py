"""Full-fidelity backend: MQTT broker/client over the Wi-Fi models.

This wraps the existing :mod:`repro.net.mqtt` / :mod:`repro.net.wifi` /
:mod:`repro.net.channel` pieces unchanged in behaviour — the pinned
determinism digest of the paper testbed is bit-identical through this
backend, because every factory reproduces the exact actor names and RNG
stream names the pre-refactor constructors used.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import ConfigError
from repro.net.channel import WirelessChannel
from repro.net.mqtt import MqttBroker, MqttClient
from repro.net.wifi import WifiParams, WifiRadio
from repro.transport.base import DeviceLink, Endpoint, RadioModel, Transport

if TYPE_CHECKING:
    from repro.faults.injectors import LinkFaultInjector
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process


class MqttRadio(RadioModel):
    """A Wi-Fi radio whose RSSI comes from the shared shadowed channel."""

    def __init__(self, wifi: WifiRadio, channel: WirelessChannel) -> None:
        self._wifi = wifi
        self._channel = channel

    @property
    def wifi(self) -> WifiRadio:
        """The underlying Wi-Fi latency model."""
        return self._wifi

    def scan_duration_s(self) -> float:
        """One full scan: passes x channels x dwell."""
        return self._wifi.scan_duration_s()

    def association_duration_s(self) -> float:
        """Auth + association + DHCP latency with lognormal jitter."""
        return self._wifi.association_duration_s()

    def disconnect_detect_duration_s(self) -> float:
        """Time until the radio declares the old AP lost."""
        return self._wifi.disconnect_detect_duration_s()

    def rssi_dbm(self, distance_m: float) -> float:
        """One shadowed RSSI sample from the scenario channel."""
        return self._channel.rssi_dbm(distance_m)


class MqttTransport(Transport):
    """MQTT over modelled Wi-Fi: airtime, RSSI loss, connect jitter.

    Args:
        channel: The wireless channel shared by the scenario.  Optional
            for endpoint-only use (an aggregator under unit test hosts a
            broker without any radio environment); device links and
            radios require it.
        wifi: Wi-Fi join latency model applied to every device radio.
    """

    kind = "mqtt"

    def __init__(
        self,
        channel: WirelessChannel | None = None,
        wifi: WifiParams | None = None,
    ) -> None:
        self._channel = channel
        self._wifi = wifi or WifiParams()

    @property
    def channel(self) -> WirelessChannel | None:
        """The wireless channel, when one is attached."""
        return self._channel

    def _require_channel(self, what: str) -> WirelessChannel:
        if self._channel is None:
            raise ConfigError(f"MqttTransport needs a WirelessChannel to {what}")
        return self._channel

    def make_endpoint(self, simulator: "Simulator", owner_name: str) -> Endpoint:
        """The broker hosted on aggregator ``owner_name``."""
        return MqttBroker(simulator, f"{owner_name}-broker")

    def make_link(self, simulator: "Simulator", device_name: str) -> DeviceLink:
        """An MQTT client publishing over the wireless channel."""
        channel = self._require_channel(f"make a link for {device_name}")
        return MqttClient(simulator, f"{device_name}-mqtt", channel)

    def make_radio(self, process: "Process") -> RadioModel:
        """A Wi-Fi radio drawing jitter from the device's own stream."""
        channel = self._require_channel(f"make a radio for {process.name}")
        return MqttRadio(WifiRadio(self._wifi, process.rng("wifi")), channel)

    def set_fault_injector(self, injector: "LinkFaultInjector | None") -> None:
        """Environment-scale faults install on the shared channel."""
        self._require_channel("install a fault injector").set_fault_injector(injector)

    def describe(self) -> dict[str, Any]:
        """Backend kind plus the Wi-Fi latency parameters."""
        return {
            "kind": self.kind,
            "assoc_latency_s": self._wifi.assoc_latency_s,
            "scan_channels": self._wifi.channels,
        }
