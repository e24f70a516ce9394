"""The composed IoT metering device (all Fig. 2 layers as one actor).

:class:`MeteringDevice` wires the hardware models, the firmware sampling
task, the radio/MQTT network layer, the data layer (store-and-forward)
and the protocol state machine together, and drives the Fig. 3 sequences
against whatever network it is currently in.

Interaction surface with the aggregator is deliberately narrow — an
:class:`AccessPoint` exposes the aggregator's identity and its transport
:class:`~repro.transport.base.Endpoint`; everything else flows through
protocol messages on topics:

* uplink ``meter/{device}/register`` and ``meter/{device}/report``,
* downlink ``device/{device}/ctrl``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Protocol

from repro.device.firmware import Firmware
from repro.device.metering import EnergyMeter, Measurement
from repro.device.storage import LocalStore
from repro.errors import ChainError, ConfigError, ProtocolError
from repro.faults.retry import RetryPolicy
from repro.grid.topology import GridTopology
from repro.hw.ds3231 import Ds3231Rtc
from repro.hw.esp32 import Esp32Mcu, McuState
from repro.hw.ina219 import Ina219, Ina219Config
from repro.ids import AggregatorId, DeviceId
from repro.chain.sync import (
    Checkpoint,
    HeaderChain,
    HeaderRecord,
    LedgerSyncClient,
    SyncPolicy,
    SyncStats,
)
from repro.protocol.codec import as_message, encode_message, encoded_size
from repro.protocol.device_fsm import DeviceFsm, DevicePhase, FsmDecision
from repro.protocol.messages import (
    Ack,
    ConsumptionReport,
    HeaderBatchRequest,
    HeaderBatchResponse,
    MgmtCommand,
    MgmtResponse,
    Nack,
    NackReason,
    ReceiptRequest,
    ReceiptResponse,
    RegistrationRequest,
    RegistrationResponse,
    RemoveDevice,
    TransferMembership,
)

if TYPE_CHECKING:
    from repro.chain.receipts import InclusionReceipt
    from repro.net.timesync import TimeSyncService
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.transport.base import DeviceLink, Endpoint, QoS, RadioModel, Transport
from repro.units import energy_mwh

LoadProfile = Callable[[float], float]


class AccessPoint(Protocol):
    """What a device needs to know about the aggregator it talks to.

    Transport-generic: the device sees an abstract
    :class:`~repro.transport.base.Endpoint`, never a concrete broker —
    which backend routes the messages is the scenario's choice.
    """

    @property
    def aggregator_id(self) -> AggregatorId:
        """Identity of the aggregator (names its grid network)."""
        ...

    @property
    def endpoint(self) -> Endpoint:
        """The transport endpoint hosted by this aggregator."""
        ...

    @property
    def timesync(self) -> "TimeSyncService":
        """The RTC-discipline service of this network."""
        ...


@dataclass(frozen=True)
class DeviceConfig:
    """Static configuration of one metering device.

    Attributes:
        t_measure_s: Measurement/reporting interval (paper: 0.1 s).
        voltage_v: Device supply voltage (ESP32 Thing: 3.3 V; an
            e-scooter charger would be mains-side, still one number).
        storage_capacity: Local store-and-forward capacity (records).
        sensor: INA219 configuration.
        report_qos: QoS for consumption reports.
        flush_batch: Buffered records flushed per transmission slot.
        registration_retry_s: Backoff before re-requesting membership
            after a NETWORK_FULL refusal.
        retry: Ack-timeout/backoff policy for the report path.  An
            in-flight report whose Ack never arrives re-enters the local
            store and is flushed again after a jittered exponential
            backoff, up to the policy's attempt budget.  ``None``
            restores the legacy behaviour (unacknowledged reports are
            lost with the session).
        ledger_sync: Lightweight-client ledger sync policy.  When set,
            the device periodically pulls block headers from its
            aggregator and verifies inclusion receipts fully offline
            against the header chain.  ``None`` (default) disables sync.
    """

    t_measure_s: float = 0.1
    voltage_v: float = 3.3
    storage_capacity: int = 4096
    sensor: Ina219Config = field(default_factory=Ina219Config)
    report_qos: QoS = QoS.AT_LEAST_ONCE
    flush_batch: int = 64
    registration_retry_s: float = 5.0
    retry: RetryPolicy | None = field(default_factory=RetryPolicy)
    ledger_sync: SyncPolicy | None = None

    def __post_init__(self) -> None:
        if self.t_measure_s <= 0:
            raise ConfigError(f"t_measure must be positive, got {self.t_measure_s}")
        if self.voltage_v <= 0:
            raise ConfigError(f"voltage must be positive, got {self.voltage_v}")
        if self.flush_batch <= 0:
            raise ConfigError(f"flush batch must be positive, got {self.flush_batch}")
        if self.registration_retry_s <= 0:
            raise ConfigError(
                f"registration retry must be positive, got {self.registration_retry_s}"
            )


@dataclass
class HandshakeRecord:
    """Timing of one network-entry handshake (for E3/A2)."""

    network: AggregatorId
    started_at: float
    scan_s: float = 0.0
    assoc_s: float = 0.0
    connect_s: float = 0.0
    registered_at: float | None = None
    temporary: bool = False

    @property
    def duration_s(self) -> float | None:
        """Total handshake time, or None while incomplete."""
        if self.registered_at is None:
            return None
        return self.registered_at - self.started_at


class MeteringDevice(Process):
    """One IoT-enabled device with in-device metering.

    Args:
        simulator: The kernel (the device's link runs on it too, so
            the whole device stack emits into its counter bank and span
            stream).
        device_id: Identity of this device.
        config: Static configuration.
        grid: The electrical topology (for attach/detach).
        transport: The scenario's transport backend (link, radio and
            endpoint factories), e.g. ``scenario.transport``.
        load_profile: Grid-side load current (mA) over time, *excluding*
            the MCU's own draw (added automatically).
    """

    def __init__(
        self,
        simulator: Simulator,
        device_id: DeviceId,
        config: DeviceConfig,
        grid: GridTopology,
        transport: Transport,
        load_profile: LoadProfile,
    ) -> None:
        super().__init__(simulator, device_id.name)
        self._device_id = device_id
        self._config = config
        self._grid = grid
        self._transport = transport
        self._load_profile = load_profile

        self._mcu = Esp32Mcu(supply_voltage_v=config.voltage_v)
        self._sensor = Ina219(config.sensor, self.rng("sensor"))
        self._rtc = Ds3231Rtc(self.rng("rtc"))
        self._radio: RadioModel = transport.make_radio(self)
        self._meter = EnergyMeter(self._sensor, self.true_current_ma, config.voltage_v)
        self._store = LocalStore(config.storage_capacity)
        self._fsm = DeviceFsm(device_id)
        self._firmware = Firmware(
            self.sim, self._meter, self._on_measurement, config.t_measure_s
        )
        self._client: DeviceLink = transport.make_link(simulator, device_id.name)
        # In-process backends take message dataclasses verbatim; radio
        # backends need the encoded wire bytes (and their size, for
        # airtime).  Resolved once — the link never changes backend.
        self._wire_bytes = self._client.wire_bytes

        # Set while this device executes inside an array-backed cohort
        # (see repro.vector): the cohort handle is what the
        # de-vectorization hooks below call back into.  Must exist
        # before any attribute with a de-vectorizing setter.
        self._vector_cohort: Any | None = None

        # The paper's threat model: "in-device energy metering is
        # susceptible to manipulation and fraud".  Installing an attack
        # here manipulates what the device *reports*; physical
        # consumption (what the feeder sees) is untouched.
        self._tamper_attack: Any | None = None

        self._sequence = 0
        self._current_ap: AccessPoint | None = None
        # Token of the scan/association/connect chain in flight (None
        # once connected or after leaving): each stage runs only while
        # it still holds the token.
        self._joining: object | None = None
        self._ap_distance_m = 5.0
        self._ctrl_topic = f"device/{device_id.name}/ctrl"
        # Report-path strings, built once: the per-measurement transmit
        # path must do zero string formatting per event.
        self._report_topic = f"meter/{device_id.name}/report"
        self._ack_timeout_label = f"{self.name}:ack-timeout"
        self._flush_label = f"{self.name}:flush"
        self._flush_retry_label = f"{self.name}:flush-retry"
        self._handshakes: list[HandshakeRecord] = []
        self._acked_sequences: set[int] = set()
        # Unacked reports: sequence -> (Ack deadline, report), in deadline order.
        self._inflight: dict[int, tuple[float, ConsumptionReport]] = {}
        self._ack_timer_armed = False
        self._report_attempts: dict[int, int] = {}
        self._reg_watchdog: Any | None = None
        self._receipts: dict[int, "InclusionReceipt | None"] = {}
        self._handshake_span: Any | None = None
        self._sync_client: LedgerSyncClient | None = (
            LedgerSyncClient(config.ledger_sync)
            if config.ledger_sync is not None
            else None
        )
        self._sync_task: Any | None = None
        self._sync_topic = f"meter/{device_id.name}/chainsync"

    # -- introspection ---------------------------------------------------

    @property
    def device_id(self) -> DeviceId:
        """This device's identity."""
        return self._device_id

    @property
    def config(self) -> DeviceConfig:
        """Static configuration."""
        return self._config

    @property
    def fsm(self) -> DeviceFsm:
        """The protocol state machine (read-mostly for assertions)."""
        return self._fsm

    @property
    def meter(self) -> EnergyMeter:
        """The energy meter."""
        return self._meter

    @property
    def store(self) -> LocalStore:
        """The local store-and-forward buffer."""
        return self._store

    @property
    def firmware(self) -> Firmware:
        """The sampling task (remote management can retune it)."""
        return self._firmware

    @property
    def rtc(self) -> Ds3231Rtc:
        """The device RTC (registered with the aggregator's time sync)."""
        return self._rtc

    @property
    def mcu(self) -> Esp32Mcu:
        """The MCU power-state model."""
        return self._mcu

    @property
    def handshakes(self) -> list[HandshakeRecord]:
        """Every network-entry handshake this device performed."""
        return list(self._handshakes)

    @property
    def last_handshake(self) -> HandshakeRecord | None:
        """Most recent handshake record, or None."""
        return self._handshakes[-1] if self._handshakes else None

    @property
    def tamper_attack(self) -> Any | None:
        """The installed metering attack, if any."""
        return self._tamper_attack

    @tamper_attack.setter
    def tamper_attack(self, attack: Any | None) -> None:
        self._tamper_attack = attack
        if attack is not None and self._vector_cohort is not None:
            # The cohort hot path assumes untampered reports; fall back
            # to the full per-object actor while the attack is active.
            self._vector_cohort.release(self, "tamper")

    @property
    def vectorized(self) -> bool:
        """Whether this device currently executes inside a cohort."""
        return self._vector_cohort is not None

    @property
    def sequences_issued(self) -> int:
        """Distinct report sequences ever built (one per measurement)."""
        return self._sequence

    @property
    def reports_sent(self) -> int:
        """Reports handed to MQTT (live + flushed)."""
        return self.counted("reports_sent")

    @property
    def reports_buffered(self) -> int:
        """Measurements diverted to local storage."""
        return self.counted("reports_buffered")

    @property
    def acked_count(self) -> int:
        """Distinct report sequences acknowledged by aggregators."""
        return len(self._acked_sequences)

    @property
    def acked_sequences(self) -> frozenset[int]:
        """The acknowledged report sequences themselves."""
        return frozenset(self._acked_sequences)

    @property
    def connected(self) -> bool:
        """Whether the transport session is currently up."""
        return self._client.connected

    @property
    def retry_stats(self) -> dict[str, int]:
        """Report-path resilience counters.

        ``report_timeouts``: in-flight reports whose Ack never came and
        that re-entered the store; ``flush_retries``: backoff-scheduled
        flush attempts; ``retry_exhausted``: reports whose active retry
        budget ran out (they stay parked in the store and ride later
        flushes); ``registration_timeouts``: registration rounds resent
        because no response (Ack or Nack) ever arrived.
        """
        return {
            "report_timeouts": self.counted("report_timeouts"),
            "flush_retries": self.counted("flush_retries"),
            "retry_exhausted": self.counted("retry_exhausted"),
            "registration_timeouts": self.counted("registration_timeouts"),
        }

    def true_current_ma(self, at_time: float) -> float:
        """Ground-truth terminal current: load profile + MCU draw."""
        return self._load_profile(at_time) + self._mcu.current_ma()

    # -- mobility ---------------------------------------------------------

    def enter_network(self, access_point: AccessPoint, distance_m: float = 5.0) -> None:
        """Electrically attach in ``access_point``'s network and join it.

        Models the Fig. 6 arrival: sampling (and hence local buffering)
        starts immediately with the electrical connection, while the
        radio scans, associates and connects MQTT — only then does the
        protocol handshake run.
        """
        if self._current_ap is not None:
            raise ProtocolError(f"{self.name} must leave its network before entering another")
        network_id = access_point.aggregator_id
        self._grid.attach(self._device_id, network_id, self.true_current_ma, self.now)
        self._current_ap = access_point
        self._ap_distance_m = distance_m
        self._firmware.start()
        self._fsm.begin_join()
        handshake = HandshakeRecord(network=network_id, started_at=self.now)
        self._handshakes.append(handshake)
        if self._spans.enabled:
            self._handshake_span = self._spans.begin(
                "membership.handshake", self.name, network=network_id.name
            )
        self.trace("device.enter_network", network=network_id.name)

        self._mcu.set_state(McuState.WIFI_RX, self.now)
        scan_s = self._radio.scan_duration_s()
        handshake.scan_s = scan_s
        rssi = self._radio.rssi_dbm(distance_m)
        attempt = self._joining = object()

        def _scanned() -> None:
            if self._joining is not attempt:
                return
            assoc_s = self._radio.association_duration_s()
            handshake.assoc_s = assoc_s
            self.sim.call_later(assoc_s, _associated, label=f"{self.name}:assoc")

        def _associated() -> None:
            if self._joining is not attempt:
                return
            connect_s = self._client.connect(
                access_point.endpoint, rssi, on_connected=_connected
            )
            handshake.connect_s = connect_s

        def _connected() -> None:
            if not self._session_wanted(attempt):
                return
            access_point.endpoint.subscribe(self._ctrl_topic, self._on_ctrl)
            # "All the devices in the network and the aggregators are
            # time-synchronized": put this RTC under the network's
            # discipline, with an immediate first correction.
            access_point.timesync.register_clock(self.name, self._rtc)
            self._rtc.synchronize(self.now)
            self._mcu.set_state(McuState.IDLE, self.now)
            self._arm_ledger_sync()
            decision = self._fsm.network_joined()
            self._apply_decision(decision)
            # The handshake completes at the first accepted report (home
            # re-entry) or at the registration response (new / foreign
            # network) — the device cannot tell which case it is yet.

        self.sim.call_later(scan_s, _scanned, label=f"{self.name}:scan")

    def select_network(
        self, candidates: list[tuple[AccessPoint, float]]
    ) -> tuple[AccessPoint, float, float]:
        """Pick the reporting aggregator by RSSI (paper footnote 2).

        "The Received Signal Strength Indicator (RSSI) is used by the
        device ... to detect its reporting aggregator."  Evaluates one
        (shadowed) RSSI sample per candidate ``(access_point,
        distance_m)`` and returns ``(best_ap, its_distance, its_rssi)``.
        """
        if not candidates:
            raise ProtocolError(f"{self.name} has no candidate networks to scan")
        best: tuple[AccessPoint, float, float] | None = None
        for access_point, distance_m in candidates:
            rssi = self._radio.rssi_dbm(distance_m)
            self.trace(
                "device.scan_candidate",
                network=access_point.aggregator_id.name,
                rssi_dbm=rssi,
            )
            if best is None or rssi > best[2]:
                best = (access_point, distance_m, rssi)
        return best

    def enter_best_network(
        self, candidates: list[tuple[AccessPoint, float]]
    ) -> AccessPoint:
        """Scan candidates, pick the strongest and enter its network."""
        access_point, distance_m, _ = self.select_network(candidates)
        self.enter_network(access_point, distance_m)
        return access_point

    def leave_network(self) -> None:
        """Electrically detach and drop all connectivity.

        Consumption stops with the electrical connection (transit draws
        nothing from the grid), so the firmware halts too.
        """
        if self._current_ap is None:
            raise ProtocolError(f"{self.name} is not in any network")
        if self._vector_cohort is not None:
            self._vector_cohort.release(self, "roam")
        # A handshake still in flight stops at its next stage.
        self._joining = None
        if self._client.connected:
            try:
                self._current_ap.endpoint.unsubscribe(self._ctrl_topic, self._on_ctrl)
            except Exception:
                pass
            self._client.disconnect()
        self._current_ap.timesync.unregister_clock(self.name)
        self._grid.detach(self._device_id)
        self._firmware.stop()
        self._fsm.network_left()
        self._recover_inflight()
        if self._handshake_span is not None:
            # Leaving mid-handshake (e.g. roamed away before the
            # registration round resolved) abandons the conversation.
            self._spans.finish(self._handshake_span, "aborted")
            self._handshake_span = None
        self.trace("device.leave_network", network=self._current_ap.aggregator_id.name)
        self._current_ap = None
        self._mcu.set_state(McuState.LIGHT_SLEEP, self.now)

    def drop_connection(self) -> None:
        """Lose communication only — the grid attachment stays.

        Models a Wi-Fi fade or broker outage ("if there is ... a
        transmission or a registration failure, the raw energy
        consumption value while charging is temporarily stored in local
        memory", §II-C).  Sampling continues; measurements buffer until
        :meth:`reconnect`.
        """
        if self._current_ap is None:
            raise ProtocolError(f"{self.name} is not in any network")
        if not self._client.connected:
            raise ProtocolError(f"{self.name} is already disconnected")
        if self._vector_cohort is not None:
            self._vector_cohort.release(self, "connection_drop")
        try:
            self._current_ap.endpoint.unsubscribe(self._ctrl_topic, self._on_ctrl)
        except Exception:
            pass
        self._client.disconnect()
        # Sync runs over the network; no connection, no discipline.
        self._current_ap.timesync.unregister_clock(self.name)
        self._recover_inflight()
        self.trace("device.connection_lost")

    def reconnect(self) -> None:
        """Re-establish the session after a communication-only outage.

        The AP is known, so there is no full scan — re-association plus
        the MQTT connect.  Buffered data flushes after the first Ack.
        """
        if self._current_ap is None:
            raise ProtocolError(f"{self.name} is not in any network")
        if self._client.connected:
            raise ProtocolError(f"{self.name} is already connected")
        if self._joining is not None:
            raise ProtocolError(f"{self.name} is still joining")
        access_point = self._current_ap
        rssi = self._radio.rssi_dbm(self._ap_distance_m)
        assoc_s = self._radio.association_duration_s()
        attempt = self._joining = object()

        def _associated() -> None:
            if self._joining is not attempt:
                return

            def _connected() -> None:
                if not self._session_wanted(attempt):
                    return
                access_point.endpoint.subscribe(self._ctrl_topic, self._on_ctrl)
                access_point.timesync.register_clock(self.name, self._rtc)
                self.trace("device.reconnected")

            self._client.connect(access_point.endpoint, rssi, on_connected=_connected)

        self.sim.call_later(assoc_s, _associated, label=f"{self.name}:reassoc")

    def _session_wanted(self, attempt: object) -> bool:
        """Settle a session that just came up for join ``attempt``.

        True (and the join is over) while the device is still joining
        with that attempt; otherwise the device left or started over
        meanwhile, so the stale session is dropped at once.
        """
        if self._joining is not attempt:
            self._client.disconnect()
            return False
        self._joining = None
        return True

    # -- data path ----------------------------------------------------------

    def _next_sequence(self) -> int:
        seq = self._sequence
        self._sequence += 1
        return seq

    def _build_report(self, measurement: Measurement, buffered: bool = False) -> ConsumptionReport:
        current_ma = measurement.current_ma
        reported_energy = measurement.energy_mwh
        if self._tamper_attack is not None:
            current_ma = self._tamper_attack.apply(current_ma)
            reported_energy = energy_mwh(
                current_ma, measurement.voltage_v, measurement.interval_s
            )
        return ConsumptionReport(
            device_id=self._device_id,
            master=self._fsm.master,
            temporary=self._fsm.temporary,
            sequence=self._next_sequence(),
            measured_at=self._rtc.read(measurement.measured_at),
            interval_s=measurement.interval_s,
            current_ma=current_ma,
            voltage_v=measurement.voltage_v,
            energy_mwh=reported_energy,
            buffered=buffered,
        )

    def _on_measurement(self, measurement: Measurement) -> None:
        report = self._build_report(measurement)
        if self._fsm.can_report and self._client.connected:
            self._transmit(report)
        else:
            self._store.store(report)
            self.count("reports_buffered")
            self.trace("device.buffer", sequence=report.sequence)

    def _restamp_addresses(self, report: ConsumptionReport) -> ConsumptionReport:
        """Update a buffered report's addresses to the current membership."""
        if report.master == self._fsm.master and report.temporary == self._fsm.temporary:
            return report
        return dataclasses.replace(
            report, master=self._fsm.master, temporary=self._fsm.temporary
        )

    def _publish_message(
        self, topic: str, message: Any, qos: QoS = QoS.AT_LEAST_ONCE
    ) -> bool:
        """Publish ``message`` in the link's wire form.

        Radio backends get encoded bytes plus the payload size that
        drives airtime; in-process backends get the frozen dataclass
        itself, skipping the codec round-trip per message.
        """
        if self._wire_bytes:
            payload = encode_message(message)
            return self._client.publish(
                topic, payload, qos=qos, payload_bytes=len(payload)
            )
        return self._client.publish(topic, message, qos=qos)

    def _transmit(self, report: ConsumptionReport) -> None:
        self._mcu.set_state(McuState.WIFI_TX, self.now)
        delivered = self._publish_message(
            self._report_topic, report, qos=self._config.report_qos
        )
        self._mcu.set_state(McuState.IDLE, self.now)
        if delivered:
            self.count("reports_sent")
            self._await_ack(report, self.now)
        else:
            # All QoS-1 retries failed (deep fade): keep the data.
            self._store.store(report)
            self.count("reports_buffered")

    def _recover_inflight(self) -> None:
        """Tear down the in-flight window on a session loss.

        With a retry policy the unacknowledged reports re-enter the
        local store (an Ack that never came must be assumed lost;
        duplicates are deduplicated downstream by sequence).  Without
        one they are dropped with the session — the legacy behaviour.
        """
        if self._config.retry is not None:
            for sequence in sorted(self._inflight):
                self._store.store(self._inflight[sequence][1])
        self._inflight.clear()
        self._report_attempts.clear()
        self._cancel_reg_watchdog()

    def _await_ack(self, report: ConsumptionReport, sent_at: float) -> None:
        """Hold ``report`` in flight until its Ack, due ``timeout_s`` after ``sent_at``.

        The window lets a NOT_A_MEMBER Nack or a session loss re-buffer
        the data.  The timeout is constant, so re-inserting keeps the
        window in deadline order and a resend restarts its deadline
        (RFC 6298 §5.1); one timer runs at the oldest deadline (§5).
        """
        retry = self._config.retry
        deadline = math.inf if retry is None else sent_at + retry.timeout_s
        self._inflight.pop(report.sequence, None)
        self._inflight[report.sequence] = (deadline, report)
        if retry is not None and not self._ack_timer_armed:
            self._ack_timer_armed = True
            self.sim.schedule(deadline, self._on_ack_timer, label=self._ack_timeout_label)

    def _on_ack_timer(self) -> None:
        """No Ack within the policy timeout: recover each overdue report.

        Every report past its deadline re-enters the local store (so the
        data survives) and a flush attempt is scheduled after a jittered
        exponential backoff.  Once the policy's attempt budget is spent
        the report stops driving its own backoff chain — it stays parked
        in the store and only rides flushes other events trigger, so
        active retries are bounded but metered data is lost only to
        store overflow (§II-C: "temporarily stored in local memory").
        The timer then re-arms at the oldest deadline still in flight or
        lapses; Acks, Nacks and session loss only remove entries.
        """
        policy = self._config.retry
        assert policy is not None
        now = self.now
        inflight = self._inflight
        while inflight:
            sequence, (deadline, report) = next(iter(inflight.items()))
            if deadline > now:
                self.sim.schedule(deadline, self._on_ack_timer, label=self._ack_timeout_label)
                return
            del inflight[sequence]
            self._store.store(report)
            failures = self._report_attempts.get(sequence, 0) + 1
            self._report_attempts[sequence] = failures
            if policy.exhausted(failures):
                if failures == policy.max_attempts:
                    self.count("retry_exhausted")
                    self.trace("device.retry_exhausted", sequence=sequence, attempts=failures)
                continue
            self.count("report_timeouts")
            self.trace("device.report_timeout", sequence=sequence, attempt=failures)
            backoff = policy.backoff_s(failures, self.rng("retry"))
            self.count("flush_retries")
            self.sim.call_later(backoff, self._flush_buffer, label=self._flush_retry_label)
        self._ack_timer_armed = False

    def _flush_buffer(self) -> None:
        """Send buffered records alongside the next transmissions."""
        if self._store.is_empty or not self._client.connected or not self._fsm.can_report:
            return
        batch = self._store.drain(self._config.flush_batch)
        for report in batch:
            self._transmit(self._restamp_addresses(report))
        if not self._store.is_empty:
            # Spread remaining backlog over subsequent slots.
            self.sim.call_later(
                self._config.t_measure_s, self._flush_buffer, label=self._flush_label
            )
        self.trace("device.flush", flushed=len(batch), remaining=self._store.pending)

    # -- lightweight-client ledger sync -------------------------------------

    @property
    def header_chain(self) -> HeaderChain | None:
        """The device's header-only ledger view (None when sync is off)."""
        return self._sync_client.chain if self._sync_client is not None else None

    @property
    def sync_stats(self) -> "SyncStats | None":
        """Sync traffic/staleness accounting (None when sync is off)."""
        return self._sync_client.stats if self._sync_client is not None else None

    def _arm_ledger_sync(self) -> None:
        """Start the periodic header-sync task (once, on first connect).

        The first round fires one reporting interval after joining — a
        lightweight client bootstraps its header chain promptly (Danzi
        et al.'s checkpoint fast-forward covers an old chain), then the
        batch-size-derived period governs steady-state catch-up.
        """
        if self._sync_client is None or self._sync_task is not None:
            return
        interval = self._sync_client.policy.effective_interval_s()
        self._sync_task = self.sim.every(
            interval,
            self._sync_tick,
            first_at=self.now + self._config.t_measure_s,
            label=f"{self.name}:chainsync",
        )

    def _sync_tick(self) -> None:
        if self._sync_client is None or not self._client.connected:
            return
        if not self._fsm.can_report:
            # Mid-registration (the bootstrap round typically lands
            # here): retry shortly rather than idling a whole period.
            self.sim.call_later(
                self._config.t_measure_s,
                self._sync_tick,
                label=f"{self.name}:chainsync",
            )
            return
        self._send_sync_request()

    def _send_sync_request(self) -> None:
        client = self._sync_client
        assert client is not None
        from_height, max_count = client.next_request()
        request = HeaderBatchRequest(self._device_id, from_height, max_count)
        client.stats.requests_sent += 1
        client.stats.bytes_sent += encoded_size(request)
        self._publish_message(self._sync_topic, request)

    def _on_header_batch(self, message: HeaderBatchResponse) -> None:
        client = self._sync_client
        if client is None:
            return  # Sync disabled; a stray response is ignorable.
        client.stats.bytes_received += encoded_size(message)
        try:
            headers = [HeaderRecord.from_dict(data) for data in message.headers]
            checkpoint = (
                Checkpoint.from_dict(message.checkpoint)
                if message.checkpoint is not None
                else None
            )
        except ChainError as exc:
            # The aggregator's payload did not parse: a rejected batch.
            client.stats.responses_received += 1
            client.stats.batches_rejected += 1
            self.trace("device.headers_rejected", error=str(exc))
            return
        behind = client.apply_response(headers, message.tip_height, checkpoint, self.now)
        self.trace(
            "device.headers_synced",
            height=client.chain.height,
            tip=message.tip_height,
        )
        if behind and self._client.connected and self._fsm.can_report:
            # Catch-up: keep requesting until the view reaches the tip
            # instead of waiting out the poll interval.
            self._send_sync_request()

    # -- billing-dispute receipts -------------------------------------------

    @property
    def receipts(self) -> dict[int, "InclusionReceipt | None"]:
        """Receipt answers by sequence: a verified receipt, or None when
        the aggregator reported not-found / verification failed."""
        return dict(self._receipts)

    def request_receipt(self, sequence: int) -> None:
        """Ask the current aggregator to prove a record is in the ledger.

        The answer lands in :attr:`receipts`; the Merkle proof is
        verified on arrival, so a receipt stored there is trustworthy.
        """
        if not self._client.connected:
            raise ProtocolError(f"{self.name} cannot request receipts while offline")
        request = ReceiptRequest(self._device_id, sequence)
        self._publish_message(f"meter/{self._device_id.name}/receipt", request)

    def _on_receipt_response(self, message: ReceiptResponse) -> None:
        from repro.chain.receipts import receipt_from_dict

        if not message.found or message.receipt is None:
            self._receipts[message.sequence] = None
            self.trace("device.receipt_missing", sequence=message.sequence)
            return
        try:
            receipt = receipt_from_dict(message.receipt)
            chain_view = self.header_chain
            if chain_view is not None and chain_view.covers(receipt.block_height):
                # Full offline verification: the synced header chain vouches
                # for the block coordinates, no trust in the aggregator.
                ok = chain_view.verify_receipt(receipt)
                offline = True
            else:
                # Proof-only check against the receipt's own header fields.
                ok = receipt.verify()
                offline = False
        except ChainError:
            # A malformed payload, or a record with no canonical
            # encoding, fails like a bad proof.
            ok = False
        if not ok:
            # A receipt that fails its own proof is worse than none.
            self._receipts[message.sequence] = None
            self.trace("device.receipt_invalid", sequence=message.sequence)
            return
        self._receipts[message.sequence] = receipt
        self.trace(
            "device.receipt_verified", sequence=message.sequence, offline=offline
        )

    # -- remote management ----------------------------------------------------

    def _on_mgmt_command(self, command: MgmtCommand) -> None:
        from repro.device.app.remote_mgmt import RemoteManagement
        from repro.errors import ProtocolError as _ProtocolError

        manager = RemoteManagement(self)
        try:
            payload = manager.handle(command.command, command.argument)
            ok = True
        except _ProtocolError as exc:
            payload = {"error": str(exc)}
            ok = False
        response = MgmtResponse(self._device_id, command.request_id, ok, payload)
        if self._client.connected:
            self._publish_message(f"meter/{self._device_id.name}/mgmt", response)
        self.trace("device.mgmt", command=command.command, ok=ok)

    # -- protocol ----------------------------------------------------------

    def _send_registration(self, request: RegistrationRequest) -> None:
        if not self._client.connected:
            raise ProtocolError(f"{self.name} cannot register while disconnected")
        self._publish_message(f"meter/{self._device_id.name}/register", request)
        self.trace(
            "device.register",
            temporary=request.is_temporary,
            master=str(request.master) if request.master else None,
        )
        if self._config.retry is not None:
            # Silent-loss watchdog: a registration round answered by
            # nothing at all (request or response lost) must not strand
            # the device in REGISTERING forever.
            self._cancel_reg_watchdog()
            self._reg_watchdog = self.sim.call_later(
                self._config.registration_retry_s,
                self._on_registration_silence,
                label=f"{self.name}:reg-watchdog",
            )

    def _cancel_reg_watchdog(self) -> None:
        if self._reg_watchdog is not None:
            self._reg_watchdog.cancel()
            self._reg_watchdog = None

    def _on_registration_silence(self) -> None:
        self._reg_watchdog = None
        if self._fsm.phase is not DevicePhase.REGISTERING:
            return
        if not self._client.connected:
            return
        self.count("registration_timeouts")
        self.trace("device.registration_timeout")
        self._send_registration(
            RegistrationRequest(self._device_id, master=self._fsm.master)
        )

    def _schedule_registration_retry(self) -> None:
        # An explicit Nack answered this round; the scheduled retry owns
        # the next one.
        self._cancel_reg_watchdog()
        def _retry() -> None:
            if not self._client.connected:
                return
            if self._fsm.phase is not DevicePhase.REGISTERING:
                return
            self._send_registration(
                RegistrationRequest(self._device_id, master=self._fsm.master)
            )

        self.sim.call_later(
            self._config.registration_retry_s, _retry, label=f"{self.name}:reg-retry"
        )

    def _apply_decision(self, decision: FsmDecision) -> None:
        if decision.send_registration is not None:
            self._send_registration(decision.send_registration)
        if decision.flush_buffer:
            self._flush_buffer()

    def _on_ctrl(self, topic: str, payload: Any) -> None:
        message = as_message(payload)
        if self._vector_cohort is not None and not isinstance(message, Ack):
            # Anything beyond a plain Ack (Nack, registration traffic,
            # management commands, receipts, sync batches, transfers)
            # means the device is no longer in steady state: restore the
            # full per-object actor before handling it.  Acks for
            # cohort-deferred reports complete consistently either way.
            self._vector_cohort.release(self, "ctrl")
        if isinstance(message, Ack):
            if message.sequence is not None:
                self._acked_sequences.add(message.sequence)
                self._inflight.pop(message.sequence, None)
                self._report_attempts.pop(message.sequence, None)
            handshake = self.last_handshake
            if handshake is not None and handshake.registered_at is None:
                # Home re-entry: the first accepted report ends the
                # handshake without any registration round.
                handshake.registered_at = self.now
                if self._handshake_span is not None:
                    self._spans.finish(
                        self._handshake_span, "ok", temporary=False, re_entry=True
                    )
                    self._handshake_span = None
            # "The combination of stored data and the measurement are
            # transmitted ... in the next transmission": once a report
            # is accepted, any backlog follows.
            if not self._store.is_empty:
                self._flush_buffer()
        elif isinstance(message, RegistrationResponse):
            self._cancel_reg_watchdog()
            decision = self._fsm.registration_response(message)
            handshake = self.last_handshake
            if handshake is not None and handshake.registered_at is None:
                handshake.registered_at = self.now
                handshake.temporary = message.temporary
                if self._handshake_span is not None:
                    self._spans.finish(
                        self._handshake_span, "ok", temporary=message.temporary
                    )
                    self._handshake_span = None
            self.trace(
                "device.registered",
                address=str(message.address),
                temporary=message.temporary,
            )
            self._apply_decision(decision)
        elif isinstance(message, Nack):
            self.trace("device.nack", reason=message.reason.value)
            if message.reason == NackReason.NETWORK_FULL:
                # Admission refused: measurements keep buffering; retry
                # membership after a backoff (slots may free up).
                self._schedule_registration_retry()
                return
            if (
                message.reason == NackReason.VERIFICATION_FAILED
                and self._fsm.phase is DevicePhase.REGISTERING
            ):
                # The host could not get the master's vouch — commonly a
                # transient backhaul fault (partition, crashed master),
                # so keep buffering and retry once it may have healed.
                self._schedule_registration_retry()
                return
            if message.sequence is not None:
                rejected = self._inflight.pop(message.sequence, None)
                self._report_attempts.pop(message.sequence, None)
                if rejected is not None and message.reason == NackReason.NOT_A_MEMBER:
                    # The host refused for lack of membership, not for the
                    # data itself — keep it for after registration.
                    self._store.store(rejected[1])
            decision = self._fsm.report_nacked(message)
            self._apply_decision(decision)
        elif isinstance(message, ReceiptResponse):
            self._on_receipt_response(message)
        elif isinstance(message, HeaderBatchResponse):
            self._on_header_batch(message)
        elif isinstance(message, MgmtCommand):
            self._on_mgmt_command(message)
        elif isinstance(message, TransferMembership):
            self._fsm.membership_transferred(message.new_master)
            self.trace("device.transferred", new_master=str(message.new_master))
        elif isinstance(message, RemoveDevice):
            self._fsm.removed()
            self.trace("device.removed")
        else:
            raise ProtocolError(
                f"unexpected control message {type(message).__name__} for {self.name}"
            )
