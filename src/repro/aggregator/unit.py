"""The aggregator unit: one trusted node per grid-location.

Composes broker, membership registry, TDMA schedule, feeder meter,
verification, ledger writer, roaming liaison and time sync into the
actor that runs both aggregator-side sequences of Fig. 3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.aggregator.aggregation import ReportAggregator
from repro.aggregator.ledger_writer import LedgerWriter
from repro.aggregator.membership import MembershipKind, MembershipRegistry
from repro.aggregator.roaming import RoamingLiaison
from repro.aggregator.verification import ReportVerifier, VerificationPolicy
from repro.chain.ledger import Blockchain
from repro.chain.sync import header_batch
from repro.errors import ChainError, ConfigError, ProtocolError, SlotAllocationError
from repro.faults.retry import RetryPolicy
from repro.grid.meter import FeederMeter
from repro.grid.topology import GridNetwork
from repro.hw.rpi import RaspberryPi
from repro.ids import AggregatorId, DeviceId, NetworkAddress
from repro.monitoring.timeseries import SeriesBank
from repro.net.tdma import TdmaSchedule
from repro.net.timesync import TimeSyncService
from repro.protocol.codec import as_message, encode_message
from repro.protocol.messages import (
    Ack,
    ConsumptionReport,
    ForwardedConsumption,
    HeaderBatchRequest,
    HeaderBatchResponse,
    MembershipVerifyRequest,
    MembershipVerifyResponse,
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
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.transport.base import Endpoint, Mesh, Transport


@dataclass(frozen=True)
class AggregatorConfig:
    """Static configuration of one aggregator unit.

    Attributes:
        t_measure_s: Reporting interval / feeder sampling period.
        slot_count: TDMA slots — bounds devices per aggregator.
        block_interval_s: Cadence of ledger block creation.
        temp_member_timeout_s: Silence after which a temporary
            membership is discarded (device left the network).
        downlink_latency_s: Broker-to-device delivery latency.
        timesync_interval_s: RTC discipline period.
        residual_check_windows: Rolling windows averaged per residual
            check.  A device and the feeder meter can sample opposite
            sides of a sharp load edge in one window; averaging K
            windows suppresses that skew while persistent manipulation
            still accumulates.
        verification: Report/network screen policy.
        verify_retry: Timeout/backoff policy for backhaul membership
            verifies (None leaves unanswered verifies pending forever).
    """

    t_measure_s: float = 0.1
    slot_count: int = 16
    block_interval_s: float = 1.0
    temp_member_timeout_s: float = 2.0
    downlink_latency_s: float = 0.003
    timesync_interval_s: float = 60.0
    residual_check_windows: int = 5
    verification: VerificationPolicy = field(default_factory=VerificationPolicy)
    verify_retry: RetryPolicy | None = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.t_measure_s <= 0:
            raise ConfigError(f"t_measure must be positive, got {self.t_measure_s}")
        if self.block_interval_s <= 0:
            raise ConfigError(
                f"block interval must be positive, got {self.block_interval_s}"
            )
        if self.temp_member_timeout_s <= 0:
            raise ConfigError(
                f"temp timeout must be positive, got {self.temp_member_timeout_s}"
            )
        if self.downlink_latency_s < 0:
            raise ConfigError(
                f"downlink latency must be >= 0, got {self.downlink_latency_s}"
            )
        if self.residual_check_windows < 1:
            raise ConfigError(
                f"residual check windows must be >= 1, got {self.residual_check_windows}"
            )


class AggregatorUnit(Process):
    """One aggregator: endpoint host, verifier, ledger writer, liaison.

    Args:
        simulator: The kernel (the endpoint and time-sync
            sub-processes run on it too, so all of the unit's actors
            emit into its counter bank and trace stream).
        aggregator_id: This unit's identity (names its WAN).
        chain: The common permissioned blockchain.
        mesh: The inter-aggregator backhaul.
        grid_network: The grid-location this unit meters.
        config: Static configuration.
        transport: Transport backend hosting this unit's device-facing
            endpoint; defaults to a standalone
            :class:`~repro.transport.mqtt.MqttTransport` (an MQTT broker
            without a radio environment — the historic behaviour).
    """

    def __init__(
        self,
        simulator: Simulator,
        aggregator_id: AggregatorId,
        chain: Blockchain,
        mesh: Mesh,
        grid_network: GridNetwork,
        config: AggregatorConfig | None = None,
        transport: Transport | None = None,
    ) -> None:
        super().__init__(simulator, aggregator_id.name)
        if transport is None:
            from repro.transport.mqtt import MqttTransport

            transport = MqttTransport()
        self._aggregator_id = aggregator_id
        self._config = config or AggregatorConfig()
        self._host = RaspberryPi(self.rng("host"))
        self._broker: Endpoint = transport.make_endpoint(simulator, aggregator_id.name)
        self._tdma = TdmaSchedule(self._config.t_measure_s, self._config.slot_count)
        self._registry = MembershipRegistry(aggregator_id, self._tdma)
        self._meter = FeederMeter(grid_network, self.rng("feeder-sensor"))
        self._aggregation = ReportAggregator(self._config.t_measure_s)
        self._verifier = ReportVerifier(self._config.verification)
        self._writer = LedgerWriter(chain, aggregator_id.name)
        self._liaison = RoamingLiaison(
            aggregator_id, mesh, retry=self._config.verify_retry
        )
        self._timesync = TimeSyncService(
            simulator, f"{aggregator_id.name}-timesync", self._config.timesync_interval_s
        )
        self._bank = SeriesBank()
        self._started = False
        self._down = False
        self._mesh = mesh
        self._duties: list[Any] = []
        self._last_checked_window_start = -1.0
        # Residual checks are suppressed while membership churns: a
        # newly attached device consumes (the feeder sees it) before its
        # registration completes, which would trip the sum check.
        self._membership_settle_until = 0.0
        self._residual_window: deque[tuple[float, float]] = deque(
            maxlen=self._config.residual_check_windows
        )

        self._chain = chain
        chain.authorize(aggregator_id.name)
        mesh.add_aggregator(aggregator_id, self._on_backhaul)
        self._broker.subscribe("meter/+/register", self._on_register)
        self._broker.subscribe("meter/+/report", self._on_report)
        self._broker.subscribe("meter/+/receipt", self._on_receipt_request)
        self._broker.subscribe("meter/+/chainsync", self._on_header_request)
        self._broker.subscribe("meter/+/mgmt", self._on_mgmt_response)
        self._next_mgmt_request = 1
        self._mgmt_responses: dict[int, MgmtResponse] = {}
        # In-process endpoints take message dataclasses verbatim; radio
        # endpoints need encoded wire bytes.
        self._wire_bytes = self._broker.wire_bytes
        # Per-event strings built once: the report path formats nothing
        # per message.
        self._ctrl_topics: dict[DeviceId, str] = {}
        self._received_keys: dict[DeviceId, str] = {}
        self._report_label = f"{self.name}:report"
        # Reports awaiting processing, by due time.  Each has its own
        # kernel event at that time, whose callback (bound once, not a
        # closure per report) takes the oldest report due now.
        self._arriving: dict[float, list[tuple[ConsumptionReport, Any]]] = {}
        self._process_due = self._process_arrived
        self._reg_label = f"{self.name}:reg"

    # -- introspection ---------------------------------------------------

    @property
    def aggregator_id(self) -> AggregatorId:
        """This unit's identity."""
        return self._aggregator_id

    @property
    def endpoint(self) -> Endpoint:
        """The hosted transport endpoint (devices connect here)."""
        return self._broker

    @property
    def registry(self) -> MembershipRegistry:
        """The membership registry."""
        return self._registry

    @property
    def verifier(self) -> ReportVerifier:
        """The verification pipeline (stats live here)."""
        return self._verifier

    @property
    def writer(self) -> LedgerWriter:
        """The ledger writer."""
        return self._writer

    @property
    def liaison(self) -> RoamingLiaison:
        """The roaming liaison (backhaul stats live here)."""
        return self._liaison

    @property
    def timesync(self) -> TimeSyncService:
        """The time-sync service devices register their RTCs with."""
        return self._timesync

    @property
    def aggregation(self) -> ReportAggregator:
        """The windowed report/feeder aggregation."""
        return self._aggregation

    @property
    def meter(self) -> FeederMeter:
        """The feeder meter (system-level complementary measurement)."""
        return self._meter

    @property
    def monitoring(self) -> SeriesBank:
        """Recorded time series (feeder, per-device arrivals)."""
        return self._bank

    @property
    def acks_sent(self) -> int:
        """Positive acknowledgments sent to devices."""
        return self.counted("acks_sent")

    @property
    def nacks_sent(self) -> int:
        """Negative acknowledgments sent to devices."""
        return self.counted("nacks_sent")

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Begin periodic duties: feeder sampling, blocks, expiry, sync."""
        if self._started:
            return
        self._started = True
        self._arm_duties()

    def _arm_duties(self) -> None:
        self._duties = [
            self.sim.every(
                self._config.t_measure_s, self._feeder_tick, label=f"{self.name}:feeder"
            ),
            self.sim.every(
                self._config.block_interval_s, self._flush_block, label=f"{self.name}:block"
            ),
            self.sim.every(
                self._config.temp_member_timeout_s / 2.0,
                self._expire_temporaries,
                label=f"{self.name}:expiry",
            ),
        ]
        self._timesync.start()

    def _stop_duties(self) -> None:
        for task in self._duties:
            task.stop()
        self._duties = []
        self._timesync.stop()

    # -- device-facing messaging -------------------------------------------

    def _note_membership_change(self) -> None:
        """Suppress residual checks while the member set stabilises.

        Other devices entering the same network are typically mid-join
        (feeder-visible but unregistered), so the sum check would flag
        honest startup; two seconds comfortably covers join-time jitter.
        """
        self._membership_settle_until = max(
            self._membership_settle_until, self.now + 2.0
        )

    def _send_to_device(self, device_id: DeviceId, message: Any) -> None:
        topic = self._ctrl_topics.get(device_id)
        if topic is None:
            topic = self._ctrl_topics[device_id] = f"device/{device_id.name}/ctrl"
        self._broker.deliver(
            topic,
            encode_message(message) if self._wire_bytes else message,
            after_s=self._config.downlink_latency_s,
        )

    def _ack(self, device_id: DeviceId, sequence: int | None = None) -> None:
        self.count("acks_sent")
        self._send_to_device(device_id, Ack(device_id, sequence))

    def _nack(
        self, device_id: DeviceId, reason: NackReason, sequence: int | None = None
    ) -> None:
        self.count("nacks_sent")
        self._send_to_device(device_id, Nack(device_id, reason, sequence))

    # -- registration (Fig. 3, sequences 1 and 2) ---------------------------

    def _on_register(self, topic: str, payload: Any) -> None:
        message = as_message(payload)
        if not isinstance(message, RegistrationRequest):
            raise ProtocolError(f"non-registration message on {topic}")
        span = None
        if self._spans.enabled:
            span = self._spans.begin(
                "membership.register", self.name, device=message.device_id.name
            )
        delay = self._host.processing_latency_s()
        self.sim.call_later(
            delay,
            lambda: self._process_registration(message, span),
            label=self._reg_label,
        )

    def _process_registration(
        self, request: RegistrationRequest, span: Any = None
    ) -> None:
        device_id = request.device_id
        spans = self._spans
        if request.master is None:
            # Sequence 1: new home membership.
            try:
                member = self._registry.register_master(device_id, self.now)
            except SlotAllocationError:
                # "With limited time-slots ... the number of devices
                # connected to an aggregator is also limited": admission
                # control, not a crash.
                self.trace("agg.network_full", device=device_id.name)
                self._nack(device_id, NackReason.NETWORK_FULL)
                if span is not None:
                    spans.finish(span, "nack", reason="network_full")
                return
            self._note_membership_change()
            self.trace("agg.register_master", device=device_id.name)
            self._send_to_device(
                device_id,
                RegistrationResponse(device_id, member.address, temporary=False),
            )
            if span is not None:
                spans.finish(span, "ok", kind="master")
            return
        if request.master.aggregator == self._aggregator_id:
            # The device claims us as its home.
            member = self._registry.get(device_id)
            if member is not None and member.kind == MembershipKind.MASTER:
                self._send_to_device(
                    device_id,
                    RegistrationResponse(device_id, member.address, temporary=False),
                )
                if span is not None:
                    spans.finish(span, "ok", kind="master")
            elif self._ledger_vouches_for(device_id):
                # Post-restart recovery: the registry (RAM) is gone but
                # the durable chain holds this device's home records —
                # the claim checks out, so re-admit it.
                try:
                    member = self._registry.register_master(device_id, self.now)
                except SlotAllocationError:
                    self._nack(device_id, NackReason.NETWORK_FULL)
                    if span is not None:
                        spans.finish(span, "nack", reason="network_full")
                    return
                self._note_membership_change()
                self.trace("agg.re_registered_from_ledger", device=device_id.name)
                self._send_to_device(
                    device_id,
                    RegistrationResponse(device_id, member.address, temporary=False),
                )
                if span is not None:
                    spans.finish(span, "ok", kind="master", re_registered=True)
            else:
                self._nack(device_id, NackReason.UNKNOWN_MASTER)
                if span is not None:
                    spans.finish(span, "nack", reason="unknown_master")
            return
        # Sequence 2: temporary membership, verify with the master first.
        master_address = request.master

        def _on_verdict(response: MembershipVerifyResponse) -> None:
            if response.valid:
                try:
                    member = self._registry.register_temporary(
                        device_id, master_address, self.now
                    )
                except SlotAllocationError:
                    self.trace("agg.network_full", device=device_id.name)
                    self._nack(device_id, NackReason.NETWORK_FULL)
                    if span is not None:
                        spans.finish(span, "nack", reason="network_full")
                    return
                self._note_membership_change()
                self.trace(
                    "agg.register_temporary",
                    device=device_id.name,
                    master=master_address.aggregator.name,
                )
                self._send_to_device(
                    device_id,
                    RegistrationResponse(device_id, member.address, temporary=True),
                )
                if span is not None:
                    spans.finish(span, "ok", kind="temporary")
            else:
                self.trace("agg.verify_failed", device=device_id.name)
                self._nack(device_id, NackReason.VERIFICATION_FAILED)
                if span is not None:
                    spans.finish(span, "nack", reason="verification_failed")

        # The verify conversation nests under this registration span.
        self._liaison.request_verification(
            device_id, master_address.aggregator, _on_verdict, parent_span=span
        )

    def _ledger_vouches_for(self, device_id: DeviceId) -> bool:
        """Whether the durable chain holds home records of this device.

        Used to rebuild membership after a restart: a device whose
        validated consumption this aggregator previously committed is a
        legitimate home member even though the RAM registry is empty.
        """
        for record in self._chain.records_for_device(device_id.uid):
            if record.get("network") == self._aggregator_id.name and not record.get(
                "roaming"
            ):
                return True
        return False

    # -- reports -------------------------------------------------------------

    def _on_report(self, topic: str, payload: Any) -> None:
        message = as_message(payload)
        if not isinstance(message, ConsumptionReport):
            raise ProtocolError(f"non-report message on {topic}")
        span = None
        if self._spans.enabled:
            span = self._spans.begin(
                "report.conversation",
                self.name,
                device=message.device_id.name,
                sequence=message.sequence,
            )
        self._queue_report(self.now + self._host.processing_latency_s(), message, span)

    def _queue_report(self, due: float, report: ConsumptionReport, span: Any) -> None:
        """Process ``report`` at simulated time ``due``."""
        arriving = self._arriving.get(due)
        if arriving is None:
            self._arriving[due] = arriving = []
        arriving.append((report, span))
        self.sim.schedule(due, self._process_due, label=self._report_label)

    def _process_arrived(self) -> None:
        now = self.now
        arriving = self._arriving[now]
        report, span = arriving.pop(0)
        if not arriving:
            del self._arriving[now]
        self._process_report(report, span)

    def _process_report(self, report: ConsumptionReport, span: Any = None) -> None:
        device_id = report.device_id
        member = self._registry.get(device_id)
        if member is None:
            # Sequence 2 trigger: report from a non-member.
            self._nack(device_id, NackReason.NOT_A_MEMBER, report.sequence)
            if span is not None:
                self._spans.finish(span, "nack", reason="not_a_member")
            return
        verdict = self._verifier.screen_report(report)
        if verdict.anomalous:
            self._nack(device_id, NackReason.ANOMALOUS_REPORT, report.sequence)
            if span is not None:
                self._spans.finish(span, "nack", reason=verdict.reason)
            return
        self._registry.touch(device_id, self.now)
        self._aggregation.add_report(device_id, report.measured_at, report.current_ma)
        received_key = self._received_keys.get(device_id)
        if received_key is None:
            received_key = self._received_keys[device_id] = f"received:{device_id.name}"
        self._bank.record(received_key, self.now, report.current_ma, "mA")
        if member.kind == MembershipKind.TEMPORARY:
            # Host as cost center: Ack locally, forward home.
            self._ack(device_id, report.sequence)
            assert member.master_address is not None
            self._liaison.forward_report(report, member.master_address.aggregator)
            if span is not None:
                self._spans.finish(span, "forwarded")
            return
        record = report.to_record()
        record["roaming"] = False
        record["network"] = self._aggregator_id.name
        self._writer.stage(record)
        self._ack(device_id, report.sequence)
        if span is not None:
            self._spans.finish(span, "accepted")

    # -- remote device management ----------------------------------------------

    @property
    def mgmt_responses(self) -> dict[int, "MgmtResponse"]:
        """Management replies received, keyed by request id."""
        return dict(self._mgmt_responses)

    def manage_device(
        self, device_id: DeviceId, command: str, argument: float | None = None
    ) -> int:
        """Send a remote-management command; returns its request id.

        The device's reply appears in :attr:`mgmt_responses` once it
        arrives.  The device must be a current member (the downlink uses
        this aggregator's broker).
        """
        if self._registry.get(device_id) is None:
            raise ProtocolError(f"{device_id} is not a member of {self.name}")
        request_id = self._next_mgmt_request
        self._next_mgmt_request += 1
        self._send_to_device(
            device_id, MgmtCommand(device_id, request_id, command, argument)
        )
        self.trace("agg.mgmt_sent", device=device_id.name, command=command)
        return request_id

    def _on_mgmt_response(self, topic: str, payload: Any) -> None:
        message = as_message(payload)
        if not isinstance(message, MgmtResponse):
            raise ProtocolError(f"non-mgmt message on {topic}")
        self._mgmt_responses[message.request_id] = message

    # -- billing-dispute receipts --------------------------------------------

    def _on_receipt_request(self, topic: str, payload: Any) -> None:
        message = as_message(payload)
        if not isinstance(message, ReceiptRequest):
            raise ProtocolError(f"non-receipt message on {topic}")
        delay = self._host.processing_latency_s()
        self.sim.call_later(
            delay, lambda: self._process_receipt_request(message),
            label=f"{self.name}:receipt",
        )

    def _process_receipt_request(self, request: ReceiptRequest) -> None:
        from repro.chain.receipts import find_and_issue, receipt_to_dict

        try:
            receipt = find_and_issue(
                self._chain, request.device_id.uid, request.sequence
            )
        except ChainError:
            self._send_to_device(
                request.device_id,
                ReceiptResponse(request.device_id, request.sequence, found=False),
            )
            return
        self.trace("agg.receipt_issued", device=request.device_id.name,
                   sequence=request.sequence)
        self._send_to_device(
            request.device_id,
            ReceiptResponse(
                request.device_id,
                request.sequence,
                found=True,
                receipt=receipt_to_dict(receipt),
            ),
        )

    # -- lightweight-client header sync ---------------------------------------

    def _on_header_request(self, topic: str, payload: Any) -> None:
        message = as_message(payload)
        if not isinstance(message, HeaderBatchRequest):
            raise ProtocolError(f"non-chainsync message on {topic}")
        delay = self._host.processing_latency_s()
        self.sim.call_later(
            delay, lambda: self._process_header_request(message),
            label=f"{self.name}:chainsync",
        )

    def _process_header_request(self, request: HeaderBatchRequest) -> None:
        start, headers, checkpoint = header_batch(
            self._chain, request.from_height, request.max_count
        )
        self.trace(
            "agg.headers_served",
            device=request.device_id.name,
            from_height=start,
            count=len(headers),
            anchored=checkpoint is not None,
        )
        self._send_to_device(
            request.device_id,
            HeaderBatchResponse(
                request.device_id,
                start,
                self._chain.height,
                tuple(hr.to_dict() for hr in headers),
                None if checkpoint is None else checkpoint.to_dict(),
            ),
        )

    # -- backhaul -------------------------------------------------------------

    def _on_backhaul(self, source: AggregatorId, payload: Any) -> None:
        if isinstance(payload, MembershipVerifyRequest):
            is_member = self._registry.is_master_member(payload.device_id)
            self._liaison.answer_verification(payload, is_member)
        elif isinstance(payload, MembershipVerifyResponse):
            self._liaison.handle_verify_response(payload)
        elif isinstance(payload, ForwardedConsumption):
            self._liaison.note_forwarded_received()
            report = payload.report
            record = report.to_record()
            record["roaming"] = True
            record["network"] = self._aggregator_id.name
            record["host"] = payload.host.name
            self._writer.stage(record)
            self._bank.record(
                f"received:{report.device_id.name}", self.now, report.current_ma, "mA"
            )
            self.trace(
                "agg.forwarded_received",
                device=report.device_id.name,
                host=payload.host.name,
            )
        elif isinstance(payload, RemoveDevice):
            if self._registry.get(payload.device_id) is not None:
                self._registry.remove(payload.device_id)
            self.trace("agg.removed_by_transfer", device=payload.device_id.name)
        else:
            raise ProtocolError(
                f"unexpected backhaul payload {type(payload).__name__} at {self.name}"
            )

    # -- membership administration (Fig. 3, sequence 3) -------------------------

    def accept_transfer(self, device_id: DeviceId, old_master: AggregatorId) -> NetworkAddress:
        """Become the device's new home (transfer-of-ownership).

        Registers a master membership here, tells the device its updated
        master address, and asks the old master to delete its membership.
        Returns the new master address.
        """
        existing = self._registry.get(device_id)
        if existing is not None and existing.kind == MembershipKind.TEMPORARY:
            self._registry.remove(device_id)
        member = self._registry.register_master(device_id, self.now)
        self._note_membership_change()
        self._send_to_device(device_id, TransferMembership(device_id, member.address))
        self._liaison.send_remove(device_id, old_master)
        self.trace("agg.transfer_accepted", device=device_id.name)
        return member.address

    def remove_device(self, device_id: DeviceId) -> None:
        """Administratively remove a device (loss/reset)."""
        self._registry.remove(device_id)
        self._note_membership_change()
        self._send_to_device(device_id, RemoveDevice(device_id))
        self.trace("agg.device_removed", device=device_id.name)

    @property
    def down(self) -> bool:
        """Whether the unit is currently crashed (fault injection)."""
        return self._down

    def crash_for(self, outage_s: float) -> None:
        """Crash the whole unit for ``outage_s``, then restart it.

        During the outage the broker drops every message (devices'
        reports go unanswered and buffer locally via their retry path)
        and the mesh loses anything addressed to or from this node.  The
        restart runs :meth:`simulate_crash_restart` — volatile state is
        gone, the ledger survives — and re-arms the periodic duties.
        """
        if outage_s <= 0:
            raise ConfigError(f"outage must be positive, got {outage_s}")
        if self._down:
            raise ProtocolError(f"{self.name} is already down")
        self._down = True
        self._broker.set_down(True)
        self._mesh.set_node_down(self._aggregator_id, True)
        if self._started:
            self._stop_duties()
        self.trace("agg.crashed", outage_s=outage_s)
        self.sim.call_later(outage_s, self._restart, label=f"{self.name}:restart")

    def _restart(self) -> None:
        self._down = False
        self.simulate_crash_restart()
        self._broker.set_down(False)
        self._mesh.set_node_down(self._aggregator_id, False)
        if self._started:
            self._arm_duties()

    def simulate_crash_restart(self) -> None:
        """Aggregator process restart: volatile state gone, ledger kept.

        The membership registry, TDMA grants, aggregation windows and
        pending verifications live in RAM and are lost; the blockchain
        is durable storage and survives, and so do the verifier's counts,
        as every :class:`~repro.monitoring.counters.CounterBank` count
        does (its detectors start over).  Devices recover through the
        normal protocol: their next report draws ``Nack(NOT_A_MEMBER)``
        and the Fig. 3 registration sequence re-runs, with the outage
        window covered by their local store-and-forward buffers.
        """
        self._tdma = TdmaSchedule(self._config.t_measure_s, self._config.slot_count)
        self._registry = MembershipRegistry(self._aggregator_id, self._tdma)
        self._aggregation = ReportAggregator(self._config.t_measure_s)
        stats = self._verifier.stats
        self._verifier = ReportVerifier(self._config.verification)
        self._verifier.stats = stats
        self._residual_window.clear()
        self._last_checked_window_start = self.now
        self._note_membership_change()
        self.trace("agg.restarted")

    # -- anomaly attribution (paper §IV future work) ------------------------------

    def attribute_anomaly(
        self,
        min_windows: int = 50,
        suspicion_threshold: float = 0.15,
    ) -> "AttributionResult":
        """Identify which member device misreports, from stored windows.

        Feeds every complete aggregation window into a least-squares
        :class:`~repro.anomaly.attribution.DeviceAttributor`.  Call it
        after the network-level residual check has been flagging — it
        answers the follow-up question the paper leaves as future work.
        Only the held windows are read: the newest
        :data:`~repro.aggregator.aggregation.HISTORY_S` (40 s) of them.
        """
        from repro.anomaly.attribution import DeviceAttributor

        attributor = DeviceAttributor(
            expected_loss_fraction=self._config.verification.expected_loss_fraction,
            min_windows=min_windows,
            suspicion_threshold=suspicion_threshold,
        )
        for window in self._aggregation.complete_windows():
            attributor.add_window(window.reported_ma, window.feeder_ma)
        return attributor.estimate()

    # -- periodic duties --------------------------------------------------------

    def _feeder_tick(self) -> None:
        measured = self._meter.measure_ma(self.now)
        self._aggregation.add_feeder_sample(self.now, measured)
        self._bank.record("feeder", self.now, measured, "mA")
        # Judge a window only after a two-superframe grace period so
        # every slot's report (plus transit and processing delay) has
        # arrived; judging the live window would flag mere latency.
        check_time = self.now - 2.0 * self._aggregation.window_s
        if check_time < 0:
            return
        window = self._aggregation.window_at(check_time)
        if (
            window is not None
            and window.complete
            and window.reported_ma
            and window.start > self._last_checked_window_start
        ):
            self._last_checked_window_start = window.start
            if window.start < self._membership_settle_until:
                self._residual_window.clear()
                return
            if len(window.reported_ma) < self._registry.member_count:
                # A member is silent this window (mid-registration, just
                # departed, or suppressing) — the sum check would be
                # vacuous, so count it as its own anomaly class instead.
                self._verifier.stats.missing_report_windows += 1
                self._residual_window.clear()
                self.trace(
                    "agg.missing_reports",
                    reported=len(window.reported_ma),
                    members=self._registry.member_count,
                )
                return
            self._residual_window.append((window.reported_sum_ma, window.feeder_ma))
            if len(self._residual_window) < self._residual_window.maxlen:
                return
            reported_mean = sum(r for r, _ in self._residual_window) / len(self._residual_window)
            feeder_mean = sum(f for _, f in self._residual_window) / len(self._residual_window)
            verdict = self._verifier.check_network(reported_mean, feeder_mean)
            if verdict.anomalous:
                self.trace("agg.network_anomaly", reason=verdict.reason)

    def _flush_block(self) -> None:
        blocks = self._writer.flush(self.now)
        if blocks:
            records = sum(b.header.record_count for b in blocks)
            self.count("blocks_written", len(blocks))
            self.count("records_written", records)
            self.trace("agg.blocks_written", count=len(blocks), records=records)

    def _expire_temporaries(self) -> None:
        expired = self._registry.expire_temporaries(
            self.now, self._config.temp_member_timeout_s
        )
        if expired:
            self._note_membership_change()
        for member in expired:
            self.trace("agg.temp_expired", device=member.device_id.name)
