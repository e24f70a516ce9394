"""Protocol message types (Fig. 3).

Every message is a frozen dataclass; its fields and type hints are its
wire form, which :mod:`repro.protocol.codec` derives (one JSON key per
field) and checks on decode.  Field names mirror the figure's
annotations: a registration request carries ``ID + Request registration
(NULL | Master)``, a report carries ``ID + Addr(Master) + energy``, and
so on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.errors import ProtocolError
from repro.ids import AggregatorId, DeviceId, NetworkAddress


class NackReason(enum.Enum):
    """Why an aggregator refused a report or registration."""

    NOT_A_MEMBER = "not_a_member"
    UNKNOWN_MASTER = "unknown_master"
    VERIFICATION_FAILED = "verification_failed"
    ANOMALOUS_REPORT = "anomalous_report"
    NETWORK_FULL = "network_full"


@dataclass(frozen=True)
class RegistrationRequest:
    """``ID + Request registration (NULL | Master)``.

    ``master`` is None for a first-time (home) registration and carries
    the home aggregator's address when requesting *temporary* membership
    in a foreign network (sequence 2).
    """

    device_id: DeviceId
    master: NetworkAddress | None = None

    @property
    def is_temporary(self) -> bool:
        """True when this requests temporary (roaming) membership."""
        return self.master is not None


@dataclass(frozen=True)
class RegistrationResponse:
    """``Master Addr`` / ``Temp Addr`` — the granted network address."""

    device_id: DeviceId
    address: NetworkAddress
    temporary: bool = False


@dataclass(frozen=True)
class ConsumptionReport:
    """``ID + Addr (Master [+ Temp]) + energy`` — one measurement.

    Attributes:
        device_id: Reporting device.
        master: Home-network address (None only before first
            registration).
        temporary: Host-network address while roaming, else None.
        sequence: Per-device monotone sequence number; lets the
            aggregator spot replays and the device match Acks.
        measured_at: Device-RTC timestamp of the measurement window end.
        interval_s: Measurement window length.
        current_ma: Sensor current reading over the window.
        voltage_v: Device supply voltage used for energy computation.
        energy_mwh: Energy of the window (current x voltage x interval).
        buffered: True when this record was served from local storage
            after a connectivity gap (Fig. 6's backfill).
    """

    device_id: DeviceId
    master: NetworkAddress | None
    temporary: NetworkAddress | None
    sequence: int
    measured_at: float
    interval_s: float
    current_ma: float
    voltage_v: float
    energy_mwh: float
    buffered: bool = False

    def __post_init__(self) -> None:
        if self.sequence < 0:
            raise ProtocolError(f"sequence must be >= 0, got {self.sequence}")
        if self.interval_s <= 0:
            raise ProtocolError(f"interval must be positive, got {self.interval_s}")

    def to_record(self) -> dict[str, Any]:
        """Ledger-record form stored inside blocks."""
        return {
            "device": self.device_id.name,
            "device_uid": self.device_id.uid,
            "sequence": self.sequence,
            "measured_at": self.measured_at,
            "interval_s": self.interval_s,
            "current_ma": self.current_ma,
            "voltage_v": self.voltage_v,
            "energy_mwh": self.energy_mwh,
            "buffered": self.buffered,
        }


@dataclass(frozen=True)
class Ack:
    """Positive acknowledgment of a report or registration step."""

    device_id: DeviceId
    sequence: int | None = None


@dataclass(frozen=True)
class Nack:
    """Negative acknowledgment, e.g. report from a non-member (seq. 2)."""

    device_id: DeviceId
    reason: NackReason
    sequence: int | None = None


@dataclass(frozen=True)
class MembershipVerifyRequest:
    """Backhaul: host asks the claimed master to vouch for a device."""

    device_id: DeviceId
    claimed_master: AggregatorId
    host: AggregatorId


@dataclass(frozen=True)
class MembershipVerifyResponse:
    """Backhaul: the master's verdict on a roaming device."""

    device_id: DeviceId
    master: AggregatorId
    valid: bool


@dataclass(frozen=True)
class ForwardedConsumption:
    """Backhaul: host forwards a roaming device's data home (cost center)."""

    report: ConsumptionReport
    host: AggregatorId


@dataclass(frozen=True)
class MgmtCommand:
    """Remote-management command from the aggregator to a device.

    ``command`` is a small verb vocabulary handled by the device's
    :class:`~repro.device.app.remote_mgmt.RemoteManagement`:
    ``"status"``, ``"ping"``, ``"set-interval"`` (with ``argument`` as
    the new seconds value).
    """

    device_id: DeviceId
    request_id: int
    command: str
    argument: float | None = None


@dataclass(frozen=True)
class MgmtResponse:
    """The device's reply to a management command."""

    device_id: DeviceId
    request_id: int
    ok: bool
    payload: dict[str, Any]


@dataclass(frozen=True)
class ReceiptRequest:
    """Device asks its aggregator to prove a record is in the ledger.

    Billing-dispute support: the answer carries a Merkle inclusion
    receipt the owner can verify without trusting the aggregator.
    """

    device_id: DeviceId
    sequence: int


@dataclass(frozen=True)
class ReceiptResponse:
    """The aggregator's answer: an inclusion receipt, or not-found.

    ``receipt`` is the JSON form of
    :class:`repro.chain.receipts.InclusionReceipt` (block coordinates,
    record, proof path) when ``found`` is True.
    """

    device_id: DeviceId
    sequence: int
    found: bool
    receipt: dict[str, Any] | None = None


@dataclass(frozen=True)
class HeaderBatchRequest:
    """Lightweight-client sync: ask for a batch of block headers.

    The device tracks the common ledger without storing it — it fetches
    headers from ``from_height`` upward, at most ``max_count`` per
    round-trip (the Danzi batch-size knob).
    """

    device_id: DeviceId
    from_height: int
    max_count: int

    def __post_init__(self) -> None:
        if self.from_height < 0:
            raise ProtocolError(f"from_height must be >= 0, got {self.from_height}")
        if self.max_count < 1:
            raise ProtocolError(f"max_count must be >= 1, got {self.max_count}")


@dataclass(frozen=True)
class HeaderBatchResponse:
    """The aggregator's header batch, plus where the chain tip stands.

    ``headers`` holds JSON forms of
    :class:`repro.chain.sync.HeaderRecord` starting at ``from_height``.
    ``checkpoint`` (a :class:`repro.chain.sync.Checkpoint` JSON form) is
    offered to fresh clients facing a long chain so they can anchor past
    the ancient prefix instead of syncing from genesis.
    """

    device_id: DeviceId
    from_height: int
    tip_height: int
    headers: tuple[dict[str, Any], ...]
    checkpoint: dict[str, Any] | None = None


@dataclass(frozen=True)
class TransferMembership:
    """Sequence 3: move a device's home to a new master."""

    device_id: DeviceId
    new_master: NetworkAddress


@dataclass(frozen=True)
class RemoveDevice:
    """Sequence 3: old master deletes a transferred/lost device."""

    device_id: DeviceId


Message = (
    RegistrationRequest
    | RegistrationResponse
    | ConsumptionReport
    | Ack
    | Nack
    | MembershipVerifyRequest
    | MembershipVerifyResponse
    | ForwardedConsumption
    | MgmtCommand
    | MgmtResponse
    | ReceiptRequest
    | ReceiptResponse
    | HeaderBatchRequest
    | HeaderBatchResponse
    | TransferMembership
    | RemoveDevice
)

