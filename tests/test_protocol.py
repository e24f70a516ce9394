"""Tests for protocol messages, codec and the device FSM."""

import json

import pytest

from repro.errors import CodecError, ProtocolError
from repro.ids import AggregatorId, DeviceId, NetworkAddress
from repro.protocol import (
    Ack,
    ConsumptionReport,
    DeviceFsm,
    DevicePhase,
    ForwardedConsumption,
    MembershipVerifyRequest,
    MembershipVerifyResponse,
    Nack,
    NackReason,
    RegistrationRequest,
    RegistrationResponse,
    RemoveDevice,
    TransferMembership,
    decode_message,
    encode_message,
)
from repro.protocol.codec import as_message, encoded_size
from repro.protocol.messages import (
    MgmtCommand,
    MgmtResponse,
    ReceiptRequest,
    ReceiptResponse,
)

DEVICE = DeviceId("device1")
MASTER = NetworkAddress(AggregatorId("agg1"), 1)
TEMP = NetworkAddress(AggregatorId("agg2"), 9)


def report_bytes_with(field, raw):
    """A full ``consumption_report`` on the wire, ``field`` set to the raw
    JSON text ``raw`` and written first (so a test id names it)."""
    body = make_report(seq=1).to_dict()
    del body[field]
    return f'{{"{field}": {raw}, {json.dumps(body)[1:]}'.encode("utf-8")


def make_report(seq=0, master=MASTER, temp=None, buffered=False):
    return ConsumptionReport(
        device_id=DEVICE,
        master=master,
        temporary=temp,
        sequence=seq,
        measured_at=1.5,
        interval_s=0.1,
        current_ma=123.4,
        voltage_v=3.3,
        energy_mwh=0.0113,
        buffered=buffered,
    )


class TestCodecRoundtrip:
    @pytest.mark.parametrize(
        "message",
        [
            RegistrationRequest(DEVICE, None),
            RegistrationRequest(DEVICE, MASTER),
            RegistrationResponse(DEVICE, MASTER, temporary=False),
            RegistrationResponse(DEVICE, TEMP, temporary=True),
            make_report(),
            make_report(seq=5, temp=TEMP, buffered=True),
            make_report(master=None),
            Ack(DEVICE, 7),
            Ack(DEVICE, None),
            Nack(DEVICE, NackReason.NOT_A_MEMBER, 3),
            Nack(DEVICE, NackReason.ANOMALOUS_REPORT),
            MembershipVerifyRequest(DEVICE, AggregatorId("agg1"), AggregatorId("agg2")),
            MembershipVerifyResponse(DEVICE, AggregatorId("agg1"), True),
            ForwardedConsumption(make_report(), AggregatorId("agg2")),
            MgmtCommand(DEVICE, 3, "status"),
            MgmtCommand(DEVICE, 4, "set-interval", 0.5),
            MgmtResponse(DEVICE, 3, True, {"pong": True}),
            MgmtResponse(DEVICE, 4, False, {"error": "nope"}),
            ReceiptRequest(DEVICE, 17),
            ReceiptResponse(DEVICE, 17, found=False),
            ReceiptResponse(
                DEVICE, 17, found=True,
                receipt={"block_height": 1, "block_hash": "a" * 64,
                         "merkle_root": "b" * 64, "record": {"sequence": 17},
                         "proof": [["L", "c" * 64]]},
            ),
            TransferMembership(DEVICE, TEMP),
            RemoveDevice(DEVICE),
        ],
        ids=lambda m: type(m).__name__ + str(getattr(m, "sequence", "")),
    )
    def test_roundtrip(self, message):
        assert decode_message(encode_message(message)) == message

    def test_encoded_size_positive(self):
        assert encoded_size(make_report()) > 50

    def test_malformed_bytes_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b"\xff\xfe")
        with pytest.raises(CodecError):
            decode_message(b"not json")
        with pytest.raises(CodecError):
            decode_message(b'["array"]')
        with pytest.raises(CodecError):
            decode_message(b'{"type": "martian"}')

    def test_missing_fields_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b'{"type": "consumption_report", "device": "d"}')

    def test_report_to_record_fields(self):
        record = make_report(seq=9).to_record()
        assert record["device"] == "device1"
        assert record["sequence"] == 9
        assert record["device_uid"] == DEVICE.uid
        assert "master" not in record  # addresses are transport, not ledger

    def test_report_validation(self):
        with pytest.raises(ProtocolError):
            make_report(seq=-1)
        with pytest.raises(ProtocolError):
            ConsumptionReport(DEVICE, None, None, 0, 0.0, 0.0, 1.0, 3.3, 0.0)


class TestCodecAdversarial:
    """decode_message on hostile bytes: always CodecError, never a leak.

    Serve mode feeds raw HTTP bodies straight into the codec, so any
    exception other than :class:`CodecError` here would surface as a 500
    (or worse, crash a kernel callback) instead of a clean 400.
    """

    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            b"\xff\xfe",  # invalid UTF-8
            b'{"type": "ack", "device": "d\xc3',  # truncated mid-codepoint
            b'{"type": "ack"',  # truncated JSON
            b"42",  # non-object top level
            b'"just a string"',
            b"null",
            b'{"device": "d"}',  # object without a type
            b'{"type": 7}',  # non-string type
            b'{"type": "ack", "device": 123}',  # wrong-typed device name
            b'{"type": "ack", "device": null}',
            b'{"type": "registration_request", "device": "d", "master": 5}',
            b'{"type": "consumption_report", "device": "d", "sequence": "x"}',
            b'{"type": "receipt_request", "device": "d", "sequence": null}',
            b'{"type": "mgmt", "device": "d", "command": "martian"}',
            # Non-finite readings: json.loads admits NaN/Infinity, and
            # 1e999 overflows to inf.
            report_bytes_with("current_ma", "NaN"),
            report_bytes_with("energy_mwh", "Infinity"),
            report_bytes_with("measured_at", "-Infinity"),
            report_bytes_with("voltage_v", "1e999"),
            report_bytes_with("interval_s", '"nan"'),
        ],
        ids=lambda p: repr(p)[:40],
    )
    def test_hostile_bytes_raise_codec_error(self, payload):
        with pytest.raises(CodecError):
            decode_message(payload)

    def test_deeply_nested_json_rejected(self):
        payload = (b"[" * 100_000) + (b"]" * 100_000)
        with pytest.raises(CodecError):
            decode_message(payload)
        nested = (b'{"a":' * 100_000) + b"1" + (b"}" * 100_000)
        with pytest.raises(CodecError):
            decode_message(nested)


class TestAsMessage:
    def test_bytes_and_bytearray_decode(self):
        message = Ack(DEVICE, sequence=4)
        wire = encode_message(message)
        assert as_message(wire) == message
        assert as_message(bytearray(wire)) == message

    def test_str_payload_decodes_as_utf8_json(self):
        message = Ack(DEVICE, sequence=4)
        assert as_message(encode_message(message).decode("utf-8")) == message

    def test_message_dataclass_passes_through(self):
        message = make_report(seq=2)
        assert as_message(message) is message

    def test_malformed_str_raises_codec_error(self):
        with pytest.raises(CodecError):
            as_message("not json")

    def test_non_message_objects_rejected(self):
        for payload in (None, 42, 3.14, ["ack"], {"type": "ack"}, object()):
            with pytest.raises(CodecError):
                as_message(payload)


class TestDeviceFsm:
    def test_initial_state(self):
        fsm = DeviceFsm(DEVICE)
        assert fsm.phase is DevicePhase.IN_TRANSIT
        assert not fsm.has_home
        assert not fsm.can_report

    def test_first_registration_flow(self):
        fsm = DeviceFsm(DEVICE)
        fsm.begin_join()
        decision = fsm.network_joined()
        assert decision.send_registration is not None
        assert decision.send_registration.master is None
        assert fsm.phase is DevicePhase.REGISTERING
        decision = fsm.registration_response(
            RegistrationResponse(DEVICE, MASTER, temporary=False)
        )
        assert decision.resume_reporting and decision.flush_buffer
        assert fsm.master == MASTER
        assert fsm.can_report

    def register_home(self):
        fsm = DeviceFsm(DEVICE)
        fsm.begin_join()
        fsm.network_joined()
        fsm.registration_response(RegistrationResponse(DEVICE, MASTER, temporary=False))
        return fsm

    def test_home_reentry_skips_registration(self):
        fsm = self.register_home()
        fsm.network_left()
        fsm.begin_join()
        decision = fsm.network_joined()
        assert decision.send_registration is None
        assert decision.resume_reporting
        assert fsm.can_report

    def test_roaming_sequence(self):
        fsm = self.register_home()
        fsm.network_left()
        fsm.begin_join()
        fsm.network_joined()
        # Host Nacks the first report.
        decision = fsm.report_nacked(Nack(DEVICE, NackReason.NOT_A_MEMBER, 0))
        assert decision.send_registration is not None
        assert decision.send_registration.master == MASTER
        assert fsm.phase is DevicePhase.REGISTERING
        # Temporary grant.
        decision = fsm.registration_response(
            RegistrationResponse(DEVICE, TEMP, temporary=True)
        )
        assert decision.flush_buffer
        assert fsm.is_roaming
        assert fsm.temporary == TEMP
        assert fsm.master == MASTER  # home retained

    def test_leaving_discards_temporary(self):
        fsm = self.register_home()
        fsm.network_left()
        fsm.begin_join()
        fsm.network_joined()
        fsm.report_nacked(Nack(DEVICE, NackReason.NOT_A_MEMBER))
        fsm.registration_response(RegistrationResponse(DEVICE, TEMP, temporary=True))
        fsm.network_left()
        assert not fsm.is_roaming
        assert fsm.master == MASTER

    def test_anomaly_nack_keeps_reporting(self):
        fsm = self.register_home()
        decision = fsm.report_nacked(Nack(DEVICE, NackReason.ANOMALOUS_REPORT, 1))
        assert decision.send_registration is None
        assert fsm.can_report

    def test_duplicate_grant_is_idempotent(self):
        fsm = self.register_home()
        decision = fsm.registration_response(
            RegistrationResponse(DEVICE, MASTER, temporary=False)
        )
        assert decision.send_registration is None
        assert not decision.resume_reporting

    def test_unexpected_grant_rejected(self):
        fsm = self.register_home()
        other = NetworkAddress(AggregatorId("agg9"), 3)
        with pytest.raises(ProtocolError):
            fsm.registration_response(RegistrationResponse(DEVICE, other, temporary=False))

    def test_wrong_device_response_rejected(self):
        fsm = DeviceFsm(DEVICE)
        fsm.begin_join()
        fsm.network_joined()
        with pytest.raises(ProtocolError):
            fsm.registration_response(
                RegistrationResponse(DeviceId("other"), MASTER, temporary=False)
            )

    def test_temporary_before_home_rejected(self):
        fsm = DeviceFsm(DEVICE)
        fsm.begin_join()
        fsm.network_joined()
        with pytest.raises(ProtocolError):
            fsm.registration_response(RegistrationResponse(DEVICE, TEMP, temporary=True))

    def test_stale_nack_after_removal_ignored(self):
        # A Nack answering a report sent just before the master removed
        # the device must not trigger re-registration.
        fsm = self.register_home()
        fsm.removed()
        decision = fsm.report_nacked(Nack(DEVICE, NackReason.NOT_A_MEMBER))
        assert decision.send_registration is None
        assert fsm.phase is DevicePhase.IN_TRANSIT

    def test_stale_nack_while_registering_ignored(self):
        # Multiple buffered reports can be Nack'd while the first Nack's
        # registration is already in flight; only one request goes out.
        fsm = self.register_home()
        fsm.network_left()
        fsm.begin_join()
        fsm.network_joined()
        first = fsm.report_nacked(Nack(DEVICE, NackReason.NOT_A_MEMBER, 1))
        second = fsm.report_nacked(Nack(DEVICE, NackReason.NOT_A_MEMBER, 2))
        assert first.send_registration is not None
        assert second.send_registration is None

    def test_transfer_updates_master(self):
        fsm = self.register_home()
        new_master = NetworkAddress(AggregatorId("agg2"), 4)
        fsm.membership_transferred(new_master)
        assert fsm.master == new_master
        assert not fsm.is_roaming

    def test_removal_resets(self):
        fsm = self.register_home()
        fsm.removed()
        assert not fsm.has_home
        assert fsm.phase is DevicePhase.IN_TRANSIT

    def test_begin_join_requires_transit(self):
        fsm = self.register_home()
        with pytest.raises(ProtocolError):
            fsm.begin_join()

    def test_network_joined_requires_join_or_transit(self):
        fsm = self.register_home()
        with pytest.raises(ProtocolError):
            fsm.network_joined()
