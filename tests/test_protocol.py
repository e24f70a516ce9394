"""Tests for protocol messages, codec and the device FSM."""

import json
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError, ProtocolError
from repro.ids import AggregatorId, DeviceId, NetworkAddress
from repro.protocol import (
    Ack,
    ConsumptionReport,
    DeviceFsm,
    DevicePhase,
    ForwardedConsumption,
    HeaderBatchRequest,
    HeaderBatchResponse,
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
from repro.protocol.codec import as_message, encoded_size, message_to_dict
from repro.protocol.messages import (
    Message,
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
    body = message_to_dict(make_report(seq=1))
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


AGG1, AGG2 = AggregatorId("agg1"), AggregatorId("agg2")
HEADER = {
    "header": {
        "height": 1, "previous_hash": "0" * 8, "merkle_root": "ab" * 4,
        "aggregator": "agg1", "timestamp": 1.0, "record_count": 2,
    },
    "block_hash": "cd" * 4,
}
CHECKPOINT = {"height": 0, "tip_hash": "ef" * 4, "record_count": 0, "timestamp": 0.0}
MESSAGE_TYPES = set(typing.get_args(Message))

ROUNDTRIP_CASES = [
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
    MembershipVerifyRequest(DEVICE, AGG1, AGG2),
    MembershipVerifyResponse(DEVICE, AGG1, True),
    ForwardedConsumption(make_report(), AGG2),
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
    HeaderBatchRequest(DEVICE, 0, 16),
    HeaderBatchResponse(DEVICE, 1, 1, headers=(HEADER,), checkpoint=CHECKPOINT),
    TransferMembership(DEVICE, TEMP),
    RemoveDevice(DEVICE),
]

# The frozen wire bytes of one instance of every message type.  Only
# uplink publishes have airtime, so the pinned seed-7 digest sees just the
# registration request and report sizes; these literals guard the rest.
PINNED_WIRE = [
    (RegistrationRequest(DEVICE),
     '{"device": "device1", "master": null, "type": "registration_request"}'),
    (RegistrationRequest(DEVICE, MASTER),
     '{"device": "device1", "master": "agg1/1", "type": "registration_request"}'),
    (RegistrationResponse(DEVICE, TEMP, temporary=True),
     '{"address": "agg2/9", "device": "device1", "temporary": true, '
     '"type": "registration_response"}'),
    (make_report(seq=1),
     '{"buffered": false, "current_ma": 123.4, "device": "device1", '
     '"energy_mwh": 0.0113, "interval_s": 0.1, "master": "agg1/1", '
     '"measured_at": 1.5, "sequence": 1, "temporary": null, '
     '"type": "consumption_report", "voltage_v": 3.3}'),
    (make_report(seq=5, temp=TEMP, buffered=True),
     '{"buffered": true, "current_ma": 123.4, "device": "device1", '
     '"energy_mwh": 0.0113, "interval_s": 0.1, "master": "agg1/1", '
     '"measured_at": 1.5, "sequence": 5, "temporary": "agg2/9", '
     '"type": "consumption_report", "voltage_v": 3.3}'),
    (make_report(seq=0, master=None),
     '{"buffered": false, "current_ma": 123.4, "device": "device1", '
     '"energy_mwh": 0.0113, "interval_s": 0.1, "master": null, '
     '"measured_at": 1.5, "sequence": 0, "temporary": null, '
     '"type": "consumption_report", "voltage_v": 3.3}'),
    (Ack(DEVICE, 7), '{"device": "device1", "sequence": 7, "type": "ack"}'),
    (Ack(DEVICE), '{"device": "device1", "sequence": null, "type": "ack"}'),
    (Nack(DEVICE, NackReason.NOT_A_MEMBER, 3),
     '{"device": "device1", "reason": "not_a_member", "sequence": 3, "type": "nack"}'),
    (Nack(DEVICE, NackReason.ANOMALOUS_REPORT),
     '{"device": "device1", "reason": "anomalous_report", "sequence": null, '
     '"type": "nack"}'),
    (MembershipVerifyRequest(DEVICE, AGG1, AGG2),
     '{"claimed_master": "agg1", "device": "device1", "host": "agg2", '
     '"type": "membership_verify_request"}'),
    (MembershipVerifyResponse(DEVICE, AGG1, False),
     '{"device": "device1", "master": "agg1", '
     '"type": "membership_verify_response", "valid": false}'),
    (ForwardedConsumption(make_report(seq=2, temp=TEMP), AGG2),
     '{"host": "agg2", "report": {"buffered": false, "current_ma": 123.4, '
     '"device": "device1", "energy_mwh": 0.0113, "interval_s": 0.1, '
     '"master": "agg1/1", "measured_at": 1.5, "sequence": 2, '
     '"temporary": "agg2/9", "type": "consumption_report", "voltage_v": 3.3}, '
     '"type": "forwarded_consumption"}'),
    (MgmtCommand(DEVICE, 3, "status"),
     '{"argument": null, "command": "status", "device": "device1", '
     '"request_id": 3, "type": "mgmt_command"}'),
    (MgmtCommand(DEVICE, 4, "set-interval", 0.5),
     '{"argument": 0.5, "command": "set-interval", "device": "device1", '
     '"request_id": 4, "type": "mgmt_command"}'),
    (MgmtResponse(DEVICE, 3, True, {"pong": True}),
     '{"device": "device1", "ok": true, "payload": {"pong": true}, '
     '"request_id": 3, "type": "mgmt_response"}'),
    (ReceiptRequest(DEVICE, 17),
     '{"device": "device1", "sequence": 17, "type": "receipt_request"}'),
    (ReceiptResponse(DEVICE, 17, found=False),
     '{"device": "device1", "found": false, "receipt": null, "sequence": 17, '
     '"type": "receipt_response"}'),
    (ReceiptResponse(
        DEVICE, 17, found=True,
        receipt={"block_height": 1, "block_hash": "a" * 8, "merkle_root": "b" * 8,
                 "record": {"sequence": 17}, "proof": [["L", "c" * 8]]},
    ),
     '{"device": "device1", "found": true, "receipt": {"block_hash": "aaaaaaaa", '
     '"block_height": 1, "merkle_root": "bbbbbbbb", "proof": [["L", "cccccccc"]], '
     '"record": {"sequence": 17}}, "sequence": 17, "type": "receipt_response"}'),
    (HeaderBatchRequest(DEVICE, 0, 16),
     '{"device": "device1", "from_height": 0, "max_count": 16, '
     '"type": "header_batch_request"}'),
    (HeaderBatchResponse(DEVICE, 1, 1, headers=(HEADER,), checkpoint=CHECKPOINT),
     '{"checkpoint": {"height": 0, "record_count": 0, "timestamp": 0.0, '
     '"tip_hash": "efefefef"}, "device": "device1", "from_height": 1, '
     '"headers": [{"block_hash": "cdcdcdcd", "header": {"aggregator": "agg1", '
     '"height": 1, "merkle_root": "abababab", "previous_hash": "00000000", '
     '"record_count": 2, "timestamp": 1.0}}], "tip_height": 1, '
     '"type": "header_batch_response"}'),
    (HeaderBatchResponse(DEVICE, 2, 1, headers=()),
     '{"checkpoint": null, "device": "device1", "from_height": 2, "headers": [], '
     '"tip_height": 1, "type": "header_batch_response"}'),
    (TransferMembership(DEVICE, TEMP),
     '{"device": "device1", "new_master": "agg2/9", "type": "transfer_membership"}'),
    (RemoveDevice(DEVICE), '{"device": "device1", "type": "remove_device"}'),
]


class TestCodecRoundtrip:
    @pytest.mark.parametrize(
        "message",
        ROUNDTRIP_CASES,
        ids=lambda m: type(m).__name__ + str(getattr(m, "sequence", "")),
    )
    def test_roundtrip(self, message):
        assert decode_message(encode_message(message)) == message

    def test_roundtrip_cases_cover_every_message_type(self):
        assert {type(message) for message in ROUNDTRIP_CASES} == MESSAGE_TYPES

    @pytest.mark.parametrize(
        ("message", "wire"), PINNED_WIRE, ids=[type(m).__name__ for m, _ in PINNED_WIRE]
    )
    def test_wire_bytes_are_pinned(self, message, wire):
        assert encode_message(message) == wire.encode("utf-8")
        assert decode_message(wire.encode("utf-8")) == message

    def test_pinned_wire_covers_every_message_type(self):
        assert {type(message) for message, _ in PINNED_WIRE} == MESSAGE_TYPES

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
            # Wrong JSON types are refused, not coerced: "false" is not a
            # boolean, 2.9 and true are not integers, "" is not an address.
            report_bytes_with("buffered", '"false"'),
            report_bytes_with("sequence", "2.9"),
            report_bytes_with("sequence", "true"),
            report_bytes_with("sequence", '"5"'),
            report_bytes_with("current_ma", "true"),
            report_bytes_with("master", '""'),
            # json.loads raises a plain ValueError past the int digit limit.
            report_bytes_with("sequence", "1" * 5000),
            # Forwards nested inside forwards, deeper than the stack.
            b'{"type": "forwarded_consumption", "host": "agg1", "report": ' * 600
            + b"{}" + b"}" * 600,
            b'{"type": "ack", "device": "d", "sequence": "7"}',
            b'{"type": "registration_response", "device": "d", '
            b'"address": "agg1/1", "temporary": "no"}',
            b'{"type": "mgmt_command", "device": "d", "request_id": 1, '
            b'"command": "set-interval", "argument": NaN}',
            b'{"type": "receipt_response", "device": "d", "sequence": 1, '
            b'"found": true, "receipt": 5}',
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


# Any JSON value: null, bool, int, float (NaN and infinities included),
# short strings, and small nested lists and objects.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


class TestCodecFuzz:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(ROUNDTRIP_CASES), st.data())
    def test_any_field_of_any_message_decodes_or_raises_codec_error(self, message, data):
        """Delete one key of a valid wire object, or set it to any JSON value."""
        wire = message_to_dict(message)
        key = data.draw(st.sampled_from(sorted(wire)))
        if data.draw(st.booleans()):
            del wire[key]
        else:
            wire[key] = data.draw(JSON_VALUES)
        try:
            decoded = decode_message(json.dumps(wire).encode("utf-8"))
        except CodecError:
            return
        assert isinstance(decoded, Message)


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
