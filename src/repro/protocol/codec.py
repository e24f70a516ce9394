"""Wire codec for protocol messages.

Messages travel over MQTT as UTF-8 JSON.  This module is the one place
that knows the wire format, and it derives it from each message
dataclass's fields and type hints, resolved once per class:

* one key per field (``device_id`` travels as ``"device"``) plus a
  ``"type"`` tag, the snake-case class name;
* ids are written by name, addresses as ``"aggregator/host"``, a
  :class:`~repro.protocol.messages.NackReason` as its value, a nested
  message as its own wire object and tuples as lists; ``None`` and
  every other value are written as is.

Decoding checks each value against its field's type hint rather than
coercing it.  JSON types must match exactly (``true`` is not an
integer, ``"false"`` is not a boolean), a ``float`` field takes any
finite number, ``X | None`` takes ``null``, only a field with a default
may be absent, and unknown keys are ignored.  Serve mode feeds this
module bytes from untrusted peers, so every failure raises
:class:`~repro.errors.CodecError` naming the message type and key.
The codec also reports the encoded size, which the channel model uses
for airtime.

In-process backends (the direct transport, the backhaul mesh) skip the
wire entirely and hand the frozen dataclasses through verbatim —
:func:`as_message` lets receive handlers accept either form.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import re
import types
import typing
from typing import Any, Callable

from repro.errors import AddressError, CodecError, ProtocolError
from repro.ids import AggregatorId, DeviceId, NetworkAddress, interned_device_id, parse_address
from repro.protocol.messages import Message, NackReason

# An encoder maps a non-None field value to its JSON form; a decoder
# checks one JSON value against a field's hint and raises CodecError.
Encoder = Callable[[Any], Any]
Decoder = Callable[[Any], Any]

# json.dumps builds a fresh JSONEncoder on every call that passes
# non-default options; the wire format is fixed, so build it once.
_WIRE_ENCODER = json.JSONEncoder(sort_keys=True)


def _tag(cls: type) -> str:
    """The wire ``"type"`` of a message class: its snake-case name."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower()


_BY_TAG: dict[str, type] = {_tag(cls): cls for cls in typing.get_args(Message)}

# Wire keys that differ from their field names.
_KEYS = {"device_id": "device"}

# Values that travel as strings: how each is written and parsed back.
_LEAVES: dict[type, tuple[Encoder, Callable[[str], Any]]] = {
    DeviceId: (operator.attrgetter("name"), interned_device_id),
    AggregatorId: (operator.attrgetter("name"), AggregatorId),
    NetworkAddress: (str, parse_address),
    NackReason: (operator.attrgetter("value"), NackReason),
}


def message_to_dict(message: Message) -> dict[str, Any]:
    """The wire object of ``message``; :func:`message_from_dict` inverts it."""
    tag, fields = _wire_fields(type(message))
    data: dict[str, Any] = {"type": tag}
    for name, key, encode, _, _ in fields:
        value = getattr(message, name)
        data[key] = value if encode is None or value is None else encode(value)
    return data


def message_from_dict(data: Any) -> Message:
    """Rebuild a message from its wire object, checking every field.

    Raises:
        CodecError: ``data`` is not an object, names no known message
            type, or has a missing, wrong-typed or invalid field.
    """
    if not isinstance(data, dict):
        raise CodecError(f"message must be an object, got {type(data).__name__}")
    tag = data.get("type")
    cls = _BY_TAG.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise CodecError(f"unknown message type {tag!r}")
    kwargs = {}
    for name, key, _, decode, required in _wire_fields(cls)[1]:
        if key in data:
            try:
                kwargs[name] = decode(data[key])
            except CodecError as exc:
                raise CodecError(f"{tag}.{key}: {exc}") from None
        elif required:
            raise CodecError(f"{tag}: missing key {key!r}")
    try:
        return cls(**kwargs)
    except ProtocolError as exc:
        raise CodecError(f"{tag}: {exc}") from None


@functools.cache
def _wire_fields(
    cls: type,
) -> tuple[str, tuple[tuple[str, str, Encoder | None, Decoder, bool], ...]]:
    """The tag of message class ``cls`` and, per field: its name, wire
    key, encoder (None writes the value as is), decoder, and whether the
    key is required (the field has no default)."""
    tag = _tag(cls)
    if _BY_TAG.get(tag) is not cls:
        raise CodecError(f"{cls.__name__} is not a protocol message")
    hints = typing.get_type_hints(cls)
    return tag, tuple(
        (
            field.name,
            _KEYS.get(field.name, field.name),
            *_field_codec(hints[field.name]),
            field.default is field.default_factory is dataclasses.MISSING,
        )
        for field in dataclasses.fields(cls)
    )


def _field_codec(hint: Any) -> tuple[Encoder | None, Decoder]:
    """The encoder and decoder for a field annotated ``hint``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        # ``X | None`` is the only union the messages use; the encode
        # loop writes None itself.
        (inner,) = [arg for arg in args if arg is not type(None)]
        encode, decode_inner = _field_codec(inner)
        return encode, lambda value: None if value is None else decode_inner(value)
    if origin is tuple:
        # ``tuple[X, ...]`` travels as a list of any length.
        _, decode_item = _field_codec(args[0])
        check_list = _exact(list)
        return list, lambda value: tuple([decode_item(v) for v in check_list(value)])
    if origin is dict:
        return None, _exact(dict)
    if hint is float:
        return None, _finite
    if hint in _LEAVES:
        encode, parse = _LEAVES[hint]
        check_str = _exact(str)

        def decode_leaf(value: Any) -> Any:
            try:
                return parse(check_str(value))
            except (AddressError, ValueError) as exc:
                raise CodecError(str(exc)) from None

        return encode, decode_leaf
    if hint in _BY_TAG.values():
        return message_to_dict, functools.partial(_nested, hint)
    return None, _exact(hint)


def _exact(kind: type) -> Decoder:
    """A decoder accepting only values whose type is exactly ``kind``."""

    def check(value: Any) -> Any:
        if type(value) is kind:
            return value
        raise CodecError(f"expected {kind.__name__}, got {type(value).__name__}")

    return check


def _finite(value: Any) -> float:
    """A JSON number as a finite float.

    Wire JSON admits ``NaN``/``Infinity`` (and ``1e999`` overflows to
    infinity); a non-finite reading would pass the range screens and then
    fail canonical ledger encoding at the next block flush.
    """
    kind = type(value)
    if kind is float:
        if math.isfinite(value):
            return value
        raise CodecError(f"expected a finite number, got {value!r}")
    if kind is int:
        try:
            return float(value)
        except OverflowError:
            raise CodecError("number out of float range") from None
    raise CodecError(f"expected a number, got {kind.__name__}")


def _nested(cls: type, value: Any) -> Message:
    """A nested wire object that must be a ``cls`` message.

    The tag is checked before decoding, so hostile input cannot nest
    messages inside each other until the decoder runs out of stack.
    """
    tag = _tag(cls)
    if type(value) is not dict or value.get("type") != tag:
        raise CodecError(f"expected a {tag} object")
    return message_from_dict(value)


def encode_message(message: Message) -> bytes:
    """Serialise a message dataclass to wire bytes."""
    try:
        return _WIRE_ENCODER.encode(message_to_dict(message)).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise CodecError(f"cannot encode {type(message).__name__}: {exc}") from exc


def decode_message(payload: bytes) -> Message:
    """Parse wire bytes back into a message dataclass.

    Every malformed input — truncated UTF-8, non-JSON bytes, deeply
    nested JSON, a non-object top level, wrong-typed or missing fields —
    raises :class:`~repro.errors.CodecError`: serve mode feeds this
    function bytes from untrusted network peers.
    """
    try:
        data = json.loads(payload.decode("utf-8"))
    except ValueError as exc:
        # Bad UTF-8 and bad JSON are ValueErrors, and so is an integer
        # literal past the interpreter's digit limit.
        raise CodecError(f"malformed message payload: {exc}") from exc
    except RecursionError:
        raise CodecError("message payload is nested too deeply") from None
    return message_from_dict(data)


def as_message(payload: Any) -> Message:
    """The message carried by ``payload``, whatever its wire form.

    Radio backends deliver encoded bytes and HTTP bodies arrive as
    UTF-8 JSON text (both decoded here); in-process backends deliver
    the frozen message dataclass itself, which passes through after a
    type check.  Anything else — a raw dict, ``None``, a stray object —
    raises :class:`~repro.errors.CodecError` instead of leaking an
    unvalidated payload into a receive handler.
    """
    if isinstance(payload, (bytes, bytearray)):
        return decode_message(bytes(payload))
    if isinstance(payload, str):
        return decode_message(payload.encode("utf-8"))
    if isinstance(payload, Message):
        return payload
    raise CodecError(
        f"payload is not a wire form or message dataclass: {type(payload).__name__}"
    )


def encoded_size(message: Message) -> int:
    """Wire size in bytes (drives airtime in the channel model)."""
    return len(encode_message(message))
