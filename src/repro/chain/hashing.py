"""Canonical serialisation and hashing.

Hash stability is the whole point of the ledger, so serialisation must be
canonical: dictionaries are emitted with sorted keys, floats with ``repr``
round-trip fidelity, and no whitespace variation.  Any Python structure
of dicts/lists/str/int/float/bool/None can be hashed.

A JSON value is never ``bytes``, so :func:`chain_hash` and the Merkle
leaves also accept a value's canonical bytes in its place: a block
encodes each record once and hands the same bytes to both
(:func:`block_payload`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.errors import ChainError

# One encoder instance for every canonicalisation: json.dumps would
# rebuild it per call when given non-default options, and block hashing
# runs on the report hot path.
_CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True,
    separators=(",", ":"),
    allow_nan=False,
    ensure_ascii=True,
)


def canonical_bytes(value: Any) -> bytes:
    """Deterministic byte serialisation of a JSON-compatible value."""
    try:
        text = _CANONICAL_ENCODER.encode(value)
    except (TypeError, ValueError) as exc:
        raise ChainError(f"value is not canonically serialisable: {exc}") from exc
    return text.encode("utf-8")


def sha256_hex(data: bytes) -> str:
    """Hex-encoded SHA-256 of raw bytes."""
    return hashlib.sha256(data).hexdigest()


def hash_value(value: Any) -> str:
    """Hex-encoded SHA-256 of a JSON-compatible value."""
    return sha256_hex(canonical_bytes(value))


def chain_hash(previous_hash: str, payload: Any) -> str:
    """Hash linking a payload to its predecessor block.

    Mirrors the paper: "the hash of a new block is created from the
    reported data and the hash of the previous block".  ``payload`` is a
    JSON-compatible value or its canonical bytes.
    """
    if len(previous_hash) != 64:
        raise ChainError(f"previous hash must be 64 hex chars, got {previous_hash!r}")
    if not isinstance(payload, bytes):
        payload = canonical_bytes(payload)
    return sha256_hex(previous_hash.encode("ascii") + payload)


def block_payload(header: dict[str, Any], encoded_records: list[bytes]) -> bytes:
    """Canonical bytes of ``{"header": header, "records": records}``.

    ``encoded_records`` are the records' canonical bytes, joined rather
    than encoded again.  The result is byte-identical to encoding the
    dict whole: sorted keys put ``header`` before ``records``, the
    separators are fixed, and ASCII output makes the UTF-8 bytes of the
    parts concatenate to those of the whole.
    """
    return b"".join((
        b'{"header":', canonical_bytes(header),
        b',"records":[', b",".join(encoded_records), b"]}",
    ))


GENESIS_HASH = "0" * 64
