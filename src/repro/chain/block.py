"""Block structures.

A block batches the validated consumption records one aggregator
collected over one ledger interval.  The header commits to:

* the previous block's hash (the chain link),
* the Merkle root of the records (the data commitment),
* the creating aggregator, height and timestamp.

A record is a JSON object (the ledger's come from
:meth:`repro.protocol.messages.ConsumptionReport.to_record`).  A block
keeps each one as the canonical bytes its Merkle leaf and its hash were
computed from (:attr:`Block.leaves`), ~245 B for a fleet record against
~620 B as a dict.  :attr:`Block.records` decodes them into fresh dicts
on every access, so a reader that needs them twice keeps the tuple;
:meth:`Block.records_at` decodes only the records asked for.

A block's archive line is :meth:`Block.to_bytes`, and only this module
knows that layout: :meth:`Block.from_line` reads a line back with its
leaves sliced from the bytes it holds, so reading a block, like writing
one, encodes no record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.chain.hashing import block_payload, canonical_bytes, chain_hash
from repro.chain.merkle import merkle_root
from repro.errors import BlockValidationError, ChainError

# json's C scanner: decodes the one JSON value starting at an index and
# returns it with the index just past it.
_scan = json.JSONDecoder().scan_once


@dataclass(frozen=True)
class BlockHeader:
    """Immutable header committed by the block hash.

    Attributes:
        height: 0 for genesis, parent height + 1 after.
        previous_hash: Hash of the parent block.
        merkle_root: Commitment to the block's records.
        aggregator: Name of the creating aggregator.
        timestamp: Simulated creation time.
        record_count: Number of records in the body.
    """

    height: int
    previous_hash: str
    merkle_root: str
    aggregator: str
    timestamp: float
    record_count: int

    def __post_init__(self) -> None:
        if self.height < 0:
            raise BlockValidationError(f"height must be >= 0, got {self.height}")
        if len(self.previous_hash) != 64:
            raise BlockValidationError(
                f"previous hash must be 64 hex chars, got {self.previous_hash!r}"
            )
        if self.record_count < 0:
            raise BlockValidationError(
                f"record count must be >= 0, got {self.record_count}"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form used for hashing and storage."""
        return {
            "height": self.height,
            "previous_hash": self.previous_hash,
            "merkle_root": self.merkle_root,
            "aggregator": self.aggregator,
            "timestamp": self.timestamp,
            "record_count": self.record_count,
        }


@dataclass(frozen=True, init=False)
class Block:
    """A header, its records' canonical bytes and the block hash.

    ``Block(header, records, block_hash)`` encodes each record once; a
    record given as its canonical bytes (a JSON value is never
    ``bytes``) is kept as it is.  Nothing is checked here: the tamper
    experiments build inconsistent blocks on purpose, and
    :meth:`validate_structure` finds them.
    """

    header: BlockHeader
    leaves: tuple[bytes, ...]
    block_hash: str = field(default="", compare=False)

    def __init__(
        self, header: BlockHeader, records: Iterable[Any], block_hash: str = ""
    ) -> None:
        leaves = tuple(r if isinstance(r, bytes) else canonical_bytes(r) for r in records)
        object.__setattr__(self, "header", header)
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "block_hash", block_hash)

    @property
    def records(self) -> tuple[dict[str, Any], ...]:
        """The records, decoded into fresh dicts on every access."""
        return tuple(self.records_at(range(len(self.leaves))))

    def records_at(self, indexes: Iterable[int]) -> list[dict[str, Any]]:
        """The records at ``indexes``, decoded into fresh dicts by one
        ``json.loads``, so that they share their key strings."""
        leaves = self.leaves
        return json.loads(b"[" + b",".join([leaves[i] for i in indexes]) + b"]")

    @staticmethod
    def create(
        height: int,
        previous_hash: str,
        aggregator: str,
        timestamp: float,
        records: list[dict[str, Any]],
    ) -> "Block":
        """Build a block, computing the Merkle root and chain hash.

        Each record is encoded once; the Merkle leaves, the block hash
        and the stored block share those bytes.
        """
        encoded = [canonical_bytes(r) for r in records]
        header = BlockHeader(
            height=height,
            previous_hash=previous_hash,
            merkle_root=merkle_root(encoded),
            aggregator=aggregator,
            timestamp=timestamp,
            record_count=len(records),
        )
        return Block(header, encoded, _block_hash(header, encoded))

    def compute_hash(self) -> str:
        """Recompute the hash from the stored bytes (for audits)."""
        return _block_hash(self.header, self.leaves)

    def validate_structure(self) -> None:
        """Check internal consistency (Merkle root, count, hash).

        Raises :class:`~repro.errors.BlockValidationError` on the first
        inconsistency found.
        """
        if self.header.record_count != len(self.leaves):
            raise BlockValidationError(
                f"block {self.header.height}: header says {self.header.record_count} "
                f"records, body has {len(self.leaves)}"
            )
        if self.header.merkle_root != merkle_root(self.leaves):
            raise BlockValidationError(
                f"block {self.header.height}: merkle root mismatch"
            )
        if self.block_hash != self.compute_hash():
            raise BlockValidationError(
                f"block {self.header.height}: stored hash does not match contents"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form, records decoded (:meth:`to_bytes` is
        its canonical encoding)."""
        return {
            "header": self.header.to_dict(),
            "records": list(self.records),
            "block_hash": self.block_hash,
        }

    def to_bytes(self) -> bytes:
        """``canonical_bytes(self.to_dict())``, joined from the stored
        bytes: the hashed payload with the block hash as its first key
        (sorted keys put ``block_hash`` before ``header``)."""
        payload = block_payload(self.header.to_dict(), self.leaves)
        return b'{"block_hash":' + canonical_bytes(self.block_hash) + b"," + payload[1:]

    @staticmethod
    def from_line(line: bytes) -> tuple["Block", list[Any]]:
        """The block whose :meth:`to_bytes` is ``line``, and its records.

        One walk of json's C scanner decodes the line, and each leaf is
        the slice of ``line`` its record was decoded from, so a record
        rewritten in place reads as stored.  The decoded records come
        along for a reader that indexes them.  Nothing else is checked:
        :meth:`validate_structure` finds a forged block.  Raises
        :class:`~repro.errors.ChainError` unless ``line`` is exactly
        the block's :meth:`to_bytes`.
        """
        try:
            text = line.decode("ascii")
            block_hash, at = _scan(text, len('{"block_hash":'))
            header, at = _scan(text, at + len(',"header":'))
            at += len(',"records":[')
            leaves, records = [], []
            while text[at] != "]":
                record, end = _scan(text, at)
                leaves.append(line[at:end])
                records.append(record)
                at = end + (text[end] == ",")
            block = Block(BlockHeader(**header), leaves, block_hash)
            if block.to_bytes() == line:
                return block, records
        except (ValueError, TypeError, IndexError, StopIteration, ChainError) as exc:
            raise ChainError(f"not a block line: {type(exc).__name__}: {exc}") from exc
        raise ChainError("not a block line: not the bytes its block writes")


def _block_hash(header: BlockHeader, leaves: Iterable[bytes]) -> str:
    """Chain hash of ``{"header": header, "records": records}``, given
    the records' canonical bytes."""
    return chain_hash(header.previous_hash, block_payload(header.to_dict(), leaves))
