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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.chain.hashing import block_payload, canonical_bytes, chain_hash
from repro.chain.merkle import merkle_root
from repro.errors import BlockValidationError


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
    def from_dict(data: dict[str, Any]) -> "Block":
        """Rebuild a block from its stored form (no validation)."""
        return Block(BlockHeader(**data["header"]), data["records"], data["block_hash"])


def _block_hash(header: BlockHeader, leaves: Iterable[bytes]) -> str:
    """Chain hash of ``{"header": header, "records": records}``, given
    the records' canonical bytes."""
    return chain_hash(header.previous_hash, block_payload(header.to_dict(), leaves))
