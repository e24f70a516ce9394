"""Block structures.

A block batches the validated consumption records one aggregator
collected over one ledger interval.  The header commits to:

* the previous block's hash (the chain link),
* the Merkle root of the records (the data commitment),
* the creating aggregator, height and timestamp.

Records are plain dictionaries produced by
:meth:`repro.protocol.messages.ConsumptionReport.to_record`, so blocks
are JSON-serialisable end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

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


@dataclass(frozen=True)
class Block:
    """A header plus its record body and the resulting block hash."""

    header: BlockHeader
    records: tuple[dict[str, Any], ...]
    block_hash: str = field(default="", compare=False)

    @staticmethod
    def create(
        height: int,
        previous_hash: str,
        aggregator: str,
        timestamp: float,
        records: list[dict[str, Any]],
    ) -> "Block":
        """Build a block, computing the Merkle root and chain hash.

        Each record is encoded once; the Merkle leaves and the block
        hash share those bytes.
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
        return Block(header=header, records=tuple(records), block_hash=_block_hash(header, encoded))

    def compute_hash(self) -> str:
        """Recompute the hash from current contents (for audits)."""
        return _block_hash(self.header, [canonical_bytes(r) for r in self.records])

    def validate_structure(self) -> None:
        """Check internal consistency (Merkle root, count, hash).

        Raises :class:`~repro.errors.BlockValidationError` on the first
        inconsistency found.
        """
        if self.header.record_count != len(self.records):
            raise BlockValidationError(
                f"block {self.header.height}: header says {self.header.record_count} "
                f"records, body has {len(self.records)}"
            )
        encoded = [canonical_bytes(r) for r in self.records]
        if self.header.merkle_root != merkle_root(encoded):
            raise BlockValidationError(
                f"block {self.header.height}: merkle root mismatch"
            )
        if self.block_hash != _block_hash(self.header, encoded):
            raise BlockValidationError(
                f"block {self.header.height}: stored hash does not match contents"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form for storage backends."""
        return {
            "header": self.header.to_dict(),
            "records": list(self.records),
            "block_hash": self.block_hash,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Block":
        """Rebuild a block from its stored form (no validation)."""
        header = BlockHeader(**data["header"])
        return Block(
            header=header,
            records=tuple(data["records"]),
            block_hash=data["block_hash"],
        )


def _block_hash(header: BlockHeader, encoded_records: list[bytes]) -> str:
    """Chain hash of ``{"header": header, "records": records}``, given
    the records' canonical bytes."""
    return chain_hash(header.previous_hash, block_payload(header.to_dict(), encoded_records))
