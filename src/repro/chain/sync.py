"""Lightweight-client ledger sync.

The Danzi et al. analyses (arXiv:1807.07422, arXiv:1711.00540) study
IoT devices that follow a blockchain without storing it: they hold only
*block headers*, synced from a gateway in configurable batches, and
verify Merkle inclusion proofs for the records they care about.  Batch
size is the central tradeoff knob — large batches amortise protocol
overhead (less traffic) but leave the device's view stale for longer
(more delay).

This module is transport-free.  The device stack wires
:class:`LedgerSyncClient` to the protocol messages
(``HeaderBatchRequest`` / ``HeaderBatchResponse``); everything here
works on plain header records and is directly testable.

A block's hash covers the record bodies, so a client that never sees the
records cannot recompute it.  Headers therefore travel *with* their
block hash (:class:`HeaderRecord`), and linkage is checked through
``header.previous_hash == previous.block_hash`` — forging a header for
height ``h`` requires breaking the hash link at ``h`` or everywhere
after it.

A :class:`Checkpoint` commits to a chain prefix so that (a) a fresh
client facing a long chain can anchor at the newest checkpoint instead
of syncing from genesis, and (b) the ledger can prune block bodies below
a checkpoint while receipts against the pruned region still verify
against the retained headers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.chain.block import BlockHeader
from repro.chain.hashing import GENESIS_HASH
from repro.chain.merkle import MerkleTree
from repro.errors import ChainError, ConfigError

if TYPE_CHECKING:
    from repro.chain.ledger import Blockchain
    from repro.chain.receipts import InclusionReceipt

# Upper bound on headers served per batch regardless of what a client
# asks for — bounds response size on constrained downlinks.
MAX_HEADER_BATCH = 256

_HEX_DIGEST = re.compile(r"[0-9a-f]{64}")


def hex_digest(value: Any, what: str) -> str:
    """``value``, if it is 64 lowercase hex characters; else ValueError."""
    if not isinstance(value, str) or not _HEX_DIGEST.fullmatch(value):
        raise ValueError(f"{what} must be 64 lowercase hex characters, got {value!r}")
    return value


def _count(value: Any, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an int, got {value!r}")
    return value


def _finite(value: Any, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class HeaderRecord:
    """One block as a lightweight client holds it: header plus hash."""

    header: BlockHeader
    block_hash: str

    def to_dict(self) -> dict[str, Any]:
        """JSON form for transport inside protocol messages."""
        return {"header": self.header.to_dict(), "block_hash": self.block_hash}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "HeaderRecord":
        """Rebuild a header record from its transported form.

        The batch comes from an aggregator, so each field's type is
        checked: hashes must be 64 lowercase hex characters, the height
        and record count ``int`` (not ``bool``), the timestamp a finite
        number and the aggregator a ``str``.  Anything else raises
        :class:`~repro.errors.ChainError`.
        """
        try:
            header = data["header"]
            aggregator = header["aggregator"]
            if not isinstance(aggregator, str):
                raise ValueError(f"aggregator must be a str, got {aggregator!r}")
            return HeaderRecord(
                header=BlockHeader(
                    height=_count(header["height"], "height"),
                    previous_hash=hex_digest(header["previous_hash"], "previous_hash"),
                    merkle_root=hex_digest(header["merkle_root"], "merkle_root"),
                    aggregator=aggregator,
                    timestamp=_finite(header["timestamp"], "timestamp"),
                    record_count=_count(header["record_count"], "record_count"),
                ),
                block_hash=hex_digest(data["block_hash"], "block_hash"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ChainError(f"malformed header record: {exc}") from exc


@dataclass(frozen=True)
class Checkpoint:
    """A commitment to the chain prefix ``[0, height)``.

    Attributes:
        height: Number of blocks committed below (exclusive bound).
        tip_hash: Block hash of block ``height - 1`` — the link a header
            chain extends from when anchored here.
        record_count: Cumulative records committed below ``height``.
        timestamp: Creation time of block ``height - 1``.
    """

    height: int
    tip_hash: str
    record_count: int
    timestamp: float

    def __post_init__(self) -> None:
        if self.height < 1:
            raise ChainError(f"checkpoint height must be >= 1, got {self.height}")
        if self.record_count < 0:
            raise ChainError(
                f"checkpoint record count must be >= 0, got {self.record_count}"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON form for transport inside protocol messages."""
        return {
            "height": self.height,
            "tip_hash": self.tip_hash,
            "record_count": self.record_count,
            "timestamp": self.timestamp,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Checkpoint":
        """Rebuild a checkpoint from its transported form, its types
        checked as :meth:`HeaderRecord.from_dict` checks a header's."""
        try:
            return Checkpoint(
                height=_count(data["height"], "height"),
                tip_hash=hex_digest(data["tip_hash"], "tip_hash"),
                record_count=_count(data["record_count"], "record_count"),
                timestamp=_finite(data["timestamp"], "timestamp"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ChainError(f"malformed checkpoint payload: {exc}") from exc


class HeaderChain:
    """The header-only view of the ledger a lightweight client holds.

    The chain either starts at genesis or is *anchored* at a committed
    checkpoint; from there it only grows through :meth:`extend`, which
    enforces contiguous heights and unbroken hash links.
    """

    def __init__(self) -> None:
        self._records: list[HeaderRecord] = []
        self._base = 0
        self._anchor: Checkpoint | None = None

    @property
    def height(self) -> int:
        """Next height needed (headers held end just below this)."""
        return self._base + len(self._records)

    @property
    def base(self) -> int:
        """First height actually held (anchor height when anchored)."""
        return self._base

    @property
    def anchor(self) -> Checkpoint | None:
        """The checkpoint this chain was anchored at, if any."""
        return self._anchor

    @property
    def header_count(self) -> int:
        """Number of headers held in memory."""
        return len(self._records)

    @property
    def tip_hash(self) -> str:
        """Hash the next header must link to."""
        if self._records:
            return self._records[-1].block_hash
        if self._anchor is not None:
            return self._anchor.tip_hash
        return GENESIS_HASH

    def covers(self, height: int) -> bool:
        """Whether a header for ``height`` is held."""
        return self._base <= height < self.height

    def header_at(self, height: int) -> HeaderRecord:
        """The held header record for ``height``."""
        if not self.covers(height):
            raise ChainError(
                f"header chain does not cover height {height} "
                f"(holds [{self._base}, {self.height}))"
            )
        return self._records[height - self._base]

    def anchor_at(self, checkpoint: Checkpoint) -> None:
        """Adopt a committed checkpoint instead of syncing from genesis."""
        if self._records or self._anchor is not None:
            raise ChainError("can only anchor an empty header chain")
        self._anchor = checkpoint
        self._base = checkpoint.height

    def extend(self, batch: Iterable[HeaderRecord]) -> int:
        """Append verified headers; returns how many were applied.

        Headers already held are skipped (duplicate delivery is
        harmless); a gap or a broken ``previous_hash`` link raises
        :class:`~repro.errors.ChainError` and leaves the chain at the
        last good header.
        """
        applied = 0
        for record in batch:
            header = record.header
            if header.height < self.height:
                continue
            if header.height > self.height:
                raise ChainError(
                    f"header gap: expected height {self.height}, got {header.height}"
                )
            if header.previous_hash != self.tip_hash:
                raise ChainError(
                    f"header {header.height} does not link to the held tip"
                )
            self._records.append(record)
            applied += 1
        return applied

    def verify_receipt(self, receipt: "InclusionReceipt") -> bool:
        """Fully verify an inclusion receipt offline.

        Checks the receipt's block coordinates against the held header
        (:meth:`InclusionReceipt.matches`) and then the Merkle proof with
        the header's ``record_count`` bound — no aggregator involved.
        """
        if not self.covers(receipt.block_height):
            return False
        held = self.header_at(receipt.block_height)
        return receipt.matches(held) and MerkleTree.verify_proof(
            receipt.record,
            list(receipt.proof),
            held.header.merkle_root,
            leaf_count=held.header.record_count,
        )


def header_batch(
    chain: "Blockchain", from_height: int, max_count: int
) -> tuple[int, list[HeaderRecord], Checkpoint | None]:
    """A ledger's answer to a header request: ``(start, headers, checkpoint)``.

    At most :data:`MAX_HEADER_BATCH` headers, from ``start`` upward.  A
    fresh client asking from genesis against a chain whose newest
    checkpoint lies beyond one batch fast-forwards instead of replaying
    the whole chain header by header: ``start`` is the checkpoint's
    height, and the checkpoint comes along to anchor at (Danzi et al.:
    bootstrap cost must not grow with ledger age).
    """
    count = min(max_count, MAX_HEADER_BATCH)
    latest = chain.latest_checkpoint
    if from_height == 0 and latest is not None and latest.height > count:
        return latest.height, chain.headers(latest.height, count), latest
    return from_height, chain.headers(from_height, count), None


@dataclass(frozen=True)
class SyncPolicy:
    """How a device paces its header sync.

    Attributes:
        batch_size: Headers requested per batch (the Danzi knob).
        interval_s: Poll period; ``None`` derives one batch's worth of
            block production, so bigger batches naturally poll less.
    """

    batch_size: int = 16
    interval_s: float | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.interval_s is not None and self.interval_s <= 0:
            raise ConfigError(f"sync interval must be > 0, got {self.interval_s}")

    def effective_interval_s(self, block_interval_s: float = 1.0) -> float:
        """The poll period actually used."""
        if self.interval_s is not None:
            return self.interval_s
        return max(block_interval_s, block_interval_s * self.batch_size)


@dataclass
class SyncStats:
    """Traffic and staleness accounting for one sync client.

    ``delay`` samples measure, per applied header, how long after its
    block was created the device learned of it — the Danzi delay axis.
    """

    requests_sent: int = 0
    responses_received: int = 0
    headers_applied: int = 0
    batches_rejected: int = 0
    checkpoint_anchors: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    delay_sum_s: float = 0.0
    delay_max_s: float = 0.0
    delay_samples: int = 0

    @property
    def mean_delay_s(self) -> float:
        """Mean header-propagation delay over all samples."""
        if self.delay_samples == 0:
            return 0.0
        return self.delay_sum_s / self.delay_samples

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible summary."""
        return {
            "requests_sent": self.requests_sent,
            "responses_received": self.responses_received,
            "headers_applied": self.headers_applied,
            "batches_rejected": self.batches_rejected,
            "checkpoint_anchors": self.checkpoint_anchors,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "mean_delay_s": self.mean_delay_s,
            "max_delay_s": self.delay_max_s,
        }


@dataclass
class LedgerSyncClient:
    """Transport-free sync driver: a header chain plus its accounting.

    The device stack asks :meth:`next_request` what to fetch, ships the
    request over whatever transport it has, and feeds the response back
    through :meth:`apply_response`.
    """

    policy: SyncPolicy
    chain: HeaderChain = field(default_factory=HeaderChain)
    stats: SyncStats = field(default_factory=SyncStats)

    def next_request(self) -> tuple[int, int]:
        """(from_height, max_count) for the next header request."""
        return (self.chain.height, self.policy.batch_size)

    def apply_response(
        self,
        headers: Iterable[HeaderRecord],
        tip_height: int,
        checkpoint: Checkpoint | None,
        now: float,
    ) -> bool:
        """Absorb one header batch; returns True while still behind tip.

        A fresh client (no headers yet) anchors at the offered
        checkpoint.  A batch that fails linkage verification is counted
        in ``batches_rejected``; the headers before its first bad one
        stay applied and are counted like any other.
        """
        self.stats.responses_received += 1
        if (
            checkpoint is not None
            and self.chain.height == 0
            and self.chain.anchor is None
        ):
            self.chain.anchor_at(checkpoint)
            self.stats.checkpoint_anchors += 1
        applied_from = self.chain.height
        try:
            self.chain.extend(headers)
            rejected = False
        except ChainError:
            self.stats.batches_rejected += 1
            rejected = True
        self.stats.headers_applied += self.chain.height - applied_from
        for height in range(applied_from, self.chain.height):
            age = max(0.0, now - self.chain.header_at(height).header.timestamp)
            self.stats.delay_sum_s += age
            self.stats.delay_samples += 1
            if age > self.stats.delay_max_s:
                self.stats.delay_max_s = age
        return not rejected and self.chain.height < tip_height
