"""The permissioned blockchain (hash chain without consensus).

Only trusted aggregators append; "since the aggregator is trusted and
validates the data, there is no consensus required among devices"
(§II-A).  Blocks from all aggregators form one *common* chain — in the
reproduction each append names the creating aggregator, so a single
:class:`Blockchain` instance can be shared by many aggregators (the
common permissioned chain) or instantiated per aggregator for isolation
experiments.

Beyond raw storage the chain maintains three derived structures:

* a **per-device record index** mapping ``device_uid`` to the (height,
  record index, sequence) coordinates of every retained record, held in
  flat arrays (16 B a record), so receipt issuance and billing queries
  stop being O(chain) scans,
* a **header list** for *every* height ever appended — this is what
  lightweight clients sync (:mod:`repro.chain.sync`) and what keeps
  receipts against pruned blocks verifiable,
* optional **checkpoints** every ``checkpoint_interval`` blocks, each
  committing to the prefix below it.  With ``pruning_depth`` set, block
  *bodies* older than the newest checkpoint-covered boundary are dropped
  from the store, bounding memory to O(recent) while headers and
  checkpoints keep the full history verifiable.

A chain is the only reader and writer of its store.  It reads every
stored block once, when it is built (one read per line of an
archive), and from then on :meth:`Blockchain.append` alone keeps the
derived state current, from the records it was given: blocks keep
their records as canonical bytes (:mod:`repro.chain.block`), and
nothing on the append path decodes them.  A reader decodes each block
it reads at most once per call.  Checking the stored chain is one walk,
:meth:`Blockchain.problems`, behind both :meth:`Blockchain.validate`
and :func:`~repro.chain.audit.audit_chain`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import groupby
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.chain.block import Block
from repro.chain.hashing import GENESIS_HASH
from repro.chain.store import BlockStore
from repro.chain.sync import Checkpoint, HeaderRecord
from repro.errors import BlockValidationError, ChainError

if TYPE_CHECKING:
    from repro.monitoring.counters import CounterBank


# A record's place in the chain: ``height * _SLOTS + record index``.
_SLOTS = 2**32
# Stand-in for a sequence that does not fit a 64-bit int (missing, a
# string, a float...); the record's own value is kept aside by position.
_IRREGULAR = -(2**63)


class _DeviceIndex:
    """One device's records in chain order: two flat arrays, 16 B a record."""

    __slots__ = ("places", "sequences", "irregular")

    def __init__(self) -> None:
        self.places = array("Q")
        self.sequences = array("q")
        self.irregular: dict[int, Any] = {}

    def add_irregular(self, sequence: Any) -> None:
        self.irregular[len(self.sequences)] = sequence
        self.sequences.append(_IRREGULAR)

    def find(self, sequence: Any) -> int | None:
        """Position of the first record whose sequence equals ``sequence``."""
        found = 0
        while True:
            try:
                found = self.sequences.index(sequence, found)
            except ValueError:
                found = None
                break
            if found not in self.irregular:
                break
            found += 1  # an irregular record's stand-in: matched by value below
        for at, stored in self.irregular.items():
            if found is not None and at > found:
                break
            if stored == sequence:
                return at
        return found

    def drop_below(self, height: int) -> None:
        cut = bisect_left(self.places, height * _SLOTS)
        del self.places[:cut], self.sequences[:cut]
        self.irregular = {at - cut: seq for at, seq in self.irregular.items() if at >= cut}


class Blockchain:
    """Append-only chain of validated consumption blocks.

    Args:
        store: Block store; defaults to a list.  The chain reads
            every block in it once, now, and is its only writer after.
        authorized: Optional set of aggregator names allowed to append
            (the "permissioned" part).  ``None`` allows any appender.
        counters: Optional shared counter bank; appends are recorded as
            ``chain.blocks_appended`` / ``chain.records_appended``.
        checkpoint_interval: Commit a :class:`Checkpoint` every this
            many blocks (``None`` disables checkpointing).
        pruning_depth: Keep at least this many recent block bodies;
            older ones are pruned at each checkpoint, never past the
            newest checkpoint.  Requires ``checkpoint_interval``.
    """

    def __init__(
        self,
        store: BlockStore | None = None,
        authorized: set[str] | None = None,
        counters: "CounterBank | None" = None,
        *,
        checkpoint_interval: int | None = None,
        pruning_depth: int | None = None,
    ) -> None:
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ChainError(
                f"checkpoint interval must be >= 1, got {checkpoint_interval}"
            )
        if pruning_depth is not None and pruning_depth < 0:
            raise ChainError(f"pruning depth must be >= 0, got {pruning_depth}")
        if pruning_depth is not None and checkpoint_interval is None:
            raise ChainError(
                "pruning requires checkpointing: receipts against pruned "
                "blocks verify via committed checkpoints"
            )
        self._store = store or BlockStore()
        self._authorized = set(authorized) if authorized is not None else None
        self._counters = counters
        self._checkpoint_interval = checkpoint_interval
        self._pruning_depth = pruning_depth
        self._tip_hash = GENESIS_HASH
        self._headers: list[HeaderRecord] = []
        self._checkpoints: list[Checkpoint] = []
        self._records_total = 0
        self._pruned_below = 0
        self._device_index: dict[str, _DeviceIndex] = {}
        for block, records in self._store.load():
            self._admit(block, records)

    # ------------------------------------------------------------------
    # derived-state maintenance

    def _admit(self, block: Block, records: Iterable[dict[str, Any]]) -> None:
        """Index ``block``, whose records (decoded) are ``records``."""
        header = block.header
        self._headers.append(HeaderRecord(header=header, block_hash=block.block_hash))
        place = header.height * _SLOTS
        device_index = self._device_index
        for record in records:
            uid = record.get("device_uid")
            if uid is not None:
                entry = device_index.get(uid)
                if entry is None:
                    entry = device_index[uid] = _DeviceIndex()
                entry.places.append(place)
                sequence = record.get("sequence")
                try:
                    entry.sequences.append(sequence)
                except (TypeError, OverflowError):
                    entry.add_irregular(sequence)
            place += 1
        self._records_total += len(block.leaves)
        self._tip_hash = block.block_hash
        height = len(self._headers)
        if self._checkpoint_interval is None or height % self._checkpoint_interval:
            return
        self._checkpoints.append(
            Checkpoint(
                height=height,
                tip_hash=self._tip_hash,
                record_count=self._records_total,
                timestamp=header.timestamp,
            )
        )
        # Prune at the checkpoint just committed, so never past it.
        boundary = 0 if self._pruning_depth is None else height - self._pruning_depth
        if boundary > self._pruned_below:
            self._store.prune(boundary)
            self._pruned_below = boundary
            for uid in list(self._device_index):
                entry = self._device_index[uid]
                entry.drop_below(boundary)
                if not entry.places:
                    del self._device_index[uid]

    # ------------------------------------------------------------------
    # core chain API

    @property
    def height(self) -> int:
        """Number of blocks in the chain (pruned positions included)."""
        return len(self._headers)

    @property
    def tip_hash(self) -> str:
        """Hash of the newest block (genesis sentinel when empty)."""
        return self._tip_hash

    def is_authorized(self, aggregator: str) -> bool:
        """Whether ``aggregator`` may append to this chain."""
        return self._authorized is None or aggregator in self._authorized

    def authorize(self, aggregator: str) -> None:
        """Grant append permission (no-op for an open chain)."""
        if self._authorized is not None:
            self._authorized.add(aggregator)

    def append(
        self,
        aggregator: str,
        timestamp: float,
        records: list[dict[str, Any]],
    ) -> Block:
        """Create and append the next block.

        Raises :class:`~repro.errors.ChainError` if the aggregator is not
        authorized.  Empty record lists are allowed (an interval with no
        validated reports still advances the chain, keeping block cadence
        observable).
        """
        if not self.is_authorized(aggregator):
            raise ChainError(f"aggregator {aggregator!r} is not authorized to append")
        block = Block.create(
            height=len(self._headers),
            previous_hash=self._tip_hash,
            aggregator=aggregator,
            timestamp=timestamp,
            records=records,
        )
        self._store.put(block)
        self._admit(block, records)
        if self._counters is not None:
            self._counters.increment("chain.blocks_appended")
            if records:
                self._counters.increment("chain.records_appended", len(records))
        return block

    def get(self, height: int) -> Block:
        """Fetch the block at ``height``.

        Raises :class:`~repro.errors.PrunedBlockError` when the body was
        pruned; use :meth:`header_at` for the retained header.
        """
        return self._store.get(height)

    def __iter__(self) -> Iterator[Block]:
        """Iterate the *retained* blocks (pruned bodies are gone)."""
        for height in range(self._pruned_below, self.height):
            yield self._store.get(height)

    def __len__(self) -> int:
        return self.height

    def validate(self) -> None:
        """Raise :class:`~repro.errors.BlockValidationError` at the first
        problem :meth:`problems` finds."""
        for _, _, detail in self.problems():
            raise BlockValidationError(detail)

    def problems(self) -> Iterator[tuple[str, int, str]]:
        """Walk the whole chain once, yielding ``(kind, height, detail)``
        for every problem, in chain order.

        ``kind`` is ``"link"`` for a header that claims another height or
        does not link to the block below it, and for a newest stored
        block that is not the chain's tip (reported at :attr:`height`);
        it is ``"block"`` for a retained body inconsistent with its
        header (Merkle root, record count or stored hash).  Over the
        pruned prefix only the retained headers' linkage can be checked:
        the bodies are gone, and the committed checkpoints vouch for them.
        """
        previous_hash = GENESIS_HASH
        for height in range(self.height):
            if height < self._pruned_below:
                held = self._headers[height]
                header, block_hash, block = held.header, held.block_hash, None
            else:
                block = self._store.get(height)
                header, block_hash = block.header, block.block_hash
            if header.height != height or header.previous_hash != previous_hash:
                yield "link", height, f"block {height}: out of place or previous-hash link broken"
            if block is not None:
                try:
                    block.validate_structure()
                except BlockValidationError as exc:
                    yield "block", height, str(exc)
            previous_hash = block_hash
        if previous_hash != self._tip_hash:
            yield "link", self.height, "tip hash does not match last block"

    # ------------------------------------------------------------------
    # lightweight-client view

    def header_at(self, height: int) -> HeaderRecord:
        """Header + block hash for ``height`` (retained even when pruned)."""
        if not 0 <= height < len(self._headers):
            raise ChainError(f"no header at height {height}")
        return self._headers[height]

    def headers(self, start: int, max_count: int) -> list[HeaderRecord]:
        """Up to ``max_count`` header records from ``start`` upward."""
        if start < 0 or max_count < 0:
            raise ChainError(
                f"invalid header range start={start} max_count={max_count}"
            )
        return self._headers[start : start + max_count]

    @property
    def checkpoints(self) -> tuple[Checkpoint, ...]:
        """All committed checkpoints, oldest first."""
        return tuple(self._checkpoints)

    @property
    def latest_checkpoint(self) -> Checkpoint | None:
        """The newest committed checkpoint, if any."""
        return self._checkpoints[-1] if self._checkpoints else None

    @property
    def records_total(self) -> int:
        """Records ever appended, including ones in pruned blocks."""
        return self._records_total

    # ------------------------------------------------------------------
    # pruning

    @property
    def pruned_below(self) -> int:
        """Block bodies below this height have been dropped."""
        return self._pruned_below

    @property
    def retained_blocks(self) -> int:
        """Block bodies currently held in the store."""
        return self.height - self._pruned_below

    # ------------------------------------------------------------------
    # record queries (index-backed)

    def locate_record(self, device_uid: str, sequence: Any) -> tuple[int, int] | None:
        """(height, record index) of a device's record, or None.

        Only retained records are findable — the index is trimmed along
        with pruning.
        """
        entry = self._device_index.get(device_uid)
        found = entry.find(sequence) if entry is not None else None
        return None if found is None else divmod(entry.places[found], _SLOTS)

    def records_for_device(self, device_uid: str) -> list[dict[str, Any]]:
        """All *retained* records of one device, in chain order.

        The index is an acceleration structure over the store, not a
        second source of truth: each hit is re-checked against the
        stored bytes, so a tampered store (records removed or moved —
        what the tamper experiments simulate) reads exactly as stored,
        never as indexed.  Each block is read and decoded once per call,
        and only the device's own records in it are decoded.
        """
        found: list[dict[str, Any]] = []
        entry = self._device_index.get(device_uid)
        if entry is None:
            return found
        for height, places in groupby(entry.places, lambda place: place // _SLOTS):
            block = self._store.get(height)
            held = len(block.leaves)
            indexes = [index for index in (place % _SLOTS for place in places) if index < held]
            found.extend(
                record for record in block.records_at(indexes)
                if record.get("device_uid") == device_uid
            )
        return found

    def total_energy_mwh(self, device_uid: str | None = None) -> float:
        """Sum of retained energy, optionally filtered to one device."""
        total = 0.0
        if device_uid is not None:
            for record in self.records_for_device(device_uid):
                total += float(record.get("energy_mwh", 0.0))
            return total
        for block in self:
            for record in block.records:
                total += float(record.get("energy_mwh", 0.0))
        return total
