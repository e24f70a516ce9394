"""Block storage backends.

The ledger needs ``load`` / ``put`` / ``get`` / ``height`` / ``prune``.
Two backends:

* :class:`InMemoryBlockStore` — the default for simulations,
* :class:`JsonlBlockStore` — one JSON document per line on disk, so a
  ledger survives the process and external tools can inspect it; only
  line offsets, the newest body and the last body read stay in memory.

An archive line is the canonical form of ``{"block_hash", "header",
"records"}``, joined from the bytes the block was hashed from
(:meth:`~repro.chain.block.Block.to_bytes`), so writing a block encodes
no record again.  Reading a line decodes it once and encodes its
records back into the block's leaves; lines with other JSON spacing
read the same way.

A store has one reader and writer: the :class:`~repro.chain.ledger.
Blockchain` built on it.  The chain reads every stored block once, in
one ``load`` pass when it is built, and from then on learns of blocks
only through its own ``put``.  A JSONL archive therefore reads as the
file was when it was opened, plus the store's own appends.

Stores are *dumb on purpose*: they keep whatever bytes they are given.
Detecting that stored data was mutated is the auditor's job
(:mod:`repro.chain.audit`) — that separation is what the tamper
experiments exercise.

Both backends support *pruning*: dropping block bodies below a height so
a long-running ledger stays O(recent) in memory.  Pruned heights still
count toward ``height()`` — they are positions the chain once held, not
holes — but ``get`` raises :class:`~repro.errors.PrunedBlockError` for
them.  The JSONL file is never rewritten: on disk it remains the full
archive, and pruning only makes ``get`` refuse the pruned heights.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from typing import Any, Iterator, Protocol, Sequence

from repro.chain.block import Block
from repro.errors import ChainError, PrunedBlockError


class BlockStore(Protocol):
    """Minimal storage interface the ledger depends on."""

    def load(self) -> Iterator[tuple[Block, Sequence[dict[str, Any]]]]:
        """Every stored block once, oldest first, with its decoded
        records (the chain's open pass)."""
        ...

    def height(self) -> int:
        """Number of stored blocks."""
        ...

    def put(self, block: Block) -> None:
        """Append one block (must be at index == height())."""
        ...

    def get(self, height: int) -> Block:
        """Fetch the block stored at ``height``."""
        ...

    def prune(self, below_height: int) -> None:
        """Drop the bodies below ``below_height``; ``get`` refuses them."""
        ...


class InMemoryBlockStore:
    """List-backed store; the default for simulation runs."""

    def __init__(self) -> None:
        self._blocks: list[Block | None] = []
        self._pruned_below = 0

    def load(self) -> Iterator[tuple[Block, Sequence[dict[str, Any]]]]:
        """Every stored block with its records, oldest first (a pruned
        one raises)."""
        for height in range(len(self._blocks)):
            block = self.get(height)
            yield block, block.records

    def height(self) -> int:
        """Number of stored blocks (pruned positions included)."""
        return len(self._blocks)

    def put(self, block: Block) -> None:
        """Append one block at the next height."""
        if block.header.height != len(self._blocks):
            raise ChainError(
                f"block height {block.header.height} != next index {len(self._blocks)}"
            )
        self._blocks.append(block)

    def get(self, height: int) -> Block:
        """Fetch a stored block."""
        if not 0 <= height < len(self._blocks):
            raise ChainError(f"no block at height {height}")
        if height < self._pruned_below:
            raise PrunedBlockError(
                f"block {height} is pruned (bodies below {self._pruned_below} dropped)"
            )
        return self._blocks[height]

    def prune(self, below_height: int) -> None:
        """Drop block bodies below ``below_height``."""
        for height in range(self._pruned_below, min(below_height, len(self._blocks))):
            self._blocks[height] = None
        self._pruned_below = max(self._pruned_below, below_height)

    def tamper(self, height: int, block: Block) -> None:
        """Overwrite a stored block *without* any validation.

        Exists so tests and the tamper experiments can simulate an
        attacker with storage access; the ledger API never calls this.
        """
        if not 0 <= height < len(self._blocks):
            raise ChainError(f"no block at height {height}")
        self._blocks[height] = block


class JsonlBlockStore(InMemoryBlockStore):
    """Append-only JSON-lines file store with a bounded body cache.

    An :class:`InMemoryBlockStore` that writes every block to its file
    and keeps only the newest :attr:`CACHED_BODIES` bodies in memory,
    plus the last older body :meth:`get` read back from its line, so a
    receipt issued and then verified against an archived block decodes
    the line once.  An evicted body reads as ``None`` in the list, and
    each committed line's byte offset says where to find it.  A
    long-running ledger therefore costs memory per block, not per
    record, and every block stays readable.

    The file is read once, when the store is opened: by its chain's
    :meth:`load`, or else by the first :meth:`height`, :meth:`put` or
    :meth:`get`.  Opening decodes each committed line once.

    A block is committed by its line's newline.  An unterminated final
    line is an append cut off mid-write (the process died): it is not a
    block, and the next append truncates it away before writing.  A
    complete line that does not decode, or whose block claims another
    height than its position, is corruption and raises.

    Args:
        path: File to store blocks in; created on first append.
    """

    # Newest block bodies kept decoded in memory.  A served chain's
    # reads are almost all of older blocks (proofs of uniformly random
    # acked records): on serve_mixed (seed 7, 20 s) the newest 8 bodies
    # answered 8 % of the reads under load, the last-read body answers
    # 50 %, because a proof's self-check reads its block again.
    CACHED_BODIES = 1

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self._path = Path(path)
        self._offsets: array | None = None  # start of each block's line, once opened
        self._last_read: Block | None = None
        self._committed_bytes = 0

    @property
    def path(self) -> Path:
        """The archive file."""
        return self._path

    def load(self) -> Iterator[tuple[Block, Sequence[dict[str, Any]]]]:
        """Open the archive: yield each committed block, oldest first,
        with the records its line decoded to."""
        self._blocks, self._offsets = [], array("q")
        self._pruned_below = self._committed_bytes = 0
        self._last_read = None
        if not self._path.exists():
            return
        with self._path.open("rb") as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.endswith(b"\n"):
                    break  # a torn tail: never committed
                start = self._committed_bytes
                self._committed_bytes += len(line)
                if line.strip():
                    where = f"{self._path}:{line_no}"
                    block, records = self._decode(line, where)
                    try:
                        self._keep(block)
                    except ChainError as exc:
                        raise ChainError(f"corrupt block at {where}: {exc}") from exc
                    self._offsets.append(start)
                    yield block, records

    def _opened(self) -> array:
        if self._offsets is None:
            for _ in self.load():
                pass
        return self._offsets

    def _decode(self, line: bytes, where: str) -> tuple[Block, Any]:
        """The line's block and its decoded records: one decode."""
        try:
            data = json.loads(line)
            return Block.from_dict(data), data["records"]
        except (ValueError, KeyError, TypeError, ChainError) as exc:
            raise ChainError(f"corrupt block at {where}: {exc}") from exc

    def _keep(self, block: Block) -> None:
        super().put(block)
        evicted = len(self._blocks) - 1 - self.CACHED_BODIES
        if evicted >= 0:
            self._blocks[evicted] = None

    def height(self) -> int:
        """Number of stored blocks (pruned positions included)."""
        return len(self._opened())

    def put(self, block: Block) -> None:
        """Append one block to the file and the cache."""
        offsets = self._opened()
        # A block out of place is refused by the in-memory put below,
        # before it reaches the file.
        if block.header.height == len(offsets):
            line = block.to_bytes() + b"\n"
            with self._path.open("ab") as handle:
                if handle.tell() != self._committed_bytes:
                    handle.truncate(self._committed_bytes)  # drop a torn tail
                handle.write(line)
            offsets.append(self._committed_bytes)
            self._committed_bytes += len(line)
        self._keep(block)

    def get(self, height: int) -> Block:
        """Fetch a stored block, from the cache or from its line."""
        offsets = self._opened()
        block = super().get(height)
        if block is not None:
            return block
        block = self._last_read
        if block is None or block.header.height != height:
            end = offsets[height + 1] if height + 1 < len(offsets) else self._committed_bytes
            with self._path.open("rb") as handle:
                handle.seek(offsets[height])
                line = handle.read(end - offsets[height])
            block, _ = self._decode(line, f"{self._path} block {height}")
            self._last_read = block
        return block
