"""Block storage backends.

The ledger only needs ``put`` / ``get`` / ``height``.  Two backends:

* :class:`InMemoryBlockStore` — the default for simulations,
* :class:`JsonlBlockStore` — one JSON document per line on disk, so a
  ledger survives the process and external tools can inspect it; only
  line offsets, the newest body and the last body read stay in memory.

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
from typing import Protocol

from repro.chain.block import Block
from repro.errors import ChainError, PrunedBlockError


class BlockStore(Protocol):
    """Minimal storage interface the ledger depends on."""

    def height(self) -> int:
        """Number of stored blocks."""
        ...

    def put(self, block: Block) -> None:
        """Append one block (must be at index == height())."""
        ...

    def get(self, height: int) -> Block:
        """Fetch the block stored at ``height``."""
        ...


class InMemoryBlockStore:
    """List-backed store; the default for simulation runs."""

    def __init__(self) -> None:
        self._blocks: list[Block | None] = []
        self._pruned_below = 0

    def height(self) -> int:
        """Number of stored blocks (pruned positions included)."""
        return len(self._blocks)

    @property
    def pruned_below(self) -> int:
        """Heights below this bound have had their bodies dropped."""
        return self._pruned_below

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
        block = self._blocks[height]
        if block is None:
            raise PrunedBlockError(
                f"block {height} is pruned (bodies below {self._pruned_below} dropped)"
            )
        return block

    def prune(self, below_height: int) -> int:
        """Drop block bodies below ``below_height``; returns count dropped."""
        dropped = 0
        for height in range(self._pruned_below, min(below_height, len(self._blocks))):
            if self._blocks[height] is not None:
                self._blocks[height] = None
                dropped += 1
        self._pruned_below = max(self._pruned_below, below_height)
        return dropped

    def tamper(self, height: int, block: Block) -> None:
        """Overwrite a stored block *without* any validation.

        Exists so tests and the tamper experiments can simulate an
        attacker with storage access; the ledger API never calls this.
        """
        if not 0 <= height < len(self._blocks):
            raise ChainError(f"no block at height {height}")
        self._blocks[height] = block


class JsonlBlockStore:
    """Append-only JSON-lines file store with a bounded body cache.

    Memory holds each committed line's byte offset, the newest
    :attr:`CACHED_BODIES` block bodies (an :class:`InMemoryBlockStore`
    pruned as it slides) and the last older body :meth:`get` read back
    from its line, so a receipt issued and then verified against an
    archived block decodes the line once.  A long-running ledger
    therefore costs memory per block, not per record, and every block
    stays readable.

    The offsets are keyed on the file's (size, mtime) stat: when another
    writer appends to the same file, the next read notices the stat
    change and re-loads, so a second reader is never stuck on its first
    snapshot.

    A block is committed by its line's newline.  An unterminated final
    line is an append cut off mid-write (the process died): it is not a
    block, and the next append truncates it away before writing.  A
    complete line that does not decode, or whose block claims another
    height than its position, is corruption and raises.  Loading decodes
    every committed line.

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
        self._path = Path(path)
        self._offsets = array("q")  # start of each block's line
        self._recent = InMemoryBlockStore()
        self._last_read: Block | None = None
        self._loaded_stat: tuple[int, int] | None = None
        self._committed_bytes = 0
        self._pruned_below = 0

    @property
    def path(self) -> Path:
        """The archive file."""
        return self._path

    def _stat(self) -> tuple[int, int] | None:
        try:
            st = self._path.stat()
        except FileNotFoundError:
            return None
        return (st.st_size, st.st_mtime_ns)

    def _refresh(self) -> None:
        current = self._stat()
        if current == self._loaded_stat:
            return
        self._offsets = array("q")
        self._recent = InMemoryBlockStore()
        self._last_read = None
        self._committed_bytes = 0
        if current is not None:
            with self._path.open("rb") as handle:
                for line_no, line in enumerate(handle, start=1):
                    if not line.endswith(b"\n"):
                        break  # a torn tail: never committed
                    start = self._committed_bytes
                    self._committed_bytes += len(line)
                    if line.strip():
                        where = f"{self._path}:{line_no}"
                        self._admit(self._decode(line, where), start, where)
        self._loaded_stat = current

    def _decode(self, line: bytes, where: str) -> Block:
        try:
            return Block.from_dict(json.loads(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise ChainError(f"corrupt block at {where}: {exc}") from exc

    def _admit(self, block: Block, offset: int, where: str) -> None:
        try:
            self._recent.put(block)
        except ChainError as exc:
            raise ChainError(f"corrupt block at {where}: {exc}") from exc
        self._offsets.append(offset)
        self._recent.prune(len(self._offsets) - self.CACHED_BODIES)

    def height(self) -> int:
        """Number of stored blocks (pruned positions included)."""
        self._refresh()
        return len(self._offsets)

    @property
    def pruned_below(self) -> int:
        """Heights below this bound are pruned: :meth:`get` refuses them."""
        return self._pruned_below

    def put(self, block: Block) -> None:
        """Append one block to the file and the cache."""
        self._refresh()
        if block.header.height != len(self._offsets):
            raise ChainError(
                f"block height {block.header.height} != next index {len(self._offsets)}"
            )
        line = (json.dumps(block.to_dict(), sort_keys=True) + "\n").encode()
        with self._path.open("ab") as handle:
            if handle.tell() != self._committed_bytes:
                handle.truncate(self._committed_bytes)  # drop a torn tail
            handle.write(line)
        self._admit(block, self._committed_bytes, str(self._path))
        self._committed_bytes += len(line)
        self._loaded_stat = self._stat()

    def get(self, height: int) -> Block:
        """Fetch a stored block, from the cache or from its line."""
        self._refresh()
        if not 0 <= height < len(self._offsets):
            raise ChainError(f"no block at height {height}")
        if height < self._pruned_below:
            raise PrunedBlockError(
                f"block {height} is pruned from memory (archived in {self._path})"
            )
        if height >= self._recent.pruned_below:
            return self._recent.get(height)
        block = self._last_read
        if block is not None and block.header.height == height:
            return block
        start = self._offsets[height]
        end = (
            self._offsets[height + 1]
            if height + 1 < len(self._offsets)
            else self._committed_bytes
        )
        with self._path.open("rb") as handle:
            handle.seek(start)
            line = handle.read(end - start)
        self._last_read = self._decode(line, f"{self._path} block {height}")
        return self._last_read

    def prune(self, below_height: int) -> int:
        """Refuse bodies below ``below_height``; the file keeps all.

        Returns how many heights were newly pruned.
        """
        below_height = min(below_height, self.height())
        dropped = max(0, below_height - self._pruned_below)
        self._pruned_below = max(self._pruned_below, below_height)
        self._recent.prune(below_height)
        if self._last_read is not None and self._last_read.header.height < below_height:
            self._last_read = None
        return dropped
