"""Block storage backends.

The ledger only needs ``put`` / ``get`` / ``height``.  Two backends:

* :class:`InMemoryBlockStore` — the default for simulations,
* :class:`JsonlBlockStore` — one JSON document per line on disk, so a
  ledger survives the process and external tools can inspect it.

Stores are *dumb on purpose*: they keep whatever bytes they are given.
Detecting that stored data was mutated is the auditor's job
(:mod:`repro.chain.audit`) — that separation is what the tamper
experiments exercise.

Both backends support *pruning*: dropping block bodies below a height so
a long-running ledger stays O(recent) in memory.  Pruned heights still
count toward ``height()`` — they are positions the chain once held, not
holes — but ``get`` raises :class:`~repro.errors.PrunedBlockError` for
them.  The JSONL file is never rewritten: on disk it remains the full
archive, pruning only evicts the in-memory copies.
"""

from __future__ import annotations

import json
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
    """Append-only JSON-lines file store.

    The in-memory cache is keyed on the file's (size, mtime) stat: when
    another writer appends to the same file, the next read notices the
    stat change and re-loads, so a second reader is never stuck on its
    first snapshot.

    A block is committed by its line's newline.  An unterminated final
    line is an append cut off mid-write (the process died): it is not a
    block, and the next append truncates it away before writing.  A
    complete line that does not decode is corruption and raises.

    Args:
        path: File to store blocks in; created on first append.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._cache: list[Block | None] | None = None
        self._cache_stat: tuple[int, int] | None = None
        self._committed_bytes = 0
        self._pruned_below = 0

    def _stat(self) -> tuple[int, int] | None:
        try:
            st = self._path.stat()
        except FileNotFoundError:
            return None
        return (st.st_size, st.st_mtime_ns)

    def _load(self) -> list[Block | None]:
        current = self._stat()
        if self._cache is None or current != self._cache_stat:
            blocks: list[Block | None] = []
            committed = 0
            if current is not None:
                with self._path.open("rb") as handle:
                    for line_no, line in enumerate(handle, start=1):
                        if not line.endswith(b"\n"):
                            break  # a torn tail: never committed
                        committed += len(line)
                        if not line.strip():
                            continue
                        try:
                            blocks.append(Block.from_dict(json.loads(line)))
                        except (ValueError, KeyError, TypeError) as exc:
                            raise ChainError(
                                f"corrupt block at {self._path}:{line_no}: {exc}"
                            ) from exc
            # Re-apply the prune boundary after a reload: the file stays
            # the full archive, memory stays O(recent).
            for height in range(min(self._pruned_below, len(blocks))):
                blocks[height] = None
            self._cache = blocks
            self._cache_stat = current
            self._committed_bytes = committed
        return self._cache

    def height(self) -> int:
        """Number of stored blocks (pruned positions included)."""
        return len(self._load())

    @property
    def pruned_below(self) -> int:
        """Heights below this bound are evicted from the memory cache."""
        return self._pruned_below

    def put(self, block: Block) -> None:
        """Append one block to the file and the cache."""
        blocks = self._load()
        if block.header.height != len(blocks):
            raise ChainError(
                f"block height {block.header.height} != next index {len(blocks)}"
            )
        line = (json.dumps(block.to_dict(), sort_keys=True) + "\n").encode()
        with self._path.open("ab") as handle:
            if handle.tell() != self._committed_bytes:
                handle.truncate(self._committed_bytes)  # drop a torn tail
            handle.write(line)
        blocks.append(block)
        self._committed_bytes += len(line)
        self._cache_stat = self._stat()

    def get(self, height: int) -> Block:
        """Fetch a stored block."""
        blocks = self._load()
        if not 0 <= height < len(blocks):
            raise ChainError(f"no block at height {height}")
        block = blocks[height]
        if block is None:
            raise PrunedBlockError(
                f"block {height} is pruned from memory (archived in {self._path})"
            )
        return block

    def prune(self, below_height: int) -> int:
        """Evict cached bodies below ``below_height``; the file keeps all."""
        blocks = self._load()
        dropped = 0
        for height in range(min(below_height, len(blocks))):
            if blocks[height] is not None:
                blocks[height] = None
                dropped += 1
        self._pruned_below = max(self._pruned_below, below_height)
        return dropped
