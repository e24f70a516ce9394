"""Block storage: a list, or an append-only archive file.

:class:`BlockStore` keeps a ledger's blocks in a list, the default for
simulations, or, given a path, in an append-only archive of one line
per block, so a ledger survives the process and external tools can
inspect it.  An archive holds only line offsets, the newest body and
the last body read in memory.  A line is the block's
:meth:`~repro.chain.block.Block.to_bytes` and reads back through
:meth:`~repro.chain.block.Block.from_line`, its leaves sliced from the
bytes it holds, so neither writing nor reading a block encodes a record.

A store has one reader and writer: the :class:`~repro.chain.ledger.
Blockchain` built on it.  The chain reads every stored block once, in
one ``load`` pass when it is built, and from then on learns of blocks
only through its own ``put``.  An archive therefore reads as the file
was when it was opened, plus the store's own appends.

Stores are *dumb on purpose*: they keep whatever bytes they are given.
Detecting that stored data was mutated is the auditor's job
(:mod:`repro.chain.audit`) — that separation is what the tamper
experiments exercise.

A store supports *pruning*: dropping block bodies below a height so a
long-running ledger stays O(recent) in memory.  Pruned heights still
count toward ``height()`` — they are positions the chain once held, not
holes — but ``get`` raises :class:`~repro.errors.PrunedBlockError` for
them.  The archive file is never rewritten: on disk it remains the full
archive, and pruning only makes ``get`` refuse the pruned heights.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.chain.block import Block
from repro.errors import ChainError, PrunedBlockError


class BlockStore:
    """A ledger's blocks, in a list or in an append-only archive file.

    With a path, each block is appended to the file as one line, and
    memory holds each line's byte offset, the newest body, and the last
    body :meth:`get` read back from its line, so a receipt issued and
    then verified against an archived block reads the line once.  A
    long-running archive therefore costs memory per block, not per
    record, and every block stays readable.

    The archive is read once, when the store is opened: by its chain's
    :meth:`load`, or else by the first :meth:`height`, :meth:`put` or
    :meth:`get`.  A block is committed by its line's newline.  An
    unterminated final line is an append cut off mid-write (the process
    died): it is not a block, and the next append truncates it away
    before writing.  A complete line that is not a block's
    :meth:`~repro.chain.block.Block.to_bytes`, or whose block claims
    another height than its position, is corruption and raises
    :class:`~repro.errors.ChainError` naming the line.

    Args:
        path: Archive file, created on first append; ``None`` keeps the
            blocks in a list.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._path = None if path is None else Path(path)
        self._blocks: list[Block] = []  # a list's bodies, from _pruned_below up
        self._offsets: array | None = None  # an archive's line starts, once opened
        self._end = 0  # an archive's committed bytes
        self._newest: Block | None = None
        self._last_read: tuple[int, Block] | None = None
        self._pruned_below = 0

    @property
    def path(self) -> Path | None:
        """The archive file (``None`` for a list)."""
        return self._path

    def load(self) -> Iterator[tuple[Block, Sequence[Any]]]:
        """Every stored block once, oldest first, with its decoded
        records: the chain's open pass (a pruned block raises)."""
        if self._path is not None:
            return self._open()
        return ((block, block.records) for block in map(self.get, range(self.height())))

    def _open(self) -> Iterator[tuple[Block, list[Any]]]:
        """Read the archive: each committed block once, oldest first,
        with the records its line decoded to."""
        self._offsets, self._end = array("q"), 0
        self._newest = self._last_read = None
        self._pruned_below = 0
        if not self._path.exists():
            return
        with self._path.open("rb") as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.endswith(b"\n"):
                    break  # a torn tail: never committed
                start, self._end = self._end, self._end + len(line)
                if line == b"\n":
                    continue
                where = f"{self._path}:{line_no}"
                block, records = self._read(line, where)
                if block.header.height != len(self._offsets):
                    raise ChainError(
                        f"corrupt block at {where}: block height {block.header.height} "
                        f"!= next index {len(self._offsets)}"
                    )
                self._offsets.append(start)
                self._newest = block
                yield block, records

    def _read(self, line: bytes, where: str) -> tuple[Block, list[Any]]:
        """The block on one newline-terminated archive line."""
        try:
            return Block.from_line(line[:-1])
        except ChainError as exc:
            raise ChainError(f"corrupt block at {where}: {exc}") from exc

    def height(self) -> int:
        """Number of stored blocks (pruned positions included)."""
        if self._path is None:
            return self._pruned_below + len(self._blocks)
        if self._offsets is None:
            for _ in self._open():
                pass
        return len(self._offsets)

    def put(self, block: Block) -> None:
        """Append one block at the next height."""
        height = self.height()
        if block.header.height != height:
            raise ChainError(f"block height {block.header.height} != next index {height}")
        if self._path is None:
            self._blocks.append(block)
            return
        line = block.to_bytes() + b"\n"
        with self._path.open("ab") as handle:
            if handle.tell() != self._end:
                handle.truncate(self._end)  # drop a torn tail
            handle.write(line)
        self._offsets.append(self._end)
        self._end += len(line)
        self._newest = block

    def get(self, height: int) -> Block:
        """Fetch a stored block: from the list, from memory or from its line."""
        if not 0 <= height < self.height():
            raise ChainError(f"no block at height {height}")
        if height < self._pruned_below:
            raise PrunedBlockError(
                f"block {height} is pruned (bodies below {self._pruned_below} dropped)"
            )
        if self._path is None:
            return self._blocks[height - self._pruned_below]
        if height == len(self._offsets) - 1:
            return self._newest
        if self._last_read is None or self._last_read[0] != height:
            with self._path.open("rb") as handle:
                handle.seek(self._offsets[height])
                block, _ = self._read(handle.readline(), f"{self._path} block {height}")
            self._last_read = height, block
        return self._last_read[1]

    def prune(self, below_height: int) -> None:
        """Drop the bodies below ``below_height``; ``get`` refuses them."""
        cut = min(below_height, self.height()) - self._pruned_below
        if cut > 0:
            del self._blocks[:cut]
            self._pruned_below += cut

    def tamper(self, height: int, block: Block) -> None:
        """Overwrite a listed block *without* any validation.

        Exists so tests and the tamper experiments can simulate an
        attacker with storage access; the ledger API never calls this.
        An archive is tampered with by rewriting its file.
        """
        if self._path is not None or not self._pruned_below <= height < self.height():
            raise ChainError(f"no listed block at height {height}")
        self._blocks[height - self._pruned_below] = block


# benchmarks/e2e/tracer.py times the `chain.store` layer as InMemoryBlockStore.put.
InMemoryBlockStore = BlockStore
