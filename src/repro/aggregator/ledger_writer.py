"""Ledger writer: batches validated records into blocks.

The aggregator "stores the consumption data of all the devices in the
network in a blockchain" (§I).  Validated records queue here; every
block interval the queue is flushed into one block of the common chain.
Roaming records forwarded from host aggregators enter the same queue,
stamped ``roaming: true`` so billing can split them out.
"""

from __future__ import annotations

from typing import Any

from repro.chain.block import Block
from repro.chain.ledger import Blockchain
from repro.errors import ChainError


class LedgerWriter:
    """Per-aggregator staging queue in front of the shared chain.

    Args:
        chain: The common permissioned blockchain.
        aggregator_name: Name stamped into created blocks.
        max_records_per_block: Oversized queues split across blocks.
    """

    def __init__(
        self,
        chain: Blockchain,
        aggregator_name: str,
        max_records_per_block: int = 1024,
    ) -> None:
        if max_records_per_block <= 0:
            raise ChainError(
                f"records per block must be positive, got {max_records_per_block}"
            )
        self._chain = chain
        self._aggregator_name = aggregator_name
        self._max_records = max_records_per_block
        self._queue: list[dict[str, Any]] = []

    @property
    def pending(self) -> int:
        """Records staged for the next block."""
        return len(self._queue)

    def stage(self, record: dict[str, Any]) -> None:
        """Queue one validated record for the next block."""
        self._queue.append(record)

    def flush(self, timestamp: float) -> list[Block]:
        """Write queued records into one or more blocks.

        An empty queue writes nothing (unlike the chain's own
        ``append``, which tolerates empty blocks, the writer skips them
        to keep the ledger dense).
        """
        blocks: list[Block] = []
        while self._queue:
            batch = self._queue[: self._max_records]
            del self._queue[: self._max_records]
            block = self._chain.append(self._aggregator_name, timestamp, batch)
            blocks.append(block)
        return blocks
