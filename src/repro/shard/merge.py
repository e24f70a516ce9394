"""Deterministic merges from per-shard snapshots to the serial view.

:func:`merge_chain_ops` replays the shards' append logs into the serial
chain; :func:`merge_summaries` unions the per-shard maps keyed by device
or aggregator name (summaries, and each aggregator's series bank).
Counters fold with :func:`repro.obs.metrics.fold_counters`.  Each merge
is a pure function of the shard results (taken in shard index order), so
the output is independent of how the shards were scheduled — the
foundation of the byte-identical digest contract.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Sequence

from repro.chain.ledger import Blockchain
from repro.errors import ConfigError
from repro.runtime.spec import LedgerSpec


def merge_chain_ops(
    ops_by_shard: Sequence[Sequence[tuple[float, int, list]]],
    aggregator_names: Sequence[str],
    *,
    ledger: LedgerSpec | None = None,
) -> Blockchain:
    """Rebuild the serial chain from per-shard append logs.

    A stable k-way merge by ``(timestamp, declaration_index)`` recovers
    the serial append order: same-instant flushes happen in declaration
    order on the serial kernel (aggregator duties are armed in build
    order and re-arm immediately after firing), and one aggregator's
    ops live on exactly one shard, already in its local time order.
    Replaying the merged log through a fresh :class:`Blockchain`
    reproduces every height / previous-hash link, so the tip hash is
    the serial digest.
    """
    merged = heapq.merge(*ops_by_shard, key=lambda op: (op[0], op[1]))
    if ledger is None:
        ledger = LedgerSpec()
    chain = Blockchain(
        checkpoint_interval=ledger.checkpoint_interval_blocks or None,
        pruning_depth=(
            ledger.pruning_depth_blocks if ledger.pruning_depth_blocks > 0 else None
        ),
    )
    for timestamp, declaration_index, records in merged:
        chain.append(aggregator_names[declaration_index], timestamp, records)
    return chain


def merge_summaries(summaries: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Union per-shard ``{name: value}`` maps (devices or aggregators).

    Keys are disjoint across shards; two shards claiming one name is a
    partitioning bug, so collisions raise.
    """
    merged: dict[str, Any] = {}
    for summary in summaries:
        for name, stats in summary.items():
            if name in merged:
                raise ConfigError(f"{name!r} reported by two shards")
            merged[name] = stats
    return merged
