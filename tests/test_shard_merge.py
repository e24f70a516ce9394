"""Cross-shard merge tests: chains and per-name maps.

The merge layer is pure data-in/data-out, so these tests drive it with
hand-built shard snapshots — same-instant ties, name collisions, empty
shards — without spinning up engines.
"""

import pytest

from repro.chain.ledger import Blockchain
from repro.errors import ConfigError
from repro.runtime.spec import LedgerSpec
from repro.shard.merge import merge_chain_ops, merge_summaries


def _record(device: str, seq: int) -> dict:
    return {"device_uid": device, "sequence": seq, "energy_mwh": 1.0}


class TestChainMerge:
    def test_replay_matches_serial_appends(self):
        names = ["agg-a", "agg-b"]
        serial = Blockchain()
        serial.append("agg-a", 1.0, [_record("d1", 0)])
        serial.append("agg-b", 1.0, [_record("d2", 0)])
        serial.append("agg-a", 2.0, [])
        serial.append("agg-b", 3.0, [_record("d2", 1)])
        # Shard 0 owns agg-a, shard 1 owns agg-b.
        shard0 = [(1.0, 0, [_record("d1", 0)]), (2.0, 0, [])]
        shard1 = [(1.0, 1, [_record("d2", 0)]), (3.0, 1, [_record("d2", 1)])]
        merged = merge_chain_ops([shard0, shard1], names)
        assert merged.tip_hash == serial.tip_hash
        assert merged.height == serial.height

    def test_same_instant_ties_break_by_declaration_index(self):
        names = ["agg-a", "agg-b"]
        # Shard order reversed relative to declaration order: the merge
        # key, not the input order, must decide same-instant placement.
        shard_b = [(5.0, 1, [_record("x", 0)])]
        shard_a = [(5.0, 0, [_record("y", 0)])]
        merged = merge_chain_ops([shard_b, shard_a], names)
        assert merged.get(0).header.aggregator == "agg-a"
        assert merged.get(1).header.aggregator == "agg-b"

    def test_empty_shards_and_ledger_config(self):
        names = ["agg-a"]
        ledger = LedgerSpec(checkpoint_interval_blocks=2)
        ops = [(float(i), 0, []) for i in range(4)]
        merged = merge_chain_ops([ops, []], names, ledger=ledger)
        assert merged.height == 4
        assert len(merged.checkpoints) == 2

    def test_intra_shard_order_is_preserved(self):
        # Same (timestamp, index) twice — e.g. a >1024-record flush
        # split — must replay in log order.
        names = ["agg-a"]
        ops = [
            (1.0, 0, [_record("d", 0)]),
            (1.0, 0, [_record("d", 1)]),
        ]
        merged = merge_chain_ops([ops], names)
        assert merged.get(0).records[0]["sequence"] == 0
        assert merged.get(1).records[0]["sequence"] == 1


class TestSummaryMerge:
    def test_union(self):
        merged = merge_summaries([{"a": {"x": 1}}, {"b": {"x": 2}}])
        assert merged == {"a": {"x": 1}, "b": {"x": 2}}

    def test_collision_raises(self):
        with pytest.raises(ConfigError, match="two shards"):
            merge_summaries([{"a": {}}, {"a": {}}])
