"""Tests for hashing, Merkle trees and blocks."""

import pytest

from repro.chain import Block, BlockHeader, MerkleTree, canonical_bytes, merkle_root, sha256_hex
from repro.chain.hashing import GENESIS_HASH, chain_hash, hash_value
from repro.errors import BlockValidationError, ChainError


class TestHashing:
    def test_canonical_bytes_key_order_invariant(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})

    def test_canonical_bytes_distinguishes_values(self):
        assert canonical_bytes({"a": 1}) != canonical_bytes({"a": 2})

    def test_nan_rejected(self):
        with pytest.raises(ChainError):
            canonical_bytes({"x": float("nan")})

    def test_unserialisable_rejected(self):
        with pytest.raises(ChainError):
            canonical_bytes({"x": object()})

    def test_sha256_known_vector(self):
        assert (
            sha256_hex(b"")
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_hash_value_stable(self):
        assert hash_value([1, 2, 3]) == hash_value([1, 2, 3])

    def test_chain_hash_depends_on_both_inputs(self):
        h1 = chain_hash(GENESIS_HASH, {"a": 1})
        h2 = chain_hash(GENESIS_HASH, {"a": 2})
        h3 = chain_hash(h1, {"a": 1})
        assert len({h1, h2, h3}) == 3

    def test_chain_hash_validates_previous(self):
        with pytest.raises(ChainError):
            chain_hash("short", {})


class TestMerkle:
    def test_root_deterministic(self):
        records = [{"v": i} for i in range(7)]
        assert merkle_root(records) == merkle_root(records)

    def test_root_changes_with_any_record(self):
        records = [{"v": i} for i in range(8)]
        mutated = [dict(r) for r in records]
        mutated[3]["v"] = 99
        assert merkle_root(records) != merkle_root(mutated)

    def test_root_changes_with_order(self):
        a = [{"v": 1}, {"v": 2}]
        assert merkle_root(a) != merkle_root(list(reversed(a)))

    def test_empty_root_is_sentinel(self):
        assert merkle_root([]) == merkle_root([])
        assert merkle_root([]) != merkle_root([{}])

    def test_single_leaf(self):
        tree = MerkleTree([{"v": 1}])
        assert tree.leaf_count == 1
        assert tree.proof(0) == []
        assert MerkleTree.verify_proof({"v": 1}, [], tree.root)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13])
    def test_proofs_verify_for_all_leaves(self, n):
        records = [{"v": i} for i in range(n)]
        tree = MerkleTree(records)
        for i, record in enumerate(records):
            proof = tree.proof(i)
            assert MerkleTree.verify_proof(record, proof, tree.root)

    def test_proof_fails_for_wrong_record(self):
        records = [{"v": i} for i in range(5)]
        tree = MerkleTree(records)
        proof = tree.proof(2)
        assert not MerkleTree.verify_proof({"v": 99}, proof, tree.root)

    def test_proof_fails_for_wrong_root(self):
        records = [{"v": i} for i in range(5)]
        tree = MerkleTree(records)
        assert not MerkleTree.verify_proof(records[0], tree.proof(0), "0" * 64)

    def test_proof_index_out_of_range(self):
        with pytest.raises(ChainError):
            MerkleTree([{"v": 1}]).proof(1)

    def test_bad_proof_side_rejected(self):
        with pytest.raises(ChainError):
            MerkleTree.verify_proof({}, [("X", "0" * 64)], "0" * 64)

    def test_leaf_node_domain_separation(self):
        # A single-leaf tree's root differs from the leaf content hashed
        # as a node, so leaves cannot masquerade as interior nodes.
        tree = MerkleTree(["x"])
        assert tree.root != sha256_hex(canonical_bytes("x"))


class TestBlock:
    def make_block(self, height=0, prev=GENESIS_HASH, records=None):
        return Block.create(
            height=height,
            previous_hash=prev,
            aggregator="agg1",
            timestamp=1.0,
            records=records if records is not None else [{"v": 1}, {"v": 2}],
        )

    def test_create_sets_consistent_fields(self):
        block = self.make_block()
        assert block.header.record_count == 2
        assert block.block_hash == block.compute_hash()
        block.validate_structure()

    def test_hash_changes_with_records(self):
        a = self.make_block(records=[{"v": 1}])
        b = self.make_block(records=[{"v": 2}])
        assert a.block_hash != b.block_hash

    def test_hash_changes_with_previous(self):
        a = self.make_block()
        b = self.make_block(prev=a.block_hash, height=1)
        assert a.block_hash != b.block_hash

    def test_tampered_record_fails_validation(self):
        block = self.make_block()
        tampered = Block(
            header=block.header,
            records=({"v": 999}, {"v": 2}),
            block_hash=block.block_hash,
        )
        with pytest.raises(BlockValidationError):
            tampered.validate_structure()

    def test_wrong_count_fails_validation(self):
        block = self.make_block()
        bad_header = BlockHeader(
            height=block.header.height,
            previous_hash=block.header.previous_hash,
            merkle_root=block.header.merkle_root,
            aggregator=block.header.aggregator,
            timestamp=block.header.timestamp,
            record_count=5,
        )
        tampered = Block(bad_header, block.records, block.block_hash)
        with pytest.raises(BlockValidationError):
            tampered.validate_structure()

    def test_dict_roundtrip(self):
        # A block's stored form is its line, canonical_bytes(to_dict()).
        block = self.make_block()
        rebuilt, records = Block.from_line(block.to_bytes())
        assert rebuilt.block_hash == block.block_hash
        assert records == block.to_dict()["records"]
        rebuilt.validate_structure()

    def test_empty_records_block_valid(self):
        block = self.make_block(records=[])
        block.validate_structure()

    def test_header_validation(self):
        with pytest.raises(BlockValidationError):
            BlockHeader(-1, GENESIS_HASH, "r", "a", 0.0, 0)
        with pytest.raises(BlockValidationError):
            BlockHeader(0, "short", "r", "a", 0.0, 0)
        with pytest.raises(BlockValidationError):
            BlockHeader(0, GENESIS_HASH, "r", "a", 0.0, -1)
