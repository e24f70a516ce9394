"""Property-based tests for the blockchain substrate."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import (
    Block,
    Blockchain,
    BlockHeader,
    BlockStore,
    MerkleTree,
    audit_chain,
)
from repro.chain.hashing import canonical_bytes, hash_value
from repro.errors import BlockValidationError

# JSON-compatible scalars that serialise canonically (no NaN/inf).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
records = st.lists(
    st.dictionaries(st.text(min_size=1, max_size=8), scalars, max_size=5),
    max_size=12,
)
# Any JSON record: nested lists and objects, any Unicode text (ASCII
# escapes in canonical bytes), -0.0 and integers far past 64 bits.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([-0.0, 2**200, -(2**100)])
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=10),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=10,
)
json_records = st.lists(
    st.dictionaries(st.text(max_size=8), json_values, max_size=5), max_size=5
)


class TestCanonicalHashing:
    @given(st.dictionaries(st.text(min_size=1, max_size=6), scalars, max_size=8))
    def test_hash_independent_of_insertion_order(self, mapping):
        reordered = dict(reversed(list(mapping.items())))
        assert hash_value(mapping) == hash_value(reordered)

    @given(scalars, scalars)
    def test_distinct_scalars_distinct_bytes(self, a, b):
        if a != b or (a == b and type(a) is not type(b) and not (
            isinstance(a, (int, float)) and isinstance(b, (int, float))
        )):
            if a != b:
                assert canonical_bytes({"v": a}) != canonical_bytes({"v": b})


class TestMerkleProperties:
    @given(records)
    def test_every_proof_verifies(self, record_list):
        tree = MerkleTree(record_list)
        for i, record in enumerate(record_list):
            assert MerkleTree.verify_proof(record, tree.proof(i), tree.root)

    @given(records, st.integers(min_value=0, max_value=11))
    def test_mutated_leaf_fails_proof(self, record_list, index):
        if not record_list:
            return
        index %= len(record_list)
        tree = MerkleTree(record_list)
        proof = tree.proof(index)
        forged = dict(record_list[index]) if isinstance(record_list[index], dict) else {}
        forged["__forged__"] = True
        assert not MerkleTree.verify_proof(forged, proof, tree.root)

    @given(records)
    def test_root_deterministic(self, record_list):
        assert MerkleTree(record_list).root == MerkleTree(record_list).root

    @given(records)
    def test_every_proof_verifies_with_leaf_count(self, record_list):
        # The leaf-count-bound check (the CVE-2012-2459 guard) must not
        # reject any honest proof at any index, odd or even leaf count.
        tree = MerkleTree(record_list)
        n = len(record_list)
        for i, record in enumerate(record_list):
            assert MerkleTree.verify_proof(
                record, tree.proof(i), tree.root, leaf_count=n
            )

    @given(records, st.integers(min_value=0, max_value=11))
    def test_wrong_length_proof_rejected(self, record_list, index):
        if len(record_list) < 2:
            return
        index %= len(record_list)
        tree = MerkleTree(record_list)
        proof = tree.proof(index)
        truncated = proof[:-1]
        assert not MerkleTree.verify_proof(
            record_list[index], truncated, tree.root, leaf_count=len(record_list)
        )

    def test_forged_duplicate_rejected(self):
        # CVE-2012-2459: duplicating the last leaf yields the same root,
        # so an unbound proof "proves" a 4th record in a 3-record block.
        # Binding the leaf count kills the forgery.
        a, b, c = {"r": "A"}, {"r": "B"}, {"r": "C"}
        t3 = MerkleTree([a, b, c])
        t4 = MerkleTree([a, b, c, c])
        assert t3.root == t4.root
        forged = t4.proof(3)
        assert MerkleTree.verify_proof(c, forged, t3.root)
        assert not MerkleTree.verify_proof(c, forged, t3.root, leaf_count=3)
        assert MerkleTree.verify_proof(c, t4.proof(3), t4.root, leaf_count=4)

    def test_round_trip_every_index_at_small_counts(self):
        for n in (1, 2, 3, 4, 5, 7, 8):
            leaves = [{"i": i} for i in range(n)]
            tree = MerkleTree(leaves)
            for i in range(n):
                proof = tree.proof(i)
                assert len(proof) == MerkleTree.expected_proof_length(n)
                assert MerkleTree.verify_proof(
                    leaves[i], proof, tree.root, leaf_count=n
                )

    @given(records)
    def test_proof_length_logarithmic(self, record_list):
        tree = MerkleTree(record_list)
        n = max(1, len(record_list))
        bound = max(1, n.bit_length())
        for i in range(len(record_list)):
            assert len(tree.proof(i)) <= bound


class TestChainProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(records, min_size=1, max_size=6))
    def test_append_then_validate_always_clean(self, blocks):
        chain = Blockchain()
        for i, batch in enumerate(blocks):
            chain.append("agg1", float(i), batch)
        chain.validate()
        assert audit_chain(chain).clean

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(records, min_size=2, max_size=6),
        st.data(),
    )
    def test_any_record_mutation_detected(self, blocks, data):
        store = BlockStore()
        chain = Blockchain(store)
        for i, batch in enumerate(blocks):
            chain.append("agg1", float(i), batch)
        # Pick any block and mutate its record list.
        height = data.draw(st.integers(min_value=0, max_value=chain.height - 1))
        victim = store.get(height)
        forged_records = list(victim.records) + [{"__forged__": True}]
        store.tamper(
            height, Block(victim.header, tuple(forged_records), victim.block_hash)
        )
        report = audit_chain(chain)
        assert not report.clean
        assert height in report.invalid_blocks

    @settings(max_examples=20, deadline=None)
    @given(st.lists(records, min_size=2, max_size=5), st.data())
    def test_rehashed_mutation_breaks_downstream_link(self, blocks, data):
        store = BlockStore()
        chain = Blockchain(store)
        for i, batch in enumerate(blocks):
            chain.append("agg1", float(i), batch)
        height = data.draw(st.integers(min_value=0, max_value=chain.height - 2))
        victim = store.get(height)
        forged = Block.create(
            height=height,
            previous_hash=victim.header.previous_hash,
            aggregator=victim.header.aggregator,
            timestamp=victim.header.timestamp,
            records=list(victim.records) + [{"__forged__": True}],
        )
        store.tamper(height, forged)
        report = audit_chain(chain)
        assert not report.clean
        # The next block's previous-hash no longer matches.
        assert height + 1 in report.broken_links


def forge(block, kind):
    """``block`` as an attacker with storage access rewrites it."""
    header, records = block.header, list(block.records)
    if kind == "record":
        records = [*records[:-1], {**(records[-1] if records else {}), "__forged__": True}]
        return Block(header, tuple(records), block.block_hash)
    if kind == "drop":
        return Block(header, tuple(records[1:]), block.block_hash)
    if kind == "header":
        return Block(replace(header, timestamp=header.timestamp + 1.0), block.records,
                     block.block_hash)
    if kind == "hash":
        return Block(header, block.records, "f" * 64)
    # "rehash": a consistent block over forged records, whose hash the
    # next block's link (or the chain's tip) no longer matches.
    return Block.create(header.height, header.previous_hash, header.aggregator,
                        header.timestamp, [*records, {"__forged__": True}])


class TestOneWalk:
    """``validate()`` raises exactly when ``audit_chain`` is not clean:
    both take the one walk of :meth:`Blockchain.problems`."""

    tampering = st.sampled_from(["none", "record", "drop", "header", "hash", "rehash"])

    @staticmethod
    def raises(chain):
        try:
            chain.validate()
        except BlockValidationError:
            return True
        return False

    @settings(max_examples=40, deadline=None)
    @given(st.lists(records, min_size=1, max_size=5), tampering, st.data())
    def test_in_memory_chain(self, blocks, kind, data):
        store = BlockStore()
        chain = Blockchain(store)
        for i, batch in enumerate(blocks):
            chain.append("agg1", float(i), batch)
        height = data.draw(st.integers(min_value=0, max_value=chain.height - 1))
        if kind != "none":
            store.tamper(height, forge(store.get(height), kind))
        report = audit_chain(chain)
        assert self.raises(chain) == (not report.clean)
        # In memory the chain keeps its own tip, so every rewrite shows;
        # only dropping a record from an empty block changes nothing.
        assert report.clean == (kind == "none" or (kind == "drop" and not blocks[height]))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(records, min_size=1, max_size=5), tampering, st.data())
    def test_reopened_jsonl_archive(self, blocks, kind, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "chain.jsonl"
            chain = Blockchain(BlockStore(path))
            for i, batch in enumerate(blocks):
                chain.append("agg1", float(i), batch)
            height = data.draw(st.integers(min_value=0, max_value=chain.height - 1))
            if kind != "none":
                lines = path.read_bytes().splitlines(keepends=True)
                forged = forge(chain.get(height), kind)
                lines[height] = forged.to_bytes() + b"\n"
                path.write_bytes(b"".join(lines))
            reopened = Blockchain(BlockStore(path))
            report = audit_chain(reopened)
            assert self.raises(reopened) == (not report.clean)
            # A reopened archive takes its tip from its newest line, so a
            # consistent rewrite of that block is the one that passes.
            unseen = (kind == "rehash" and height == chain.height - 1) or (
                kind == "drop" and not blocks[height]
            )
            assert report.clean == (kind == "none" or unseen)


def decode_and_encode(line):
    """The reference read of an archive line: decode it whole, then
    encode its records again into the block's leaves."""
    data = json.loads(line)
    header = BlockHeader(**data["header"])
    return Block(header, data["records"], data["block_hash"]), data["records"]


class TestStoredBytes:
    """A block keeps the bytes it hashed, and every path a block takes
    gives the same records and the same hash back."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(json_records, min_size=1, max_size=4))
    def test_round_trip_keeps_records_and_hash(self, blocks):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "chain.jsonl"
            chain = Blockchain(BlockStore(path))
            created = [chain.append("agg1", float(i), batch) for i, batch in enumerate(blocks)]
            lines = path.read_bytes().splitlines()
            reopened = Blockchain(BlockStore(path))
            for batch, block, line in zip(blocks, created, lines):
                assert list(block.records) == batch
                assert line == canonical_bytes(block.to_dict())
                for copy in (
                    Block.from_line(block.to_bytes())[0],
                    Block.from_line(line)[0],
                    reopened.get(block.header.height),
                ):
                    assert copy.leaves == block.leaves
                    assert copy.compute_hash() == block.block_hash
                    assert list(copy.records) == batch
            assert reopened.tip_hash == chain.tip_hash
            reopened.validate()

    @settings(max_examples=60, deadline=None)
    @given(json_records, st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8))
    def test_line_read_matches_decode_and_encode(self, batch, timestamp, aggregator):
        line = Block.create(3, "a" * 64, aggregator, timestamp, batch).to_bytes()
        block, records = Block.from_line(line)
        expected, expected_records = decode_and_encode(line)
        assert block.header == expected.header
        assert block.block_hash == expected.block_hash
        assert block.leaves == expected.leaves
        assert records == expected_records

    @settings(max_examples=40, deadline=None)
    @given(json_records.filter(bool), st.data())
    def test_forged_record_or_changed_byte_is_caught(self, batch, data):
        store = BlockStore()
        chain = Blockchain(store)
        victim = chain.append("agg1", 0.0, batch)
        index = data.draw(st.integers(min_value=0, max_value=len(batch) - 1))
        forged = [*batch[:index], {**batch[index], "__forged__": True}, *batch[index + 1:]]
        leaf = victim.leaves[index]
        at = data.draw(st.integers(min_value=0, max_value=len(leaf) - 1))
        changed = list(victim.leaves)
        changed[index] = leaf[:at] + bytes([leaf[at] ^ 1]) + leaf[at + 1:]
        for body in (forged, changed):
            store.tamper(0, Block(victim.header, body, victim.block_hash))
            assert audit_chain(chain).invalid_blocks == (0,)
            with pytest.raises(BlockValidationError):
                chain.validate()
