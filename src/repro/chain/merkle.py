"""Merkle tree over a block's measurement records.

A block created by an aggregator batches every validated report of one
interval.  Committing to a Merkle root (rather than a flat hash of the
list) lets a device or auditor verify inclusion of a single record with
an O(log n) proof — useful for billing disputes.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Any

from repro.chain.hashing import canonical_bytes, sha256_hex
from repro.errors import ChainError

_EMPTY_ROOT = sha256_hex(b"merkle-empty")


def _leaf_hash(record: Any) -> str:
    # A record is a JSON value or its canonical bytes.  hashlib is
    # called directly: one leaf per committed record makes this the
    # ledger's hottest function, and the sha256_hex wrapper frame
    # measurably showed in fleet profiles.  Identical digests.
    if not isinstance(record, bytes):
        record = canonical_bytes(record)
    return sha256(b"\x00" + record).hexdigest()


def _node_hash(left: str, right: str) -> str:
    return sha256(b"\x01" + left.encode("ascii") + right.encode("ascii")).hexdigest()


def merkle_root(records: list[Any]) -> str:
    """Merkle root of a record list (deterministic, duplicate-last pairing).

    Each record is a JSON value or its canonical bytes; both give the
    same leaf.
    """
    return MerkleTree(records).root


class MerkleTree:
    """Merkle tree with inclusion proofs.

    Leaf and interior hashes use distinct domain-separation prefixes so a
    leaf can never be confused with a node (second-preimage hardening).
    """

    def __init__(self, records: list[Any]) -> None:
        self._levels: list[list[str]] = []
        leaves = [_leaf_hash(r) for r in records]
        if leaves:
            self._levels.append(leaves)
            current = leaves
            while len(current) > 1:
                nxt = []
                for i in range(0, len(current), 2):
                    left = current[i]
                    right = current[i + 1] if i + 1 < len(current) else current[i]
                    nxt.append(_node_hash(left, right))
                self._levels.append(nxt)
                current = nxt

    @property
    def root(self) -> str:
        """The tree's root hash (a fixed sentinel for an empty tree)."""
        if not self._levels:
            return _EMPTY_ROOT
        return self._levels[-1][0]

    @property
    def leaf_count(self) -> int:
        """Number of records committed."""
        if not self._levels:
            return 0
        return len(self._levels[0])

    def proof(self, index: int) -> list[tuple[str, str]]:
        """Inclusion proof for leaf ``index`` as (side, hash) pairs.

        ``side`` is ``"L"`` when the sibling goes on the left of the
        running hash, ``"R"`` when on the right.
        """
        if not self._levels or not 0 <= index < len(self._levels[0]):
            raise ChainError(f"leaf index {index} out of range")
        path: list[tuple[str, str]] = []
        i = index
        for level in self._levels[:-1]:
            sibling_index = i ^ 1
            sibling = level[sibling_index] if sibling_index < len(level) else level[i]
            side = "L" if sibling_index < i else "R"
            path.append((side, sibling))
            i //= 2
        return path

    @staticmethod
    def expected_proof_length(leaf_count: int) -> int:
        """Proof length (tree depth) for a tree of ``leaf_count`` leaves."""
        if leaf_count < 1:
            raise ChainError(f"leaf count must be >= 1, got {leaf_count}")
        depth = 0
        width = leaf_count
        while width > 1:
            width = (width + 1) // 2
            depth += 1
        return depth

    @staticmethod
    def verify_proof(
        record: Any,
        proof: list[tuple[str, str]],
        root: str,
        leaf_count: int | None = None,
    ) -> bool:
        """Check that ``record`` (a JSON value or its canonical bytes) is
        committed under ``root`` by ``proof``.

        With duplicate-last-leaf pairing, ``[A, B, C]`` and
        ``[A, B, C, C]`` share a root (the CVE-2012-2459 shape), so a
        proof alone cannot distinguish a committed record from a
        fabricated duplicate of the last one.  Passing ``leaf_count``
        (which the block header commits to as ``record_count``) closes
        that hole: the proof length must match the tree depth, and the
        leaf index the proof's sides encode must fall inside the tree.
        """
        if leaf_count is not None:
            if leaf_count < 1:
                return False
            if len(proof) != MerkleTree.expected_proof_length(leaf_count):
                return False
            # A left sibling at level k means our leaf took the right
            # slot of that pair, i.e. bit k of the leaf index is 1.
            index = 0
            for position, (side, _sibling) in enumerate(proof):
                if side == "L":
                    index |= 1 << position
            if index >= leaf_count:
                return False
        running = _leaf_hash(record)
        for side, sibling in proof:
            if side == "L":
                running = _node_hash(sibling, running)
            elif side == "R":
                running = _node_hash(running, sibling)
            else:
                raise ChainError(f"proof side must be 'L' or 'R', got {side!r}")
        return running == root
