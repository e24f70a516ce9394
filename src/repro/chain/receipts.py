"""Inclusion receipts: O(log n) proofs that a record is in the ledger.

A device (or its owner, disputing a bill) should not have to trust the
aggregator's word that a consumption record was stored: the block's
Merkle root commits to every record, so the aggregator can issue a
*receipt* — the record, its inclusion proof, and the block coordinates —
that anyone holding the block headers can verify offline.

Receipts carry the block's ``leaf_count`` (its committed record count)
because with duplicate-last-leaf pairing a bare proof cannot tell a real
record from a forged duplicate of the last one (CVE-2012-2459); binding
the count into verification closes that hole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.chain.ledger import Blockchain
from repro.chain.merkle import MerkleTree
from repro.chain.sync import HeaderRecord, hex_digest
from repro.errors import ChainError, PrunedBlockError


@dataclass(frozen=True)
class InclusionReceipt:
    """Proof that one record is committed in one block.

    Attributes:
        block_height: Height of the containing block.
        block_hash: That block's hash (binds the receipt to the chain).
        merkle_root: The block's record commitment.
        leaf_count: Records committed in the block (the header's
            ``record_count``); bound into proof verification.
        record: The committed record itself.
        proof: Merkle inclusion path (side, sibling-hash pairs).
    """

    block_height: int
    block_hash: str
    merkle_root: str
    leaf_count: int
    record: dict[str, Any]
    proof: tuple[tuple[str, str], ...]

    def verify(self, chain: Blockchain | None = None) -> bool:
        """Check the receipt.

        Without ``chain``: verifies the Merkle proof against the
        receipt's own root and leaf count (enough when the verifier
        already trusts the header).  With ``chain``: additionally checks
        the coordinates against the live ledger, so a receipt
        referencing a forged or re-written block fails.  Blocks whose
        bodies were pruned are checked against the retained header.
        """
        if chain is not None:
            if not 0 <= self.block_height < chain.height:
                return False
            try:
                # Retained blocks are checked against the *stored* bytes,
                # not the chain's header list: that list is derived state
                # and must not mask a rewritten store.
                block = chain.get(self.block_height)
                held = HeaderRecord(block.header, block.block_hash)
            except PrunedBlockError:
                held = chain.header_at(self.block_height)
            if not self.matches(held):
                return False
        return MerkleTree.verify_proof(
            self.record, list(self.proof), self.merkle_root, leaf_count=self.leaf_count
        )

    def matches(self, held: HeaderRecord) -> bool:
        """Whether ``held`` is this receipt's block: the same block hash,
        Merkle root and leaf count."""
        return (
            held.block_hash == self.block_hash
            and held.header.merkle_root == self.merkle_root
            and held.header.record_count == self.leaf_count
        )


def receipt_to_dict(receipt: InclusionReceipt) -> dict[str, Any]:
    """JSON form for transport inside protocol messages."""
    return {
        "block_height": receipt.block_height,
        "block_hash": receipt.block_hash,
        "merkle_root": receipt.merkle_root,
        "leaf_count": receipt.leaf_count,
        "record": dict(receipt.record),
        "proof": [[side, sibling] for side, sibling in receipt.proof],
    }


def receipt_from_dict(data: dict[str, Any]) -> InclusionReceipt:
    """Rebuild a receipt from its transported form.

    The payload comes from the aggregator, so it is checked before any
    hashing: both hashes must be 64 lowercase hex characters and every
    proof entry a ``[side, sibling]`` pair with side ``"L"`` or ``"R"``
    and a 64-hex sibling.  Anything else raises
    :class:`~repro.errors.ChainError`.
    """
    try:
        return InclusionReceipt(
            block_height=int(data["block_height"]),
            block_hash=hex_digest(data["block_hash"], "block_hash"),
            merkle_root=hex_digest(data["merkle_root"], "merkle_root"),
            leaf_count=int(data["leaf_count"]),
            record=dict(data["record"]),
            proof=tuple(_proof_step(step) for step in data["proof"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ChainError(f"malformed receipt payload: {exc}") from exc


def _proof_step(step: Any) -> tuple[str, str]:
    if not isinstance(step, (list, tuple)) or len(step) != 2:
        raise ValueError(f"proof entry must be a [side, sibling] pair, got {step!r}")
    side, sibling = step
    if side not in ("L", "R"):
        raise ValueError(f"proof side must be 'L' or 'R', got {side!r}")
    return side, hex_digest(sibling, "proof sibling")


def issue_receipt(chain: Blockchain, block_height: int, record_index: int) -> InclusionReceipt:
    """Build the receipt for one record position.

    The Merkle tree is built from the block's stored leaves; only the
    receipt's own record is decoded.
    """
    try:
        block = chain.get(block_height)
    except PrunedBlockError as exc:
        raise ChainError(
            f"cannot issue a receipt for pruned block {block_height}: "
            "the record bodies are gone (existing receipts still verify "
            "against the retained headers)"
        ) from exc
    leaves = block.leaves
    if not 0 <= record_index < len(leaves):
        raise ChainError(
            f"block {block_height} has no record index {record_index}"
        )
    return InclusionReceipt(
        block_height=block_height,
        block_hash=block.block_hash,
        merkle_root=block.header.merkle_root,
        leaf_count=len(leaves),
        record=block.records_at((record_index,))[0],
        proof=tuple(MerkleTree(leaves).proof(record_index)),
    )


def find_and_issue(
    chain: Blockchain, device_uid: str, sequence: int
) -> InclusionReceipt:
    """Locate a device's record by sequence and issue its receipt.

    The chain's per-device index finds it in O(records of one device).
    """
    found = chain.locate_record(device_uid, sequence)
    if found is None:
        raise ChainError(
            f"no record for device {device_uid} sequence {sequence} "
            "in the retained chain"
        )
    return issue_receipt(chain, *found)
