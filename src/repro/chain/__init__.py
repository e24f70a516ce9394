"""Blockchain substrate.

The paper encapsulates validated consumption data in a *permissioned
blockchain without consensus*: "the hash of a new block is created from
the reported data and the hash of the previous block... Blockchain is
only used as a hashed data chain without any consensus" (§II-A).

Components:

* :mod:`repro.chain.hashing` — canonical serialisation + SHA-256,
* :mod:`repro.chain.merkle` — Merkle tree over a block's records,
* :mod:`repro.chain.block` — block header/body structures,
* :mod:`repro.chain.ledger` — the append-only validated chain,
* :mod:`repro.chain.store` — block storage backends,
* :mod:`repro.chain.audit` — tamper detection over stored chains,
* :mod:`repro.chain.sync` — lightweight-client header sync and
  checkpoints (Danzi et al.),
* :mod:`repro.chain.consensus_net` — optional proof-of-authority rounds
  over the mesh (the paper's future-work "consensus among devices"),
* :mod:`repro.chain.pbft` — the Byzantine-tolerant two-phase variant.
"""

from repro.chain.audit import AuditReport, audit_chain
from repro.chain.block import Block, BlockHeader
from repro.chain.consensus_net import NetworkedPoaConsensus, NetworkedValidator
from repro.chain.hashing import canonical_bytes, sha256_hex
from repro.chain.ledger import Blockchain
from repro.chain.merkle import MerkleTree, merkle_root
from repro.chain.pbft import PbftCluster, PbftReplica
from repro.chain.receipts import (
    InclusionReceipt,
    find_and_issue,
    issue_receipt,
    receipt_from_dict,
    receipt_to_dict,
)
from repro.chain.store import BlockStore, InMemoryBlockStore, JsonlBlockStore
from repro.chain.sync import (
    Checkpoint,
    HeaderChain,
    HeaderRecord,
    LedgerSyncClient,
    SyncPolicy,
    SyncStats,
)

__all__ = [
    "AuditReport",
    "audit_chain",
    "Block",
    "BlockHeader",
    "Checkpoint",
    "HeaderChain",
    "HeaderRecord",
    "LedgerSyncClient",
    "SyncPolicy",
    "SyncStats",
    "receipt_from_dict",
    "receipt_to_dict",
    "NetworkedPoaConsensus",
    "NetworkedValidator",
    "PbftCluster",
    "PbftReplica",
    "InclusionReceipt",
    "find_and_issue",
    "issue_receipt",
    "canonical_bytes",
    "sha256_hex",
    "Blockchain",
    "MerkleTree",
    "merkle_root",
    "BlockStore",
    "InMemoryBlockStore",
    "JsonlBlockStore",
]
