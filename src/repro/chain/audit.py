"""Tamper detection over stored chains.

The claim under test (experiment E6): any post-hoc mutation of stored
consumption data is detectable.  The auditor re-derives every hash from
the stored bytes and reports the first height at which the chain breaks,
plus every individually inconsistent block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.ledger import Blockchain


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a full-chain audit.

    Attributes:
        height: Chain length at audit time.
        clean: True when every check passed.
        broken_links: Heights whose header is out of place or whose
            previous-hash link does not match; ``height`` itself when the
            newest stored block is not the chain's tip.
        invalid_blocks: Heights whose internal structure is inconsistent
            (Merkle root, record count, or stored hash).
        first_bad_height: Earliest problem, or None when clean.
    """

    height: int
    broken_links: tuple[int, ...] = field(default=())
    invalid_blocks: tuple[int, ...] = field(default=())

    @property
    def clean(self) -> bool:
        """True when no problem was found."""
        return not self.broken_links and not self.invalid_blocks

    @property
    def first_bad_height(self) -> int | None:
        """Earliest height with any problem, or None."""
        candidates = list(self.broken_links) + list(self.invalid_blocks)
        if not candidates:
            return None
        return min(candidates)


def audit_chain(chain: Blockchain) -> AuditReport:
    """Re-verify every block and link of ``chain``.

    The audit takes the same single walk as :meth:`Blockchain.validate`
    (:meth:`Blockchain.problems`), but where ``validate`` raises at the
    first problem, the audit reports everything it finds — an auditor
    wants the full damage picture, not the first symptom.
    """
    found: dict[str, list[int]] = {"link": [], "block": []}
    for kind, height, _ in chain.problems():
        found[kind].append(height)
    return AuditReport(
        height=chain.height,
        broken_links=tuple(found["link"]),
        invalid_blocks=tuple(found["block"]),
    )
