"""Inter-aggregator settlement for roaming consumption.

When a device consumes in a host network, the *electricity* flowed from
the host's feeder while the *bill* lands at the device's home network.
The operators must settle: the home network owes the host for the energy
physically delivered there.  Every input needed is already in the
ledger — roaming records carry both ``network`` (the billing home) and
``host`` (where the electrons came from).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.billing.invoice import check_period
from repro.billing.tariff import Tariff
from repro.chain.ledger import Blockchain
from repro.errors import BillingError


@dataclass(frozen=True)
class SettlementEntry:
    """Net position between one (home, host) pair."""

    home: str
    host: str
    energy_mwh: float
    amount: float


@dataclass
class SettlementMatrix:
    """All pairwise roaming positions for one period."""

    period: tuple[float, float]
    entries: list[SettlementEntry] = field(default_factory=list)

    def owed_by(self, home: str) -> float:
        """Total a home network owes hosts for its devices' roaming."""
        return sum(e.amount for e in self.entries if e.home == home)

    def owed_to(self, host: str) -> float:
        """Total a host network is owed for hosting foreign devices."""
        return sum(e.amount for e in self.entries if e.host == host)

    def net_position(self, operator: str) -> float:
        """Receivable minus payable for one operator (positive = creditor)."""
        return self.owed_to(operator) - self.owed_by(operator)

    def render(self) -> str:
        """Human-readable settlement statement."""
        if not self.entries:
            return "(no roaming consumption in the period)"
        lines = []
        for entry in sorted(self.entries, key=lambda e: (e.home, e.host)):
            lines.append(
                f"{entry.home} owes {entry.host}: {entry.amount:.8f} "
                f"for {entry.energy_mwh:.6f} mWh delivered"
            )
        return "\n".join(lines)


class SettlementEngine:
    """Computes the roaming settlement matrix from the ledger.

    Args:
        chain: The common blockchain.
        wholesale_tariff: Price the host charges the home operator per
            mWh delivered (normally below the retail tariff billed to
            the device — the spread is the home operator's margin).
    """

    def __init__(self, chain: Blockchain, wholesale_tariff: Tariff) -> None:
        self._chain = chain
        self._tariff = wholesale_tariff

    def settle(self, period: tuple[float, float]) -> SettlementMatrix:
        """Aggregate every roaming record in ``period`` into positions.

        The period is half-open, ``[start, end)``: a record measured at
        exactly ``end`` belongs to the *next* period, so adjacent
        settlement runs never bill the same record twice.
        """
        start, end = check_period(period, "settlement")
        totals: dict[tuple[str, str], tuple[float, float]] = {}
        for block in self._chain:
            for record in block.records:
                if not record.get("roaming"):
                    continue
                measured_at = float(record["measured_at"])
                if not start <= measured_at < end:
                    continue
                home = str(record.get("network"))
                host = str(record.get("host"))
                if home == host:
                    raise BillingError(
                        f"roaming record at {measured_at} has home == host ({home})"
                    )
                energy = float(record["energy_mwh"])
                amount = energy * self._tariff.price_per_mwh(measured_at)
                prev_energy, prev_amount = totals.get((home, host), (0.0, 0.0))
                totals[(home, host)] = (prev_energy + energy, prev_amount + amount)
        matrix = SettlementMatrix(period=period)
        for (home, host), (energy, amount) in totals.items():
            matrix.entries.append(
                SettlementEntry(home=home, host=host, energy_mwh=energy, amount=amount)
            )
        return matrix
