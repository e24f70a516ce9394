"""Invoice structures.

An invoice is the billing engine's output for one device over one
period: individual lines (optionally) plus totals that separate home
consumption from roaming consumption reported via host aggregators —
the paper's "consolidated billing".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BillingError


def check_period(period: tuple[float, float], kind: str) -> tuple[float, float]:
    """``(start, end)`` of a half-open ``[start, end)`` ``kind`` period.

    An inverted period and an empty one raise different
    :class:`BillingError` messages, so a caller's swapped bounds are not
    reported as a benign empty window.
    """
    start, end = period
    if end < start:
        raise BillingError(f"inverted {kind} period [{start}, {end})")
    if end == start:
        raise BillingError(f"empty {kind} period [{start}, {end})")
    return start, end


@dataclass(frozen=True)
class InvoiceLine:
    """One priced ledger record."""

    measured_at: float
    energy_mwh: float
    price_per_mwh: float
    roaming: bool

    @property
    def cost(self) -> float:
        """Line cost in currency units."""
        return self.energy_mwh * self.price_per_mwh


@dataclass
class Invoice:
    """Per-device billing summary.

    Attributes:
        device: Billed device name.
        period: (start, end) of the billing period.
        lines: Priced records (may be omitted for summary-only bills).
        home_energy_mwh / roaming_energy_mwh: Split totals.
        total_cost: Sum over all lines.
    """

    device: str
    period: tuple[float, float]
    lines: list[InvoiceLine] = field(default_factory=list)
    home_energy_mwh: float = 0.0
    roaming_energy_mwh: float = 0.0
    total_cost: float = 0.0

    @property
    def total_energy_mwh(self) -> float:
        """Home plus roaming energy."""
        return self.home_energy_mwh + self.roaming_energy_mwh

    def add_line(self, line: InvoiceLine) -> None:
        """Append one record and update the totals."""
        start, end = self.period
        if not start <= line.measured_at < end:
            raise BillingError(
                f"record at {line.measured_at} outside period [{start}, {end})"
            )
        self.lines.append(line)
        if line.roaming:
            self.roaming_energy_mwh += line.energy_mwh
        else:
            self.home_energy_mwh += line.energy_mwh
        self.total_cost += line.cost

    def render(self) -> str:
        """Human-readable text form."""
        start, end = self.period
        header = (
            f"Invoice for {self.device}  period [{start:.1f}s, {end:.1f}s]\n"
            f"  home energy:    {self.home_energy_mwh:.6f} mWh\n"
            f"  roaming energy: {self.roaming_energy_mwh:.6f} mWh\n"
            f"  total cost:     {self.total_cost:.8f}\n"
            f"  lines:          {len(self.lines)}"
        )
        return header
