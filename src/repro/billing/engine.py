"""Consolidated billing over the ledger.

The home aggregator bills each of its member devices from the common
blockchain: every stored record of the device — whether it arrived
directly or was forwarded by a host aggregator while roaming — is priced
under the device's tariff.  Roaming records are recognised by the
``roaming`` flag the aggregator stamps when a record arrives via the
backhaul.
"""

from __future__ import annotations

from typing import Any

from repro.billing.invoice import Invoice, InvoiceLine, check_period
from repro.billing.tariff import Tariff
from repro.chain.ledger import Blockchain
from repro.ids import DeviceId


class BillingEngine:
    """Prices ledger records into invoices.

    Args:
        chain: The ledger to bill from.
        tariff: Default tariff applied to every device.
    """

    def __init__(self, chain: Blockchain, tariff: Tariff) -> None:
        self._chain = chain
        self._tariff = tariff
        self._device_tariffs: dict[str, Tariff] = {}

    def set_device_tariff(self, device_id: DeviceId, tariff: Tariff) -> None:
        """Override the tariff for one device."""
        self._device_tariffs[device_id.uid] = tariff

    def _tariff_for(self, device_uid: str) -> Tariff:
        return self._device_tariffs.get(device_uid, self._tariff)

    def invoice(
        self,
        device_id: DeviceId,
        period: tuple[float, float],
        include_lines: bool = True,
    ) -> Invoice:
        """Build the invoice for one device over ``period``.

        Records are deduplicated by sequence number — the ledger may
        legitimately hold a record twice when a QoS-1 retransmission
        raced an Ack, and double-billing would be a correctness bug.

        The period is half-open, ``[start, end)``, so a record at
        exactly ``end`` is billed by the next period's invoice, never
        both.
        """
        start, end = check_period(period, "billing")
        tariff = self._tariff_for(device_id.uid)
        invoice = Invoice(device=device_id.name, period=period)
        seen_sequences: set[int] = set()
        for record in self._chain.records_for_device(device_id.uid):
            measured_at = float(record["measured_at"])
            if not start <= measured_at < end:
                continue
            sequence = int(record["sequence"])
            if sequence in seen_sequences:
                continue
            seen_sequences.add(sequence)
            line = InvoiceLine(
                measured_at=measured_at,
                energy_mwh=float(record["energy_mwh"]),
                price_per_mwh=tariff.price_per_mwh(measured_at),
                roaming=bool(record.get("roaming", False)),
            )
            invoice.add_line(line)
        if not include_lines:
            invoice.lines = []
        return invoice

    def settlement_summary(self, period: tuple[float, float]) -> dict[str, Any]:
        """Totals per device name over a half-open period ``[start, end)``."""
        start, end = check_period(period, "billing")
        totals: dict[str, float] = {}
        for block in self._chain:
            for record in block.records:
                measured_at = float(record["measured_at"])
                if start <= measured_at < end:
                    name = record["device"]
                    totals[name] = totals.get(name, 0.0) + float(record["energy_mwh"])
        return {"period": [start, end], "energy_mwh_by_device": totals}
