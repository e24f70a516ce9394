"""Tests for tariffs, invoices and the billing engine."""

import pytest

from repro.billing import BillingEngine, FlatTariff, Invoice, InvoiceLine, TimeOfUseTariff
from repro.chain import Blockchain
from repro.errors import BillingError
from repro.ids import DeviceId


def record(device_id, seq, energy=1.0, at=1.0, roaming=False):
    return {
        "device": device_id.name,
        "device_uid": device_id.uid,
        "sequence": seq,
        "measured_at": at,
        "energy_mwh": energy,
        "roaming": roaming,
    }


class TestTariffs:
    def test_flat_tariff_constant(self):
        tariff = FlatTariff(2.5)
        assert tariff.price_per_mwh(0.0) == tariff.price_per_mwh(1e6) == 2.5

    def test_negative_rate_rejected(self):
        with pytest.raises(BillingError):
            FlatTariff(-1.0)

    def test_time_of_use_peak_window(self):
        tariff = TimeOfUseTariff(
            period_s=24.0, peak_start_s=8.0, peak_end_s=20.0,
            peak_rate=4.0, offpeak_rate=1.0,
        )
        assert tariff.price_per_mwh(10.0) == 4.0
        assert tariff.price_per_mwh(22.0) == 1.0
        assert tariff.price_per_mwh(34.0) == 4.0  # next period

    def test_time_of_use_boundaries(self):
        tariff = TimeOfUseTariff(period_s=24.0, peak_start_s=8.0, peak_end_s=20.0)
        assert tariff.price_per_mwh(8.0) == tariff.peak_rate
        assert tariff.price_per_mwh(20.0) == tariff.offpeak_rate

    def test_invalid_window_rejected(self):
        with pytest.raises(BillingError):
            TimeOfUseTariff(period_s=10.0, peak_start_s=5.0, peak_end_s=4.0)
        with pytest.raises(BillingError):
            TimeOfUseTariff(period_s=10.0, peak_start_s=0.0, peak_end_s=11.0)


class TestInvoice:
    def test_totals_split_home_and_roaming(self):
        invoice = Invoice("d1", (0.0, 10.0))
        invoice.add_line(InvoiceLine(1.0, 2.0, 1.0, roaming=False))
        invoice.add_line(InvoiceLine(2.0, 3.0, 1.0, roaming=True))
        assert invoice.home_energy_mwh == 2.0
        assert invoice.roaming_energy_mwh == 3.0
        assert invoice.total_energy_mwh == 5.0
        assert invoice.total_cost == pytest.approx(5.0)

    def test_out_of_period_rejected(self):
        invoice = Invoice("d1", (0.0, 10.0))
        with pytest.raises(BillingError):
            invoice.add_line(InvoiceLine(11.0, 1.0, 1.0, roaming=False))
        # Periods are half-open, [start, end): ``end`` is the next period's.
        with pytest.raises(BillingError, match=r"outside period \[0.0, 10.0\)"):
            invoice.add_line(InvoiceLine(10.0, 1.0, 1.0, roaming=False))

    def test_render_mentions_device_and_totals(self):
        invoice = Invoice("escooter", (0.0, 10.0))
        invoice.add_line(InvoiceLine(1.0, 2.0, 1.5, roaming=False))
        text = invoice.render()
        assert "escooter" in text
        assert "2.0" in text


class TestBillingEngine:
    def make_chain(self):
        chain = Blockchain()
        d1, d2 = DeviceId("d1"), DeviceId("d2")
        chain.append(
            "agg1",
            1.0,
            [
                record(d1, 0, 1.0, at=1.0),
                record(d1, 1, 2.0, at=2.0, roaming=True),
                record(d2, 0, 5.0, at=1.5),
            ],
        )
        chain.append("agg1", 2.0, [record(d1, 2, 3.0, at=3.0)])
        return chain, d1, d2

    def test_invoice_totals(self):
        chain, d1, _ = self.make_chain()
        engine = BillingEngine(chain, FlatTariff(1.0))
        invoice = engine.invoice(d1, (0.0, 10.0))
        assert invoice.home_energy_mwh == pytest.approx(4.0)
        assert invoice.roaming_energy_mwh == pytest.approx(2.0)
        assert invoice.total_cost == pytest.approx(6.0)

    def test_period_filtering(self):
        chain, d1, _ = self.make_chain()
        engine = BillingEngine(chain, FlatTariff(1.0))
        invoice = engine.invoice(d1, (0.0, 2.5))
        assert invoice.total_energy_mwh == pytest.approx(3.0)

    def test_duplicate_sequences_deduplicated(self):
        chain = Blockchain()
        d1 = DeviceId("d1")
        # A QoS-1 retransmission raced the Ack: same sequence twice.
        chain.append("agg1", 1.0, [record(d1, 0, 1.0), record(d1, 0, 1.0)])
        engine = BillingEngine(chain, FlatTariff(1.0))
        invoice = engine.invoice(d1, (0.0, 10.0))
        assert invoice.total_energy_mwh == pytest.approx(1.0)

    def test_per_device_tariff_override(self):
        chain, d1, d2 = self.make_chain()
        engine = BillingEngine(chain, FlatTariff(1.0))
        engine.set_device_tariff(d2, FlatTariff(10.0))
        assert engine.invoice(d2, (0.0, 10.0)).total_cost == pytest.approx(50.0)
        assert engine.invoice(d1, (0.0, 10.0)).total_cost == pytest.approx(6.0)

    def test_include_lines_false(self):
        chain, d1, _ = self.make_chain()
        engine = BillingEngine(chain, FlatTariff(1.0))
        invoice = engine.invoice(d1, (0.0, 10.0), include_lines=False)
        assert invoice.lines == []
        assert invoice.total_energy_mwh == pytest.approx(6.0)

    def test_empty_period_rejected(self):
        chain, d1, _ = self.make_chain()
        engine = BillingEngine(chain, FlatTariff(1.0))
        with pytest.raises(BillingError):
            engine.invoice(d1, (5.0, 1.0))
        for period, message in (((10.0, 5.0), "inverted"), ((5.0, 5.0), "empty")):
            with pytest.raises(BillingError, match=message):
                engine.invoice(d1, period)

    def test_unknown_device_gets_empty_invoice(self):
        chain, _, _ = self.make_chain()
        engine = BillingEngine(chain, FlatTariff(1.0))
        invoice = engine.invoice(DeviceId("ghost"), (0.0, 10.0))
        assert invoice.total_energy_mwh == 0.0
