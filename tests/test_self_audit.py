"""Tests for the device-side self-audit."""

import pytest

from repro.billing import BillingEngine, FlatTariff
from repro.chain import Block
from repro.device.app import AuditVerdict, SelfAuditor
from repro.errors import BillingError
from repro.ids import DeviceId
from repro.runtime import build
from repro.workloads.scenarios import paper_testbed_spec


@pytest.fixture()
def world():
    scenario = build(paper_testbed_spec(seed=95))
    scenario.run_until(20.0)
    return scenario


def invoice_for(scenario, name, period=(0.0, 20.0)):
    engine = BillingEngine(scenario.chain, FlatTariff(1.0))
    return engine.invoice(DeviceId(name), period)


class TestSelfAudit:
    def test_honest_world_is_consistent(self, world):
        device = world.device("device1")
        result = SelfAuditor(device).audit(invoice_for(world, "device1"))
        assert result.verdict is AuditVerdict.CONSISTENT
        assert abs(result.relative_gap) < 0.03

    def test_under_billing_detected(self, world):
        # An operator "losing" the device's records under-bills it —
        # good for the customer's wallet, bad for grid accounting; the
        # audit surfaces it either way.
        device = world.device("device1")
        store = world.chain._store
        for height in range(world.chain.height):
            block = store.get(height)
            kept = [
                r for r in block.records if r.get("device_uid") != device.device_id.uid
            ]
            if len(kept) != len(block.records):
                store.tamper(height, Block(block.header, tuple(kept), block.block_hash))
        result = SelfAuditor(device).audit(invoice_for(world, "device1"))
        assert result.verdict is AuditVerdict.UNDER_BILLED

    def test_over_billing_detected(self, world):
        device = world.device("device1")
        store = world.chain._store
        block = store.get(2)
        inflated = [
            dict(r, energy_mwh=float(r.get("energy_mwh", 0.0)) * 50.0)
            if r.get("device_uid") == device.device_id.uid
            else r
            for r in block.records
        ]
        store.tamper(2, Block(block.header, tuple(inflated), block.block_hash))
        result = SelfAuditor(device).audit(invoice_for(world, "device1"))
        assert result.verdict is AuditVerdict.OVER_BILLED

    def test_receipt_spot_check_included(self, world):
        device = world.device("device1")
        device.request_receipt(10)
        device.request_receipt(11)
        world.run_until(21.0)
        result = SelfAuditor(device).audit(invoice_for(world, "device1", (0.0, 21.0)))
        assert result.receipts_checked == 2
        assert result.receipts_ok

    def test_wrong_device_invoice_rejected(self, world):
        device = world.device("device1")
        with pytest.raises(BillingError):
            SelfAuditor(device).audit(invoice_for(world, "device2"))

    def test_invalid_tolerance(self, world):
        with pytest.raises(BillingError):
            SelfAuditor(world.device("device1"), tolerance=0.0)
