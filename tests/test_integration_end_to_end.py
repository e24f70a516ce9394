"""End-to-end integration: full pipelines across every subsystem."""

import dataclasses

import pytest

from repro import BillingEngine, FlatTariff, audit_chain, build, paper_testbed_spec, scaled_spec
from repro.baselines import NaiveDeviceLog
from repro.chain import Block
from repro.chain.store import BlockStore
from repro.device.app import DemandPredictor, RemoteManagement
from repro.ids import DeviceId
from repro.runtime import ObsSpec, TransportSpec
from repro.workloads.mobility import MobilityTrace


class TestMeteringToBillingPipeline:
    @pytest.fixture(scope="class")
    def world(self):
        scenario = build(paper_testbed_spec(seed=21))
        scenario.run_until(30.0)
        return scenario

    def test_chain_energy_matches_device_meters(self, world):
        # Energy in the ledger equals what devices measured (to within
        # records still in flight at the end of the run).
        for name in ("device1", "device2"):
            device = world.device(name)
            ledger_mwh = world.chain.total_energy_mwh(device.device_id.uid)
            measured_mwh = device.meter.total_energy_mwh
            assert ledger_mwh == pytest.approx(measured_mwh, rel=0.02)

    def test_billing_engine_invoices_from_chain(self, world):
        engine = BillingEngine(world.chain, FlatTariff(1.0))
        invoice = engine.invoice(DeviceId("device1"), (0.0, 30.0))
        assert invoice.total_energy_mwh > 0
        assert invoice.total_cost == pytest.approx(invoice.total_energy_mwh)
        assert invoice.roaming_energy_mwh == 0.0  # never left home

    def test_device_side_bill_matches_aggregator_side(self, world):
        device = world.device("device1")
        engine = BillingEngine(world.chain, FlatTariff(1.0))
        invoice = engine.invoice(device.device_id, (0.0, 30.0))
        # The device's own meter total, priced flat, approximates the bill.
        own_cost = device.meter.total_energy_mwh * 1.0
        assert invoice.total_cost == pytest.approx(own_cost, rel=0.02)

    def test_audit_clean_after_run(self, world):
        assert audit_chain(world.chain).clean

    def test_remote_management_status(self, world):
        manager = RemoteManagement(world.device("device1"))
        status = manager.handle("status")
        assert status["device"] == "device1"
        assert status["phase"] == "reporting"
        assert status["reports_sent"] > 0
        assert manager.handle("ping")["pong"] is True

    def test_demand_prediction_on_ledger_series(self, world):
        records = world.chain.records_for_device(DeviceId("device1").uid)
        records.sort(key=lambda r: r["measured_at"])
        predictor = DemandPredictor()
        for record in records[:200]:
            predictor.observe(float(record["energy_mwh"]))
        prediction = predictor.predict()
        mean_energy = sum(float(r["energy_mwh"]) for r in records[:200]) / 200
        assert prediction == pytest.approx(mean_energy, rel=1.0)


class TestRoamingBilling:
    def test_consolidated_billing_across_networks(self):
        scenario = build(paper_testbed_spec(seed=31, enter_devices=False))
        scenario.schedule_mobility(
            "device1",
            MobilityTrace.single_move(
                home="agg1", destination="agg2",
                enter_home_at=0.0, leave_home_at=14.0, idle_s=5.0,
            ),
        )
        scenario.run_until(40.0)
        engine = BillingEngine(scenario.chain, FlatTariff(1.0))
        invoice = engine.invoice(DeviceId("device1"), (0.0, 40.0))
        # Both home and roaming consumption billed at the home network.
        assert invoice.home_energy_mwh > 0
        assert invoice.roaming_energy_mwh > 0
        device = scenario.device("device1")
        assert invoice.total_energy_mwh == pytest.approx(
            device.meter.total_energy_mwh, rel=0.03
        )


class TestTamperEndToEnd:
    def test_blockchain_detects_what_naive_log_misses(self):
        scenario = build(paper_testbed_spec(seed=41))
        scenario.run_until(15.0)
        chain = scenario.chain

        # Mirror the ledger into the naive baseline.
        naive = NaiveDeviceLog()
        for block in chain:
            for record in block.records:
                naive.append(record)

        # Attack both stores identically: zero out one record.
        store = chain._store
        assert isinstance(store, BlockStore)
        victim = store.get(2)
        forged_records = [dict(r) for r in victim.records]
        forged_records[0]["energy_mwh"] = 0.0
        store.tamper(2, Block(victim.header, tuple(forged_records), victim.block_hash))
        naive.tamper(0, energy_mwh=0.0)

        # The naive log claims everything is fine; the chain does not.
        assert naive.audit() is True
        report = audit_chain(chain)
        assert not report.clean
        assert report.first_bad_height == 2


class TestScaledWorld:
    def test_sixteen_devices_across_four_networks(self):
        scenario = build(scaled_spec(4, 4, seed=51))
        scenario.run_until(15.0)
        scenario.chain.validate()
        # Every device registered and reported.
        for name, device in scenario.devices.items():
            assert device.fsm.can_report, name
            assert scenario.chain.records_for_device(device.device_id.uid), name
        # No anomalies beyond startup artifacts.
        for unit in scenario.aggregators.values():
            stats = unit.verifier.stats
            assert stats.network_anomalies <= max(3, 0.05 * stats.network_checks)


class TestFleetUnderChurn:
    """6 networks x 6 devices for 40 s; four devices move mid-run.

    Roamer ``dev-i-0`` leaves ``net-i`` at 15 + i s and enters
    ``net-(i+1)`` at 19 + i s.
    """

    ROAMERS = {f"dev-{i}-0" for i in range(4)}

    @pytest.mark.parametrize("kind", ["mqtt", "direct"])
    def test_global_invariants_hold(self, kind):
        spec = scaled_spec(6, 6, seed=77, transport=TransportSpec(kind=kind))
        # Observed: the anomaly check below reads trace points.
        scenario = build(
            dataclasses.replace(spec, obs=ObsSpec(enabled=True, profile=False))
        )
        for i in range(4):
            device = scenario.device(f"dev-{i}-0")
            target = scenario.aggregator(f"net-{i + 1}")
            scenario.simulator.schedule(15.0 + i, device.leave_network)
            scenario.simulator.schedule(
                19.0 + i, lambda d=device, t=target: d.enter_network(t)
            )
        scenario.run_until(40.0)

        scenario.chain.validate()
        assert (scenario.channel is None) == (kind == "direct")
        # Roamers also register as visitors at their destination, so the
        # sum over registries can exceed the device count.
        registered = sum(
            unit.registry.member_count for unit in scenario.aggregators.values()
        )
        assert registered >= len(scenario.devices)
        for name, device in scenario.devices.items():
            assert scenario.chain.records_for_device(device.device_id.uid), name
        roaming = {
            r["device"] for block in scenario.chain for r in block.records if r.get("roaming")
        }
        assert roaming == self.ROAMERS

        # Network anomalies under churn are dominated by the *correct*
        # alarms for unmetered consumption: a roamer electrically attached
        # at its destination but still mid-registration (arrivals at
        # t = 19..22 plus the ~6 s handshake) and the windows straddling a
        # departure.  Outside those, only square-load-edge straddle noise
        # remains, bounded at a couple of percent of all checks.
        total_checks = sum(
            u.verifier.stats.network_checks for u in scenario.aggregators.values()
        )
        assert total_checks > 500
        anomaly_times = [
            span.start for span in scenario.simulator.spans.by_name("agg.network_anomaly")
        ]
        churn_windows = [(19.0 + i, 28.0 + i) for i in range(4)] + [
            (15.0 + i, 17.5 + i) for i in range(4)
        ]
        strays = [
            t for t in anomaly_times if not any(lo <= t <= hi for lo, hi in churn_windows)
        ]
        assert anomaly_times  # the unmetered arrivals ARE detected
        assert len(strays) <= 0.02 * total_checks
