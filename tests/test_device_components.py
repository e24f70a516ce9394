"""Tests for device storage, metering, firmware and the app layer."""

import numpy as np
import pytest

from repro.billing.tariff import FlatTariff, TimeOfUseTariff
from repro.device import EnergyMeter, Firmware, LocalStore
from repro.device.app import (
    BillingAgent,
    DemandPredictor,
    ScheduleOptimizer,
    TariffWindow,
)
from repro.device.metering import Measurement
from repro.errors import ConfigError, StorageError
from repro.hw.ina219 import Ina219, Ina219Config
from repro.ids import AggregatorId, DeviceId, NetworkAddress
from repro.protocol.messages import ConsumptionReport
from repro.sim import Simulator


def make_report(seq, buffered=False):
    return ConsumptionReport(
        device_id=DeviceId("d1"),
        master=NetworkAddress(AggregatorId("agg1"), 1),
        temporary=None,
        sequence=seq,
        measured_at=float(seq) * 0.1,
        interval_s=0.1,
        current_ma=50.0,
        voltage_v=3.3,
        energy_mwh=0.005,
        buffered=buffered,
    )


def make_measurement(at=1.0, current=100.0):
    return Measurement(
        measured_at=at,
        interval_s=0.1,
        current_ma=current,
        true_current_ma=current,
        voltage_v=3.3,
        energy_mwh=current * 3.3 * 0.1 / 3600.0,
    )


class TestLocalStore:
    def test_fifo_order(self):
        store = LocalStore()
        for i in range(5):
            store.store(make_report(i))
        drained = store.drain()
        assert [r.sequence for r in drained] == [0, 1, 2, 3, 4]

    def test_drain_marks_buffered(self):
        store = LocalStore()
        store.store(make_report(0))
        assert store.drain()[0].buffered is True

    def test_drain_limit(self):
        store = LocalStore()
        for i in range(10):
            store.store(make_report(i))
        batch = store.drain(3)
        assert len(batch) == 3
        assert store.pending == 7

    def test_capacity_evicts_oldest(self):
        store = LocalStore(capacity=3)
        for i in range(5):
            store.store(make_report(i))
        assert store.pending == 3
        assert store.dropped_total == 2
        assert [r.sequence for r in store.drain()] == [2, 3, 4]

    def test_counters(self):
        store = LocalStore()
        for i in range(4):
            store.store(make_report(i))
        store.drain(2)
        assert store.stored_total == 4
        assert store.pending == 2

    def test_peek_oldest(self):
        store = LocalStore()
        assert store.peek_oldest() is None
        store.store(make_report(7))
        assert store.peek_oldest().sequence == 7
        assert store.pending == 1

    def test_invalid_params_rejected(self):
        with pytest.raises(StorageError):
            LocalStore(capacity=0)
        with pytest.raises(StorageError):
            LocalStore().drain(0)


class TestEnergyMeter:
    def make_meter(self, current=100.0, **sensor_overrides):
        sensor = Ina219(Ina219Config(**sensor_overrides), np.random.default_rng(0))
        return EnergyMeter(sensor, lambda t: current, 3.3)

    def test_sample_fields(self):
        meter = self.make_meter()
        m = meter.sample(1.0, 0.1)
        assert m.measured_at == 1.0
        assert m.interval_s == 0.1
        assert m.true_current_ma == 100.0
        assert abs(m.current_ma - 100.0) < 2.0

    def test_energy_accumulates(self):
        meter = self.make_meter()
        for i in range(10):
            meter.sample(i * 0.1, 0.1)
        expected = 100.0 * 3.3 * 1.0 / 3600.0
        assert meter.total_true_energy_mwh == pytest.approx(expected)
        assert meter.total_energy_mwh == pytest.approx(expected, rel=0.05)

    def test_negative_reading_clamped(self):
        meter = self.make_meter(current=0.0, offset_max_ma=0.5, noise_std_ma=0.5)
        for i in range(50):
            m = meter.sample(float(i), 0.1)
            assert m.current_ma >= 0.0
            assert m.energy_mwh >= 0.0

    def test_invalid_voltage_rejected(self):
        sensor = Ina219(Ina219Config(), np.random.default_rng(0))
        with pytest.raises(Exception):
            EnergyMeter(sensor, lambda t: 1.0, 0.0)


class TestFirmware:
    def test_sampling_cadence(self):
        sim = Simulator()
        sensor = Ina219(Ina219Config(), sim.rng.stream("s"))
        meter = EnergyMeter(sensor, lambda t: 50.0, 3.3)
        seen = []
        firmware = Firmware(sim, meter, seen.append, t_measure_s=0.1)
        firmware.start()
        sim.run_until(1.0)
        assert len(seen) == 10
        assert firmware.samples_taken == 10

    def test_stop_halts_sampling(self):
        sim = Simulator()
        sensor = Ina219(Ina219Config(), sim.rng.stream("s"))
        meter = EnergyMeter(sensor, lambda t: 50.0, 3.3)
        seen = []
        firmware = Firmware(sim, meter, seen.append)
        firmware.start()
        sim.schedule(0.55, firmware.stop)
        sim.run_until(2.0)
        assert len(seen) == 5
        assert not firmware.running

    def test_start_idempotent(self):
        sim = Simulator()
        sensor = Ina219(Ina219Config(), sim.rng.stream("s"))
        meter = EnergyMeter(sensor, lambda t: 50.0, 3.3)
        seen = []
        firmware = Firmware(sim, meter, seen.append)
        firmware.start()
        firmware.start()
        sim.run_until(0.35)
        assert len(seen) == 3

    def test_invalid_interval_rejected(self):
        sim = Simulator()
        sensor = Ina219(Ina219Config(), sim.rng.stream("s"))
        meter = EnergyMeter(sensor, lambda t: 1.0, 3.3)
        with pytest.raises(ConfigError):
            Firmware(sim, meter, lambda m: None, t_measure_s=0.0)


class TestBillingAgent:
    def test_accounts_energy_and_cost(self):
        agent = BillingAgent(FlatTariff(rate_per_mwh=2.0))
        cost = agent.account(make_measurement(current=100.0))
        assert cost == pytest.approx(100 * 3.3 * 0.1 / 3600 * 2.0)
        assert agent.windows == 1

    def test_time_of_use_pricing(self):
        tariff = TimeOfUseTariff(
            period_s=100.0, peak_start_s=0.0, peak_end_s=50.0,
            peak_rate=10.0, offpeak_rate=1.0,
        )
        agent = BillingAgent(tariff)
        peak_cost = agent.account(make_measurement(at=10.0))
        offpeak_cost = agent.account(make_measurement(at=60.0))
        assert peak_cost == pytest.approx(10 * offpeak_cost)

    def test_monthly_projection(self):
        agent = BillingAgent(FlatTariff(1.0))
        agent.account(make_measurement())
        month = agent.estimate_monthly_cost(0.1, elapsed_s=3600.0)
        assert month == pytest.approx(agent.cost * 720)

    def test_invalid_inputs_rejected(self):
        agent = BillingAgent(FlatTariff(1.0))
        bad = Measurement(1.0, 0.1, -1.0, -1.0, 3.3, -0.1)
        with pytest.raises(Exception):
            agent.account(bad)
        with pytest.raises(Exception):
            agent.estimate_monthly_cost(0.1, 0.0)


class TestDemandPredictor:
    def test_constant_series_predicted_exactly(self):
        predictor = DemandPredictor()
        for _ in range(20):
            predictor.observe(5.0)
        assert predictor.predict() == pytest.approx(5.0, rel=0.01)

    def test_trend_followed(self):
        predictor = DemandPredictor(alpha=0.5, beta=0.3)
        for i in range(50):
            predictor.observe(float(i))
        assert predictor.predict(1) > 45.0

    def test_prediction_never_negative(self):
        predictor = DemandPredictor(alpha=0.9, beta=0.9)
        for value in (10.0, 1.0, 0.0, 0.0):
            predictor.observe(value)
        assert predictor.predict(10) >= 0.0

    def test_empty_predicts_zero(self):
        assert DemandPredictor().predict() == 0.0

    def test_error_tracking(self):
        predictor = DemandPredictor()
        for value in (1.0, 2.0, 1.0, 2.0, 1.0):
            predictor.observe(value)
        assert predictor.mean_abs_error > 0.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            DemandPredictor(alpha=0.0)
        with pytest.raises(ConfigError):
            DemandPredictor(beta=1.5)
        with pytest.raises(ConfigError):
            DemandPredictor().predict(0)
        with pytest.raises(ConfigError):
            DemandPredictor().observe(-1.0)


class TestScheduleOptimizer:
    def windows(self):
        return [
            TariffWindow(0.0, 100.0, 5.0),
            TariffWindow(100.0, 200.0, 1.0),
            TariffWindow(200.0, 300.0, 3.0),
        ]

    def test_cheapest_window_first(self):
        optimizer = ScheduleOptimizer(self.windows())
        slots = optimizer.plan(required_s=100.0)
        assert len(slots) == 1
        assert slots[0].price_per_mwh == 1.0

    def test_spills_to_next_cheapest(self):
        optimizer = ScheduleOptimizer(self.windows())
        slots = optimizer.plan(required_s=150.0)
        prices = sorted(s.price_per_mwh for s in slots)
        assert prices == [1.0, 3.0]

    def test_deadline_restricts_windows(self):
        optimizer = ScheduleOptimizer(self.windows())
        slots = optimizer.plan(required_s=50.0, deadline_s=100.0)
        assert all(s.end_s <= 100.0 for s in slots)
        assert slots[0].price_per_mwh == 5.0

    def test_infeasible_raises(self):
        optimizer = ScheduleOptimizer(self.windows())
        with pytest.raises(ConfigError):
            optimizer.plan(required_s=301.0)
        with pytest.raises(ConfigError):
            optimizer.plan(required_s=200.0, deadline_s=150.0)

    def test_cost_computation(self):
        optimizer = ScheduleOptimizer(self.windows())
        slots = optimizer.plan(required_s=100.0)
        # 1000 mW for 100 s in the 1.0-price window.
        cost = optimizer.plan_cost(slots, power_mw=1000.0)
        assert cost == pytest.approx(1000.0 * 100.0 / 3600.0 * 1.0)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ConfigError):
            ScheduleOptimizer(
                [TariffWindow(0.0, 10.0, 1.0), TariffWindow(5.0, 15.0, 1.0)]
            )

    def test_slots_returned_in_time_order(self):
        optimizer = ScheduleOptimizer(self.windows())
        slots = optimizer.plan(required_s=250.0)
        starts = [s.start_s for s in slots]
        assert starts == sorted(starts)
