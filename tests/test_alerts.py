"""Tests for the alerting layer."""

import pytest

from repro.errors import ConfigError
from repro.monitoring import (
    AlertCondition,
    AlertManager,
    AlertRule,
    SeriesBank,
)
from repro.runtime import build
from repro.workloads.scenarios import paper_testbed_spec


def bank_with(name="feeder", samples=()):
    bank = SeriesBank()
    for t, v in samples:
        bank.record(name, t, v)
    return bank


class TestAlertRule:
    def test_breach_directions(self):
        above = AlertRule("hi", "s", AlertCondition.ABOVE, 10.0)
        below = AlertRule("lo", "s", AlertCondition.BELOW, 5.0)
        assert above.breached(11.0) and not above.breached(9.0)
        assert below.breached(4.0) and not below.breached(6.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            AlertRule("", "s", AlertCondition.ABOVE, 1.0)
        with pytest.raises(ConfigError):
            AlertRule("r", "s", AlertCondition.ABOVE, 1.0, window_s=0.0)


class TestAlertManager:
    def test_fires_on_sustained_breach(self):
        bank = bank_with(samples=[(t * 0.1, 100.0) for t in range(20)])
        manager = AlertManager(bank)
        manager.add_rule(
            AlertRule("overload", "feeder", AlertCondition.ABOVE, 50.0, window_s=1.0)
        )
        fired = manager.evaluate(2.0)
        assert len(fired) == 1
        assert "overload" in manager.firing
        assert "feeder" in fired[0].message

    def test_no_storm_while_firing(self):
        bank = bank_with(samples=[(t * 0.1, 100.0) for t in range(50)])
        manager = AlertManager(bank)
        manager.add_rule(
            AlertRule("overload", "feeder", AlertCondition.ABOVE, 50.0)
        )
        manager.evaluate(2.0)
        assert manager.evaluate(3.0) == []
        assert len(manager.alerts) == 1

    def test_rearms_after_recovery(self):
        bank = SeriesBank()
        for t in range(10):
            bank.record("feeder", t * 0.1, 100.0)
        for t in range(10, 30):
            bank.record("feeder", t * 0.1, 1.0)
        for t in range(30, 40):
            bank.record("feeder", t * 0.1, 100.0)
        manager = AlertManager(bank)
        manager.add_rule(AlertRule("overload", "feeder", AlertCondition.ABOVE, 50.0))
        manager.evaluate(0.95)   # breach 1
        manager.evaluate(2.5)    # recovered -> re-arm
        manager.evaluate(3.9)    # breach 2
        assert len(manager.alerts) == 2

    def test_no_data_clears_stale_firing_state(self):
        # Pre-fix an empty evaluation window left `firing` set, so a
        # series that stopped producing samples stayed "firing" forever
        # and a later, genuinely new breach never re-alerted.
        bank = bank_with(samples=[(t * 0.1, 100.0) for t in range(10)])
        manager = AlertManager(bank)
        manager.add_rule(
            AlertRule("overload", "feeder", AlertCondition.ABOVE, 50.0, window_s=1.0)
        )
        assert len(manager.evaluate(0.95)) == 1
        # The series went silent: one empty window re-arms the rule.
        assert manager.evaluate(5.0) == []
        assert manager.firing == []
        # Data returns, still breaching: that is a fresh excursion.
        bank.record("feeder", 10.0, 100.0)
        fired = manager.evaluate(10.5)
        assert len(fired) == 1
        assert len(manager.alerts) == 2

    def test_missing_series_is_quiet(self):
        manager = AlertManager(SeriesBank())
        manager.add_rule(AlertRule("r", "ghost", AlertCondition.ABOVE, 1.0))
        assert manager.evaluate(1.0) == []

    def test_empty_window_is_quiet(self):
        bank = bank_with(samples=[(100.0, 5.0)])
        manager = AlertManager(bank)
        manager.add_rule(AlertRule("r", "feeder", AlertCondition.ABOVE, 1.0))
        assert manager.evaluate(1.0) == []  # no samples in [0, 1]

    def test_duplicate_rule_rejected(self):
        manager = AlertManager(SeriesBank())
        manager.add_rule(AlertRule("r", "s", AlertCondition.ABOVE, 1.0))
        with pytest.raises(ConfigError):
            manager.add_rule(AlertRule("r", "s", AlertCondition.BELOW, 1.0))

    def test_alert_on_real_aggregator_feeder(self):
        scenario = build(paper_testbed_spec(seed=5))
        scenario.run_until(15.0)
        agg1 = scenario.aggregator("agg1")
        manager = AlertManager(agg1.monitoring)
        manager.add_rule(
            AlertRule(
                "feeder-overload", "feeder", AlertCondition.ABOVE,
                threshold=10.0, window_s=2.0,  # trivially breached
            )
        )
        fired = manager.evaluate(scenario.simulator.now)
        assert fired and fired[0].rule == "feeder-overload"
