"""Integration: a fraudulent device in the full simulation is detected."""

from repro.anomaly import OffsetAttack, ScalingAttack
from repro.runtime import build
from repro.workloads.scenarios import paper_testbed_spec


def run_with_attack(attack, seed=61, duration=30.0):
    scenario = build(paper_testbed_spec(seed=seed))
    scenario.device("device1").tamper_attack = attack
    scenario.run_until(duration)
    return scenario


class TestInDeviceFraudDetection:
    def test_honest_run_is_quiet(self):
        scenario = run_with_attack(None)
        stats = scenario.aggregator("agg1").verifier.stats
        assert stats.network_anomalies == 0

    def test_scaling_fraud_trips_complementary_measurement(self):
        # Device 1 under-reports by 50 %: per-report screens see a
        # plausible shape, but the feeder comparison catches the gap.
        scenario = run_with_attack(ScalingAttack(0.5))
        stats = scenario.aggregator("agg1").verifier.stats
        assert stats.network_anomalies > 0.5 * stats.network_checks

    def test_offset_fraud_detected(self):
        scenario = run_with_attack(OffsetAttack(40.0))
        stats = scenario.aggregator("agg1").verifier.stats
        assert stats.network_anomalies > 0

    def test_fraud_in_one_network_does_not_flag_the_other(self):
        scenario = run_with_attack(ScalingAttack(0.5))
        honest = scenario.aggregator("agg2").verifier.stats
        assert honest.network_anomalies == 0

    def test_fraud_shrinks_the_bill(self):
        # The attack's motive, verified end-to-end: the ledger under-bills.
        honest = build(paper_testbed_spec(seed=61))
        honest.run_until(20.0)
        honest_energy = honest.chain.total_energy_mwh(
            honest.device("device1").device_id.uid
        )
        attacked = run_with_attack(ScalingAttack(0.5), duration=20.0)
        fraud_energy = attacked.chain.total_energy_mwh(
            attacked.device("device1").device_id.uid
        )
        assert fraud_energy < 0.7 * honest_energy
