"""Tests for demand estimation and load balancing (§IV future work)."""

import pytest

from repro.chain import Blockchain
from repro.errors import ConfigError
from repro.planning import (
    BalanceProblem,
    NetworkDemandEstimator,
    balance_min_max_utilisation,
    greedy_rssi_assignment,
)
from repro.runtime import build
from repro.workloads.scenarios import paper_testbed_spec


class TestDemandEstimator:
    def make_chain(self):
        chain = Blockchain()
        records = []
        for t in range(30):
            records.append(
                {"device": "d1", "device_uid": "u1", "sequence": t,
                 "measured_at": float(t) * 0.5, "energy_mwh": 0.5,
                 "network": "agg1"}
            )
        chain.append("agg1", 1.0, records)
        chain.append(
            "agg2", 1.0,
            [{"device": "d2", "device_uid": "u2", "sequence": 0,
              "measured_at": 0.3, "energy_mwh": 2.0, "network": "agg2"}],
        )
        return chain

    def test_demand_series_buckets(self):
        estimator = NetworkDemandEstimator(self.make_chain(), interval_s=1.0)
        series = estimator.demand_series("agg1")
        # Two 0.5 s records per 1 s bucket at 0.5 mWh each.
        assert all(v == pytest.approx(1.0) for v in series)

    def test_forecast_of_constant_demand(self):
        estimator = NetworkDemandEstimator(self.make_chain(), interval_s=1.0)
        assert estimator.forecast("agg1") == pytest.approx(1.0, rel=0.05)

    def test_forecast_all(self):
        estimator = NetworkDemandEstimator(self.make_chain(), interval_s=1.0)
        result = estimator.forecast_all(["agg1", "agg2"])
        assert set(result) == {"agg1", "agg2"}
        assert result["agg2"] == pytest.approx(2.0)

    def test_unknown_network_is_empty(self):
        estimator = NetworkDemandEstimator(self.make_chain())
        assert estimator.demand_series("nowhere") == []
        assert estimator.forecast("nowhere") == 0.0

    def test_estimates_from_real_run(self):
        scenario = build(paper_testbed_spec(seed=3))
        scenario.run_until(20.0)
        estimator = NetworkDemandEstimator(scenario.chain, interval_s=1.0)
        forecast = estimator.forecast("agg1")
        assert forecast > 0

    def test_invalid_interval(self):
        with pytest.raises(Exception):
            NetworkDemandEstimator(Blockchain(), interval_s=0.0)


class TestBalanceProblem:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BalanceProblem({}, {})
        with pytest.raises(ConfigError):
            BalanceProblem({"a": -1}, {})
        with pytest.raises(ConfigError):
            BalanceProblem({"a": 1}, {"d": {}})
        with pytest.raises(ConfigError):
            BalanceProblem({"a": 1}, {"d": {"zz": -50.0}})


class TestGreedyAssignment:
    def test_everyone_picks_strongest(self):
        problem = BalanceProblem(
            capacities={"a": 10, "b": 10},
            reachable={
                "d1": {"a": -50.0, "b": -70.0},
                "d2": {"a": -80.0, "b": -55.0},
            },
        )
        assignment = greedy_rssi_assignment(problem)
        assert assignment.mapping == {"d1": "a", "d2": "b"}
        assert assignment.unassigned == []

    def test_overflow_cascades_to_next_best(self):
        problem = BalanceProblem(
            capacities={"a": 1, "b": 10},
            reachable={
                "d1": {"a": -50.0, "b": -70.0},
                "d2": {"a": -51.0, "b": -71.0},
            },
        )
        assignment = greedy_rssi_assignment(problem)
        assert assignment.load("a") == 1
        assert assignment.load("b") == 1

    def test_stranded_device_reported(self):
        problem = BalanceProblem(
            capacities={"a": 1},
            reachable={"d1": {"a": -50.0}, "d2": {"a": -55.0}},
        )
        assignment = greedy_rssi_assignment(problem)
        assert len(assignment.unassigned) == 1


class TestBalancedAssignment:
    def hotspot_problem(self):
        # Six devices all prefer "a" (a popular charging location), but
        # four of them can also reach "b".
        reachable = {}
        for i in range(6):
            candidates = {"a": -50.0 - i}
            if i >= 2:
                candidates["b"] = -65.0
            reachable[f"d{i}"] = candidates
        return BalanceProblem(capacities={"a": 6, "b": 6}, reachable=reachable)

    def test_balanced_beats_greedy_on_max_utilisation(self):
        problem = self.hotspot_problem()
        greedy = greedy_rssi_assignment(problem)
        balanced = balance_min_max_utilisation(problem)
        assert balanced.unassigned == []
        assert balanced.max_utilisation(problem) < greedy.max_utilisation(problem)

    def test_balanced_respects_reachability(self):
        problem = self.hotspot_problem()
        balanced = balance_min_max_utilisation(problem)
        for device, aggregator in balanced.mapping.items():
            assert aggregator in problem.reachable[device]

    def test_balanced_places_everyone_when_feasible(self):
        problem = BalanceProblem(
            capacities={"a": 2, "b": 2},
            reachable={
                "d1": {"a": -50.0},
                "d2": {"a": -50.0},
                "d3": {"a": -50.0, "b": -70.0},
                "d4": {"b": -60.0},
            },
        )
        balanced = balance_min_max_utilisation(problem)
        assert balanced.unassigned == []
        assert balanced.load("a") == 2
        assert balanced.load("b") == 2

    def test_infeasible_falls_back_to_greedy(self):
        problem = BalanceProblem(
            capacities={"a": 1},
            reachable={"d1": {"a": -50.0}, "d2": {"a": -55.0}},
        )
        result = balance_min_max_utilisation(problem)
        assert len(result.unassigned) == 1

    def test_utilisation_accounting(self):
        problem = BalanceProblem(
            capacities={"a": 4, "b": 2},
            reachable={"d1": {"a": -50.0}, "d2": {"b": -50.0}},
        )
        assignment = greedy_rssi_assignment(problem)
        utilisation = assignment.utilisation(problem)
        assert utilisation["a"] == 0.25
        assert utilisation["b"] == 0.5
        assert assignment.max_utilisation(problem) == 0.5
