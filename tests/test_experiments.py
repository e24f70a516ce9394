"""The paper's claims, one test case per claims-table entry, and the
experiment harnesses' own behaviour.

Every claim bound lives in :mod:`repro.experiments.validate`.  The named
claim tests below are views of their entry: a session runs each entry
once (the ``claim`` fixture), however many tests read it.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments import run_fig5, run_fig6, run_handshake_distribution
from repro.experiments.report import (
    render_fig5,
    render_fig6,
    render_handshake_stats,
    render_table,
)
from repro.experiments.validate import CHECKS


def holds(result):
    assert result.passed, f"{result.name}: {result.detail}"


@pytest.mark.parametrize("name", list(CHECKS))
def test_claim(claim, name):
    holds(claim(name))


@pytest.fixture(scope="module")
def fig5_result():
    return run_fig5(seed=0, duration_s=35.0, warmup_s=12.0)


@pytest.fixture(scope="module")
def fig6_result():
    return run_fig6(seed=0, phase1_s=15.0, idle_s=6.0, phase2_s=18.0)


class TestFig5:
    def test_aggregator_reads_higher_on_average(self, claim):
        holds(claim("E1"))

    def test_gap_in_paper_band(self, claim):
        holds(claim("E1"))

    def test_gap_varies_across_intervals(self, claim):
        holds(claim("E1"))

    def test_both_networks_covered(self, fig5_result):
        networks = {row.network for row in fig5_result.rows}
        assert networks == {"agg1", "agg2"}

    def test_rows_have_both_devices(self, fig5_result):
        for row in fig5_result.rows:
            assert len(row.per_device_ma) == 2
            assert row.device_sum_ma == pytest.approx(
                sum(row.per_device_ma.values())
            )

    def test_validation_errors(self):
        with pytest.raises(ExperimentError):
            run_fig5(duration_s=10.0, warmup_s=10.0)

    def test_render(self, fig5_result):
        text = render_fig5(fig5_result)
        assert "gap_%" in text
        assert "paper: 0.9%" in text


class TestFig6:
    def test_handshake_in_paper_band(self, claim):
        holds(claim("E2"))

    def test_buffered_backfill_present(self, claim):
        holds(claim("E2"))

    def test_idle_gap_has_no_consumption(self, fig6_result):
        gap = [
            v
            for t, v in zip(fig6_result.consumption_times, fig6_result.consumption_values)
            if fig6_result.left_network1_at + 0.2 < t < fig6_result.entered_network2_at - 0.2
        ]
        assert gap == []

    def test_consumption_during_handshake_recovered(self, fig6_result):
        # Records with measurement times inside the handshake window
        # exist in the ledger even though connectivity was absent.
        start = fig6_result.entered_network2_at
        end = start + fig6_result.handshake_s
        backfilled = [
            t for t in fig6_result.consumption_times if start + 0.3 < t < end - 0.3
        ]
        assert backfilled

    def test_forwarded_data_reaches_home(self, claim):
        holds(claim("E2"))

    def test_arrival_series_nonempty(self, fig6_result):
        assert len(fig6_result.arrival_times) > 100

    def test_render(self, fig6_result):
        text = render_fig6(fig6_result)
        assert "T_handshake" in text

    def test_validation(self):
        with pytest.raises(ExperimentError):
            run_fig6(phase1_s=0.0)


class TestHandshakeDistribution:
    def test_paper_statistics(self, claim):
        holds(claim("E3"))

    def test_runs_vary(self):
        stats = run_handshake_distribution(runs=5, base_seed=3)
        assert stats.max_s > stats.min_s

    def test_render(self):
        stats = run_handshake_distribution(runs=3, base_seed=1)
        assert "T_handshake" in render_handshake_stats(stats)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            run_handshake_distribution(runs=0)


class TestAblations:
    def test_sensor_ablation_attributes_gap(self, claim):
        holds(claim("A1"))

    def test_wire_model_dominates_offset(self, claim):
        holds(claim("A1"))

    def test_storage_ablation_backfill_always_works(self, claim):
        holds(claim("A3"))

    def test_anomaly_ablation_detects_all_attacks(self, claim):
        holds(claim("A6"))

    def test_anomaly_ablation_residual_catches_scaling(self, claim):
        holds(claim("A6"))

    def test_anomaly_ablation_entropy_catches_replay(self, claim):
        holds(claim("A6"))


class TestRenderTable:
    def test_alignment_and_header(self):
        text = render_table(["a", "bb"], [[1, 2.5], [10, 3.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "---" in lines[1] or "-" in lines[1]
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows aligned
