"""Smoke and shape tests for the experiment runners (at test scale)."""

import numpy as np
import pytest

from repro.apps import make_application
from repro.campaigns import CampaignSpec, execute_campaign
from repro.experiments import (
    render_table,
    run_fig1_left,
    run_fig1_right,
    run_fig2,
    run_fig3,
    run_headline,
    run_sensitivity,
    run_stability,
    run_table1,
    run_vm_sweep,
)
from repro.experiments.ablations import run_ablations


@pytest.fixture(scope="module")
def app():
    return make_application("redis", scale="test")


def _campaign(strategy):
    return execute_campaign(
        CampaignSpec(app="redis", strategy=strategy, scale="test", seed=0)
    )


class TestProtocol:
    def test_optimal_strategy(self, app):
        run = _campaign("Optimal")
        assert run.core_hours == 0.0
        assert run.mean_time == pytest.approx(app.optimal.true_time)

    def test_darwin_strategy(self, app):
        run = _campaign("DarwinGame")
        assert run.core_hours > 0
        assert run.mean_time > app.optimal.true_time

    def test_unknown_strategy(self, app):
        """The runner isolates the bad name in a failed record that names
        it; ``validate_grid`` refuses it up front on every entry point."""
        run = _campaign("GPT-Tuner")
        assert not run.ok and "'GPT-Tuner'" in run.error


class TestMotivation:
    def test_fig1_left_shape(self, app):
        result = run_fig1_left(app, n_configs=100, seed=0)
        assert result.times.shape == (100,)
        assert result.cdf_percent[-1] == pytest.approx(100.0)
        assert result.spread_ratio > 1.5

    def test_fig1_right_variation(self, app):
        result = run_fig1_right(app, runs=200, seed=0)
        assert len(result.mean_times) == 3
        assert result.max_variation_percent > 5.0

    def test_fig2_trend(self, app):
        result = run_fig2(app, n_configs=80, runs=40, seed=0)
        assert len(result.points) == 80
        # Faster configurations vary more: negative correlation.
        assert result.trend_correlation < 0.1


class TestFig3:
    def test_instability_grid(self, app):
        result = run_fig3(
            "redis",
            scale="test",
            seed=0,
            epochs=(0.0, 10 * 86400.0),
            strategies=("Optimal", "BLISS"),
        )
        assert len(result.cells) == 4
        assert result.distinct_choices["Optimal"] == 1
        assert all(t >= result.optimal_time * 0.99 for t in result.times_of("BLISS"))


class TestHeadline:
    def test_small_headline(self):
        result = run_headline(
            ("redis",), scale="test", repeats=2, seed=0,
            strategies=("Optimal", "DarwinGame", "BLISS"),
        )
        row_dg = result.row("redis", "DarwinGame")
        row_opt = result.row("redis", "Optimal")
        assert row_dg.mean_time > row_opt.mean_time
        assert row_dg.cov_percent < 3.0
        assert row_dg.time_low <= row_dg.mean_time <= row_dg.time_high

    def test_headline_cached(self):
        a = run_headline(("redis",), scale="test", repeats=2, seed=0,
                         strategies=("Optimal", "DarwinGame", "BLISS"))
        b = run_headline(("redis",), scale="test", repeats=2, seed=0,
                         strategies=("Optimal", "DarwinGame", "BLISS"))
        assert a is b

    def test_stability(self):
        result = run_stability("redis", scale="test", repeats=3, seed=0)
        assert result.repeats == 3
        assert 0 < result.modal_pick_fraction <= 1.0


class TestSweeps:
    def test_vm_sweep_small(self):
        result = run_vm_sweep(
            "redis", scale="test", seed=0, vm_names=("m5.8xlarge", "m5.16xlarge")
        )
        assert len(result.rows) == 2
        assert result.worst_gap_percent < 60.0

    def test_sensitivity_small(self):
        result = run_sensitivity(
            "redis", scale="test", seed=0,
            deviations=(0.05, 0.15), region_factors=(1.0,),
        )
        assert result.max_spread_percent("work_deviation") < 30.0

    def test_sensitivity_points_do_not_depend_on_jobs(self):
        serial, parallel = (
            run_sensitivity("redis", scale="test", seed=0, jobs=jobs).points
            for jobs in (1, 2)
        )
        assert len(serial) == 6 and parallel == serial

    def test_ablations_small(self):
        result = run_ablations(
            ("redis",), scale="test", repeats=1, seed=0,
            ablations=("w/o regional", "w/o early termination"),
        )
        row = result.row("redis", "w/o early termination")
        assert row.core_hours_increase_percent > 0.0


class TestTable1:
    def test_sizes_match_paper(self):
        rows = run_table1()
        assert len(rows) == 4
        for row in rows:
            assert 0.9 < row.size_ratio < 1.1
            assert len(row.app_parameters) >= 6
            assert len(row.system_parameters) >= 2


class TestReporting:
    def test_render_table(self):
        text = render_table(
            ["name", "value"], [["a", 1.5], ["b", 10000.0]], title="T"
        )
        assert "name" in text and "a" in text and "10,000" in text

    def test_paper_vs_measured(self):
        from repro.experiments import paper_vs_measured

        line = paper_vs_measured("claim", "1", "2", False)
        assert line.startswith("[DIFF]")
