"""Tests for the Sec. 3.2 statistical-comparison experiment runner."""

import pytest

from repro.experiments.statistical import (
    STATISTICAL_STRATEGIES,
    run_statistical_comparison,
)


@pytest.fixture(scope="module")
def grid():
    return run_statistical_comparison(
        ("redis",), scale="test", repeats=2, seed=0
    )


class TestStatisticalComparison:
    def test_all_strategies_present(self, grid):
        strategies = {r.strategy for r in grid.rows}
        assert strategies == set(STATISTICAL_STRATEGIES)

    def test_optimal_gap_is_zero(self, grid):
        assert grid.row("redis", "Optimal").gap_vs_optimal_percent == pytest.approx(0.0)

    def test_gaps_nonnegative(self, grid):
        for r in grid.rows:
            assert r.gap_vs_optimal_percent >= -1e-6

    def test_repeats_recorded(self, grid):
        assert grid.row("redis", "DarwinGame").repeats == 2
        assert grid.row("redis", "Optimal").repeats == 1

    def test_cached(self, grid, monkeypatch):
        """A repeated comparison is served from the headline grid's cache:
        equal rows, and no campaign runs again."""
        from repro.campaigns.runner import CampaignRunner

        def no_run(self, *args, **kwargs):
            raise AssertionError("the cached grid ran campaigns again")

        monkeypatch.setattr(CampaignRunner, "run", no_run)
        again = run_statistical_comparison(
            ("redis",), scale="test", repeats=2, seed=0
        )
        assert again == grid

    def test_unknown_cell(self, grid):
        with pytest.raises(KeyError):
            grid.row("redis", "SkyNet")

    def test_apps_listing(self, grid):
        assert grid.apps() == ["redis"]
