"""Tests for the Sec. 3.2 statistical-comparison experiment runner."""

import pytest

from repro.campaigns import CampaignRunner, open_store
from repro.experiments.headline import run_headline
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

    def test_reads_the_headline_grid_back_from_the_store(self, grid, tmp_path):
        """Through one store-backed runner, the comparison runs only the
        campaigns the headline grid lacks, and its rows are the in-memory
        runner's."""
        store = open_store(tmp_path / "claims.jsonl")
        runner = CampaignRunner(store=store)
        run_headline(
            ("redis",), scale="test", repeats=2, seed=0,
            strategies=("Optimal", "DarwinGame", "BLISS"), runner=runner,
        )
        headline = len(store)
        assert headline == 5
        comparison = run_statistical_comparison(
            ("redis",), scale="test", repeats=2, seed=0, runner=runner
        )
        added = store.records()[headline:]
        assert sorted(r.spec.strategy for r in added) == [
            "QuantileRegression", "QuantileRegression",
            "ThompsonSampling", "ThompsonSampling",
        ]
        assert comparison == grid

    def test_unknown_cell(self, grid):
        with pytest.raises(KeyError):
            grid.row("redis", "SkyNet")

    def test_apps_listing(self, grid):
        assert grid.apps() == ["redis"]
