"""Tests for the format predictive-power study."""

import json
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.experiments.format_power import (
    FORMAT_NAMES,
    run_format_power,
)

GOLDEN = Path(__file__).parent / "golden" / "format_power_test.json"


def golden_rows():
    """Every row of the 50-trial, seed-0 study: the values the golden pins."""
    result = run_format_power(trials=50, seed=0)
    return [
        {
            "format": row.format_name,
            "noise_std": row.noise_std,
            "predictive_power": row.predictive_power,
            "top2_power": row.top2_power,
            "mean_games": row.mean_games,
        }
        for row in result.rows
    ]


@pytest.fixture(scope="module")
def grid():
    return run_format_power(
        n_players=8, noise_levels=(0.0, 0.5), trials=60, seed=0
    )


class TestFormatPower:
    def test_grid_complete(self, grid):
        assert len(grid.rows) == len(FORMAT_NAMES) * 2
        for fmt in FORMAT_NAMES:
            for noise in (0.0, 0.5):
                grid.row(fmt, noise)

    def test_noiseless_power_is_perfect(self, grid):
        for fmt in FORMAT_NAMES:
            assert grid.row(fmt, 0.0).predictive_power == 1.0

    def test_noise_degrades_power(self, grid):
        for fmt in FORMAT_NAMES:
            assert grid.row(fmt, 0.5).predictive_power < 1.0

    def test_top2_at_least_top1(self, grid):
        for row in grid.rows:
            assert row.top2_power >= row.predictive_power

    def test_game_costs_ordered(self, grid):
        se = grid.row("SingleElim", 0.5).mean_games
        de = grid.row("DoubleElim", 0.5).mean_games
        rr = grid.row("RoundRobin", 0.5).mean_games
        assert se < de < rr

    def test_deterministic(self):
        a = run_format_power(n_players=6, noise_levels=(0.3,), trials=20, seed=5)
        b = run_format_power(n_players=6, noise_levels=(0.3,), trials=20, seed=5)
        assert a.rows == b.rows

    def test_rejects_bad_args(self):
        with pytest.raises(ReproError):
            run_format_power(n_players=1)
        with pytest.raises(ReproError):
            run_format_power(trials=0)


def test_study_matches_golden_bit_for_bit():
    """Every format's power, top-2 power and mean games, exactly as the
    snapshot holds them: the schedulers driven through ``run_schedule``
    and a noisy-strength oracle to a winner, for every noise level."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden_rows() == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_rows(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
