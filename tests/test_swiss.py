"""Unit tests for the Swiss-style regional phase."""

import numpy as np
import pytest

from repro.apps import make_application
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig
from repro.core.executor import MatchExecutor
from repro.core.records import RecordBook
from repro.rng import ensure_rng
from repro.space.regions import Region


@pytest.fixture(scope="module")
def app():
    return make_application("redis", scale="test")


def run_region(app, cfg=None, *, region=None, seed=0, env_seed=0):
    cfg = cfg or DarwinGameConfig()
    env = CloudEnvironment(seed=env_seed)
    records = RecordBook()
    executor = MatchExecutor(env, app, cfg, records)
    region = region or Region(0, 0, 256)
    (result,) = executor.play_regions([region], [ensure_rng(seed)])
    return result, records


class TestRegionalPhase:
    def test_winners_inside_region(self, app):
        result, _ = run_region(app)
        assert all(0 <= w < 256 for w in result.winners)

    def test_champion_among_winners(self, app):
        result, _ = run_region(app)
        assert result.champion in result.winners

    def test_games_played(self, app):
        result, _ = run_region(app)
        assert result.games >= 1
        assert result.elapsed > 0.0

    def test_one_winner_flag(self, app):
        cfg = DarwinGameConfig(one_winner_per_region=True)
        result, _ = run_region(app, cfg)
        assert result.winners == (result.champion,)

    def test_deterministic_given_seeds(self, app):
        a, _ = run_region(app, seed=3, env_seed=5)
        b, _ = run_region(app, seed=3, env_seed=5)
        assert a.winners == b.winners

    def test_region_assignment_recorded(self, app):
        result, records = run_region(app)
        assert all(records.region_ids(result.winners) == 0)

    def test_without_swiss_single_game(self, app):
        cfg = DarwinGameConfig(swiss_style=False)
        result, _ = run_region(app, cfg)
        assert result.games == 1

    def test_single_point_region(self, app):
        result, _ = run_region(app, region=Region(0, 5, 6))
        assert result.winners == (5,)

    def test_two_player_games_only(self, app):
        cfg = DarwinGameConfig(two_player_games_only=True)
        result, records = run_region(app, cfg, region=Region(0, 0, 32))
        # Every game had exactly two players, so total evaluations = 2 * games.
        assert records.total_evaluations == 2 * result.games

    def test_max_rounds_cap(self, app):
        cfg = DarwinGameConfig(max_regional_rounds=2)
        result, _ = run_region(app, cfg)
        assert result.games <= 2

    def test_champion_tends_to_be_strong(self, app):
        """The champion must rank highly under game-time (shared-noise) conditions.

        Regional games co-locate ~P players, so the phase ranks players by
        their *effective* time under heavy contention, not their solo true
        time — the later 2-player playoff/final phases are what re-align the
        pick with solo cloud performance.  Assert the champion sits in the
        top decile of effective time in every seed, and that on average its
        solo true time still lands well below the region's median.
        """
        indices = np.arange(0, 256)
        true_times = app.true_time(indices)
        # Effective time at a representative regional-game noise level
        # (co-location contention of a near-full VM plus background mean).
        effective = true_times * (1.0 + app.sensitivity(indices) * 0.9)
        true_pcts = []
        for seed in range(6):
            result, _ = run_region(app, seed=seed, env_seed=seed)
            champ = result.champion
            eff_pct = float((effective <= effective[champ]).mean())
            assert eff_pct <= 0.10
            true_pcts.append(float((true_times <= true_times[champ]).mean()))
        assert np.mean(true_pcts) < 0.45

    def test_winner_band_within_deviation(self, app):
        """Every promoted winner scores within d of the champion (Sec. 3.3)."""
        cfg = DarwinGameConfig()
        result, records = run_region(app, cfg)
        champ = records.mean_execution_scores([result.champion])[0]
        for score in records.mean_execution_scores(result.winners):
            assert score >= (1 - cfg.work_deviation) * champ - 1e-9
