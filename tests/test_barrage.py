"""Unit tests for barrage playoffs and the final."""

import numpy as np
import pytest

from repro.apps import make_application
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig
from repro.core.executor import MatchExecutor
from repro.core.records import RecordBook
from repro.errors import TournamentError


@pytest.fixture(scope="module")
def app():
    return make_application("redis", scale="test")


def playoffs(app, cfg=None, seed=0):
    env = CloudEnvironment(seed=seed)
    records = RecordBook()
    return MatchExecutor(env, app, cfg or DarwinGameConfig(), records), records, env


class TestPlayoffs:
    def test_four_player_barrage_plays_three_games(self, app):
        p, records, _ = playoffs(app)
        players = [int(i) for i in app.space.sample_indices(4, seed=1, replace=False)]
        result = p.play_playoffs(players)
        assert result.games == 3
        assert len(set(result.finalists)) == 2
        assert set(result.finalists) <= set(players)

    def test_three_player_playoffs(self, app):
        p, _, _ = playoffs(app)
        players = [int(i) for i in app.space.sample_indices(3, seed=2, replace=False)]
        result = p.play_playoffs(players)
        assert result.games == 2
        assert len(set(result.finalists)) == 2

    def test_two_players_skip_straight_to_final(self, app):
        p, _, _ = playoffs(app)
        result = p.play_playoffs([10, 20])
        assert result.games == 0
        assert set(result.finalists) == {10, 20}

    def test_single_player_rejected(self, app):
        p, _, _ = playoffs(app)
        with pytest.raises(TournamentError):
            p.play_playoffs([5])

    def test_without_barrage_no_repechage(self, app):
        cfg = DarwinGameConfig(barrage_playoffs=False)
        p, _, _ = playoffs(app, cfg)
        players = [int(i) for i in app.space.sample_indices(4, seed=3, replace=False)]
        result = p.play_playoffs(players)
        assert result.games == 2  # knockout: no third game

    def test_playoff_games_run_to_completion(self, app):
        """No early termination in the playoffs (Sec. 3.5)."""
        p, records, env = playoffs(app)
        players = [int(i) for i in app.space.sample_indices(4, seed=4, replace=False)]
        before = env.ledger.core_hours
        p.play_playoffs(players)
        # Each playoff game books the full duration of the faster player,
        # so ledger must be clearly nonzero and scores recorded for all.
        assert env.ledger.core_hours > before
        assert all(records.games_played(players) >= 1)


class TestFinal:
    def test_faster_config_usually_wins(self, app):
        idx = np.arange(app.space.size)
        times = app.true_time(idx)
        order = np.argsort(times)
        fast, slower = int(order[0]), int(order[500])
        wins = 0
        for seed in range(8):
            p, _, _ = playoffs(app, seed=seed)
            report = p.play_final((fast, slower))
            wins += report.winner_index == fast
        assert wins >= 7

    def test_winner_and_runner_up_partition(self, app):
        p, _, _ = playoffs(app)
        report = p.play_final((3, 4))
        assert set(report.indices) == {3, 4}
        assert report.winner_index in (3, 4)
        assert not report.outcome.early_terminated

    def test_identical_finalists_rejected(self, app):
        p, _, _ = playoffs(app)
        with pytest.raises(TournamentError):
            p.play_final((5, 5))
