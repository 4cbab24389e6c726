"""Unit tests for barrage playoffs and the final."""

import numpy as np
import pytest

from repro.apps import make_application
from repro.cloud.environment import CloudEnvironment
from repro.core.barrage import BarragePlayoffs
from repro.core.config import DarwinGameConfig
from repro.core.records import RecordBook
from repro.errors import TournamentError


@pytest.fixture(scope="module")
def app():
    return make_application("redis", scale="test")


def playoffs(app, cfg=None, seed=0):
    env = CloudEnvironment(seed=seed)
    records = RecordBook()
    return BarragePlayoffs(env, app, cfg or DarwinGameConfig(), records), records, env


class TestPlayoffs:
    def test_four_player_barrage_plays_three_games(self, app):
        p, records, _ = playoffs(app)
        players = [int(i) for i in app.space.sample_indices(4, seed=1, replace=False)]
        result = p.run(players)
        assert result.games == 3
        assert len(set(result.finalists)) == 2
        assert set(result.finalists) <= set(players)

    def test_three_player_playoffs(self, app):
        p, _, _ = playoffs(app)
        players = [int(i) for i in app.space.sample_indices(3, seed=2, replace=False)]
        result = p.run(players)
        assert result.games == 2
        assert len(set(result.finalists)) == 2

    def test_two_players_skip_straight_to_final(self, app):
        p, _, _ = playoffs(app)
        result = p.run([10, 20])
        assert result.games == 0
        assert set(result.finalists) == {10, 20}

    def test_single_player_rejected(self, app):
        p, _, _ = playoffs(app)
        with pytest.raises(TournamentError):
            p.run([5])

    def test_without_barrage_no_repechage(self, app):
        cfg = DarwinGameConfig(barrage_playoffs=False)
        p, _, _ = playoffs(app, cfg)
        players = [int(i) for i in app.space.sample_indices(4, seed=3, replace=False)]
        result = p.run(players)
        assert result.games == 2  # knockout: no third game

    def test_playoff_games_run_to_completion(self, app):
        """No early termination in the playoffs (Sec. 3.5)."""
        p, records, env = playoffs(app)
        players = [int(i) for i in app.space.sample_indices(4, seed=4, replace=False)]
        before = env.ledger.core_hours
        p.run(players)
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
            result = p.final((fast, slower))
            wins += result.winner == fast
        assert wins >= 7

    def test_winner_and_runner_up_partition(self, app):
        p, _, _ = playoffs(app)
        result = p.final((3, 4))
        assert {result.winner, result.runner_up} == {3, 4}

    def test_identical_finalists_rejected(self, app):
        p, _, _ = playoffs(app)
        with pytest.raises(TournamentError):
            p.final((5, 5))
