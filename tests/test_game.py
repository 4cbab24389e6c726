"""Unit tests for playing a single game (a one-game executor round)."""

import numpy as np
import pytest

from repro.apps import make_application
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig
from repro.core.executor import MatchExecutor, execution_scores_from_work
from repro.core.records import RecordBook
from repro.errors import TournamentError


@pytest.fixture(scope="module")
def app():
    return make_application("redis", scale="test")


def play_one(env, app, players, config, records, **kwargs):
    """One game as a one-game round (``label`` defaults to ``"game"``)."""
    kwargs.setdefault("label", "game")
    executor = MatchExecutor(env, app, config, records)
    return executor.play([players], **kwargs)[0]


class TestExecutionScores:
    def test_relative_to_fastest(self):
        scores = execution_scores_from_work([0.5, 1.0, 0.25])
        assert scores.tolist() == [0.5, 1.0, 0.25]

    def test_normalised_to_leader(self):
        scores = execution_scores_from_work([0.4, 0.2])
        assert scores.tolist() == [1.0, 0.5]

    def test_empty_rejected(self):
        with pytest.raises(TournamentError):
            execution_scores_from_work([])

    def test_no_progress_rejected(self):
        with pytest.raises(TournamentError):
            execution_scores_from_work([0.0, 0.0])


class TestPlayGame:
    def test_game_records_scores(self, app):
        env = CloudEnvironment(seed=0)
        records = RecordBook()
        players = [int(i) for i in app.space.sample_indices(8, seed=1, replace=False)]
        report = play_one(env, app, players, DarwinGameConfig(), records)
        assert report.winner_index in players
        assert max(report.execution_scores) == pytest.approx(1.0)
        assert records.games_played(players).tolist() == [1] * len(players)

    def test_duplicate_players_rejected(self, app):
        env = CloudEnvironment(seed=0)
        with pytest.raises(TournamentError):
            play_one(env, app, [1, 1], DarwinGameConfig(), RecordBook())

    @pytest.mark.parametrize("players, named", [
        ([1.5, 2], r"index 1\.5 is not an integer"),
        ([True, 2], "index True is not an integer"),
        ([-3, 2], "index -3 is negative"),
    ], ids=["float", "bool", "negative"])
    def test_non_index_refused_before_play(self, app, players, named):
        """Nothing is played or booked: the clock, the ledger and the book
        stay untouched."""
        env, records = CloudEnvironment(seed=0), RecordBook()
        with pytest.raises(TournamentError, match=named):
            play_one(env, app, players, DarwinGameConfig(), records,
                     advance_clock=True)
        assert env.now == 0.0 and env.ledger.core_hours == 0.0
        assert len(records) == 0

    def test_duplicate_in_a_later_game_named(self, app):
        executor = MatchExecutor(
            CloudEnvironment(seed=0), app, DarwinGameConfig(), RecordBook()
        )
        with pytest.raises(TournamentError, match=r"game: \[4, 5, 4\]"):
            executor.play([[1, 2], [3], [4, 5, 4]], label="game")
        with pytest.raises(TournamentError, match=r"game: \[6, 6\]"):
            executor.play([[1, 2], [6, 6]], label="game")

    def test_empty_game_rejected(self, app):
        env = CloudEnvironment(seed=0)
        with pytest.raises(TournamentError):
            play_one(env, app, [], DarwinGameConfig(), RecordBook())

    def test_early_termination_override(self, app):
        """Playoffs-style games must run to completion."""
        env = CloudEnvironment(seed=0)
        records = RecordBook()
        # A fast and a very slow player would normally early-terminate.
        idx = np.arange(app.space.size)
        times = app.true_time(idx)
        fast, slow = int(np.argmin(times)), int(np.argmax(times))
        report = play_one(
            env, app, [fast, slow], DarwinGameConfig(), records,
            allow_early_termination=False,
        )
        assert not report.outcome.early_terminated
        assert max(report.outcome.work) == pytest.approx(1.0, abs=1e-6)

    def test_clock_advance_flag(self, app):
        env = CloudEnvironment(seed=0)
        play_one(env, app, [0, 1], DarwinGameConfig(), RecordBook(),
                 advance_clock=False)
        assert env.now == 0.0
        play_one(env, app, [0, 1], DarwinGameConfig(), RecordBook(),
                 advance_clock=True)
        assert env.now > 0.0

    def test_config_early_termination_flag(self, app):
        env = CloudEnvironment(seed=0)
        records = RecordBook()
        idx = np.arange(app.space.size)
        times = app.true_time(idx)
        fast, slow = int(np.argmin(times)), int(np.argmax(times))
        cfg = DarwinGameConfig(early_termination=False)
        report = play_one(env, app, [fast, slow], cfg, records)
        assert not report.outcome.early_terminated
