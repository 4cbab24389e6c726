"""Unit tests for the double-elimination global phase."""

import pytest

from repro.apps import make_application
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig
from repro.core.executor import MatchExecutor
from repro.core.records import RecordBook
from repro.errors import TournamentError
from repro.rng import ensure_rng


@pytest.fixture(scope="module")
def app():
    return make_application("redis", scale="test")


def run_global(app, entrants, cfg=None, *, seed=0, env_seed=0, records=None):
    cfg = cfg or DarwinGameConfig()
    env = CloudEnvironment(seed=env_seed)
    records = records or RecordBook()
    for pos, e in enumerate(entrants):
        records.assign_region([e], pos % 7)
    executor = MatchExecutor(env, app, cfg, records)
    return executor.play_global(entrants, ensure_rng(seed)), records


class TestGlobalPhase:
    def test_main_bracket_reaches_target(self, app):
        entrants = list(range(0, 200))
        result, _ = run_global(app, entrants)
        assert len(result.main_bracket) <= DarwinGameConfig().main_bracket_target

    def test_wildcard_from_losers(self, app):
        entrants = list(range(0, 100))
        result, _ = run_global(app, entrants)
        assert result.wildcard >= 0
        assert result.wildcard not in result.main_bracket
        assert result.loser_bracket_size > 0

    def test_playoff_players_include_wildcard(self, app):
        entrants = list(range(0, 100))
        result, _ = run_global(app, entrants)
        players = result.playoff_players
        assert result.wildcard in players
        assert set(result.main_bracket) <= set(players)

    def test_without_double_elimination_no_wildcard(self, app):
        cfg = DarwinGameConfig(double_elimination=False)
        result, _ = run_global(app, list(range(0, 100)), cfg)
        assert result.wildcard == -1
        assert result.loser_bracket_size == 0

    def test_duplicate_entrants_deduplicated(self, app):
        result, _ = run_global(app, [1, 1, 2, 2, 3, 3, 4])
        assert len(set(result.playoff_players)) == len(result.playoff_players)

    def test_empty_entrants_rejected(self, app):
        with pytest.raises(TournamentError):
            run_global(app, [])

    def test_small_entry_passes_through(self, app):
        result, _ = run_global(app, [5, 6])
        assert set(result.main_bracket) == {5, 6}
        assert result.rounds == 0

    def test_winners_are_strong(self, app):
        """Main-bracket survivors should be much faster than the entrant pool."""
        import numpy as np

        entrants = [int(i) for i in app.space.sample_indices(150, seed=9, replace=False)]
        result, _ = run_global(app, entrants, env_seed=2)
        entrant_median = float(np.median(app.true_time(np.array(entrants))))
        for survivor in result.main_bracket:
            t = float(app.true_time(np.array([survivor]))[0])
            assert t < entrant_median

    def test_deterministic(self, app):
        a, _ = run_global(app, list(range(50)), seed=4, env_seed=4)
        b, _ = run_global(app, list(range(50)), seed=4, env_seed=4)
        assert a.main_bracket == b.main_bracket
        assert a.wildcard == b.wildcard


class TestGroupDiversity:
    def test_groups_mix_regions(self, app):
        """Players from the same region should spread across groups."""
        cfg = DarwinGameConfig(players_per_game=4)
        env = CloudEnvironment(seed=0)
        records = RecordBook()
        entrants = list(range(40))
        # Ten regions, four players each.
        for region in range(10):
            records.assign_region(entrants[4 * region: 4 * region + 4], region)
        executor = MatchExecutor(env, app, cfg, records)
        played = []
        play = executor.play

        def spy(lineups, **kwargs):
            played.append(lineups)
            return play(lineups, **kwargs)

        executor.play = spy
        executor.play_global(entrants, ensure_rng(0))
        # The first round deals all 40 entrants into ten groups of four.
        groups = played[0]
        assert sorted(p for g in groups for p in g) == entrants
        for group in groups:
            regions = records.region_ids(group).tolist()
            assert len(set(regions)) == len(regions)


class TestJudging:
    def test_consistency_matters(self, app):
        """With use_consistency_score, an erratic player can lose the group."""
        cfg = DarwinGameConfig()
        env = CloudEnvironment(seed=0)
        records = RecordBook()
        # Pre-load history: player 1 consistent winner, player 2 erratic.
        records.record_game([1, 2, 3], [1.0, 0.95, 0.4])
        records.record_game([1, 2, 3], [1.0, 0.3, 0.6])
        executor = MatchExecutor(env, app, cfg, records)
        # Players 1 and 2 tie on execution this game; consistency decides.
        winner_pos = executor.judge_game([1, 2, 3], [1.0, 1.0, 0.5])
        assert [1, 2, 3][winner_pos] == 1

    def test_execution_only_mode(self, app):
        cfg = DarwinGameConfig(use_consistency_score=False)
        env = CloudEnvironment(seed=0)
        records = RecordBook()
        records.record_game([1, 2], [0.5, 1.0])
        executor = MatchExecutor(env, app, cfg, records)
        winner_pos = executor.judge_game([1, 2], [1.0, 0.9])
        assert [1, 2][winner_pos] == 1  # judged by this game's scores alone
