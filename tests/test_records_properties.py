"""Property-based tests for tournament score bookkeeping (Figs. 5 and 7)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import RecordBook

from oracle.record_book import OracleRecordBook


@st.composite
def game_histories(draw):
    """A sequence of games over a small player population."""
    n_players = draw(st.integers(2, 10))
    n_games = draw(st.integers(1, 8))
    games = []
    for _ in range(n_games):
        k = draw(st.integers(2, n_players))
        players = draw(
            st.lists(
                st.integers(0, n_players - 1),
                min_size=k, max_size=k, unique=True,
            )
        )
        scores = [draw(st.floats(0.01, 1.0)) for _ in players]
        # Execution scores are normalised to the game's best (Fig. 5).
        best = max(scores)
        games.append((players, [s / best for s in scores]))
    return games


class TestRecordBookProperties:
    @given(game_histories())
    @settings(max_examples=80, deadline=None)
    def test_consistency_score_bounded(self, games):
        """1/rank lies in (0, 1], so its average must too."""
        book = RecordBook()
        for players, scores in games:
            book.record_game(players, scores)
        for players, _ in games:
            assert np.all(book.consistency_scores(players) > 0.0)
            assert np.all(book.consistency_scores(players) <= 1.0)

    @given(game_histories())
    @settings(max_examples=80, deadline=None)
    def test_total_evaluations_counts_seats(self, games):
        book = RecordBook()
        for players, scores in games:
            book.record_game(players, scores)
        assert book.total_evaluations == sum(len(p) for p, _ in games)

    @given(game_histories())
    @settings(max_examples=80, deadline=None)
    def test_wins_sum_to_games(self, games):
        book = RecordBook()
        for players, scores in games:
            book.record_game(players, scores)
        all_players = sorted({p for players, _ in games for p in players})
        assert book.wins(all_players).sum() == len(games)

    @given(game_histories())
    @settings(max_examples=80, deadline=None)
    def test_winner_has_top_execution_score(self, games):
        book = RecordBook()
        for players, scores in games:
            pos = book.record_game(players, scores)
            assert scores[pos] == max(scores)

    @given(game_histories())
    @settings(max_examples=80, deadline=None)
    def test_games_played_matches_appearances(self, games):
        book = RecordBook()
        appearances: dict = {}
        for players, scores in games:
            book.record_game(players, scores)
            for p in players:
                appearances[p] = appearances.get(p, 0) + 1
        players = list(appearances)
        assert book.games_played(players).tolist() == list(appearances.values())

    @given(game_histories())
    @settings(max_examples=60, deadline=None)
    def test_combined_rank_order_is_permutation(self, games):
        book = RecordBook()
        seen: set = set()
        for players, scores in games:
            book.record_game(players, scores)
            seen.update(players)
        pool = sorted(seen)
        order = book.combined_rank_order(pool)
        assert sorted(order.tolist()) == list(range(len(pool)))

    @given(game_histories())
    @settings(max_examples=60, deadline=None)
    def test_perfect_player_ranks_first(self, games):
        """A player that won every game with score 1.0 must lead the order."""
        book = RecordBook()
        hero = 999  # distinct from the generated population (0-9)
        for players, scores in games:
            book.record_game(list(players) + [hero], list(scores) + [1.0001])
        pool = sorted({p for players, _ in games for p in players} | {hero})
        order = book.combined_rank_order(pool)
        assert pool[int(order[0])] == hero


#: Scores drawn from here tie often, including 0.0 against -0.0.
_TIED = st.sampled_from([1.0, 0.5, 0.25, 0.0, -0.0])


@st.composite
def round_histories(draw):
    """Rounds of games over a small population, with the awkward cases.

    Games may seat one player; a player may sit in several games of one
    round (never twice in one game); scores tie often.  Each round also
    assigns a region to a random batch of players, some never played.
    """
    n_players = draw(st.integers(1, 8))
    ids = st.integers(0, n_players + 2)
    rounds = []
    for _ in range(draw(st.integers(1, 5))):
        games = []
        for _ in range(draw(st.integers(1, 4))):
            players = draw(
                st.lists(ids, min_size=1, max_size=n_players, unique=True)
            )
            scores = [
                draw(st.one_of(_TIED, st.floats(-2.0, 2.0))) for _ in players
            ]
            games.append((players, scores))
        assigned = draw(st.lists(ids, max_size=4))
        rounds.append((assigned, draw(st.integers(0, 3)), games))
    return rounds


def _book_state(book, players):
    return {
        "games": book.games_played(players).tolist(),
        "wins": book.wins(players).tolist(),
        "regions": book.region_ids(players).tolist(),
        "mean": book.mean_execution_scores(players).tolist(),
        "consistency": book.consistency_scores(players).tolist(),
        "evaluations": book.total_evaluations,
    }


class TestAgainstOracle:
    """The array book against the dict-of-lists reference, exactly."""

    @given(round_histories())
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_of_lists_reference(self, rounds):
        book, oracle = RecordBook(), OracleRecordBook()
        for assigned, region, games in rounds:
            book.assign_region(assigned, region)
            for p in assigned:
                oracle.assign_region(p, region)
            winners = book.record_round(
                [players for players, _ in games],
                [score for _, scores in games for score in scores],
            )
            expected = [oracle.record_game(p, s) for p, s in games]
            assert winners.tolist() == expected

        players = sorted(oracle.records)
        records = [oracle.records[p] for p in players]
        assert _book_state(book, players) == {
            "games": [r.games_played for r in records],
            "wins": [r.wins for r in records],
            "regions": [r.region_id for r in records],
            "mean": [r.mean_execution_score for r in records],
            "consistency": [r.consistency_score for r in records],
            "evaluations": oracle.total_evaluations,
        }
        assert len(book) == len(oracle.records)

    @given(round_histories())
    @settings(max_examples=150, deadline=None)
    def test_round_booking_equals_game_by_game(self, rounds):
        by_round, by_game = RecordBook(), RecordBook()
        seen = set()
        for _, _, games in rounds:
            winners = by_round.record_round(
                [players for players, _ in games],
                [score for _, scores in games for score in scores],
            )
            singles = [by_game.record_game(p, s) for p, s in games]
            assert winners.tolist() == singles
            seen.update(p for players, _ in games for p in players)
        players = sorted(seen)
        assert _book_state(by_round, players) == _book_state(by_game, players)
