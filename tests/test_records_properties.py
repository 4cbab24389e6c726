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


def _record_round(book, games):
    """Book ``(players, scores)`` games as one round of flat seats."""
    return book.record_round(
        [p for players, _ in games for p in players],
        [score for _, scores in games for score in scores],
        [len(players) for players, _ in games],
    )


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
            winners = _record_round(book, games)
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
            winners = _record_round(by_round, games)
            singles = [by_game.record_game(p, s) for p, s in games]
            assert winners.tolist() == singles
            seen.update(p for players, _ in games for p in players)
        players = sorted(seen)
        assert _book_state(by_round, players) == _book_state(by_game, players)


#: Forms a caller may pass indices in.
_FORMS = ("list", "int64", "int32", "numpy scalars", "tuple")


def _as_form(values, form):
    if form == "int64":
        return np.array(values, dtype=np.int64)
    if form == "int32":
        return np.array(values, dtype=np.int32)
    if form == "numpy scalars":
        return [np.int64(v) for v in values]
    return tuple(values) if form == "tuple" else list(values)


@st.composite
def sparse_calls(draw):
    """Calls into the book over a few ids spread up to 10**7, each call's
    ids in one of the forms, so the dense map grows whenever a call brings
    a larger id; plus ``range`` s for region writes and reads."""
    ids = draw(st.lists(st.integers(0, 10**7), min_size=1, max_size=24,
                        unique=True))
    calls = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["assign", "round", "read", "range"]))
        if kind == "range":
            start = draw(st.integers(0, 10**7))
            step = draw(st.integers(1, 10**5))
            calls.append((kind, range(start, start + step * draw(
                st.integers(0, 6)), step), draw(st.integers(0, 5))))
            continue
        form = draw(st.sampled_from(_FORMS))
        if kind == "round":
            games = []
            for _ in range(draw(st.integers(1, 3))):
                players = draw(st.lists(st.sampled_from(ids), min_size=1,
                                        max_size=len(ids), unique=True))
                games.append((players, [draw(_TIED) for _ in players]))
            calls.append((kind, games, form))
        else:
            chosen = draw(st.lists(st.sampled_from(ids), max_size=10))
            calls.append((kind, chosen, form, draw(st.integers(0, 5))))
    return calls


class TestSparseIndices:
    """The dense id -> slot map against the dict-of-lists reference, with
    indices up to 10**7 in every form a caller passes them."""

    @given(sparse_calls())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_in_every_form(self, calls):
        book, oracle = RecordBook(), OracleRecordBook()
        for call in calls:
            kind = call[0]
            if kind == "range":
                _, indices, region = call
                book.assign_region(indices, region)
                for p in indices:
                    oracle.assign_region(p, region)
                assert book.region_ids(indices).tolist() == [region] * len(indices)
            elif kind == "round":
                _, games, form = call
                winners = book.record_round(
                    _as_form([p for players, _ in games for p in players], form),
                    [score for _, scores in games for score in scores],
                    [len(players) for players, _ in games],
                )
                assert winners.tolist() == [
                    oracle.record_game(p, s) for p, s in games
                ]
            elif kind == "assign":
                _, chosen, form, region = call
                book.assign_region(_as_form(chosen, form), region)
                for p in chosen:
                    oracle.assign_region(p, region)
            else:
                _, chosen, form, _ = call
                got = book.games_played(_as_form(chosen, form))
                assert got.tolist() == [oracle.get(p).games_played for p in chosen]

        # Slots in first-appearance order, whatever the form of each call.
        seen = list(oracle.records)
        assert book._slots_of(seen).tolist() == list(range(len(seen)))
        assert len(book) == len(seen)
        assert all(p in book for p in seen)
        unseen = [p for p in (0, 1, 10**7, 10**7 + 1) if p not in oracle.records]
        assert not any(p in book for p in unseen)
        assert len(book) == len(seen)
        records = [oracle.records[p] for p in seen]
        assert _book_state(book, seen) == {
            "games": [r.games_played for r in records],
            "wins": [r.wins for r in records],
            "regions": [r.region_id for r in records],
            "mean": [r.mean_execution_score for r in records],
            "consistency": [r.consistency_score for r in records],
            "evaluations": oracle.total_evaluations,
        }
