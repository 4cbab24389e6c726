"""Unit tests for tournament score bookkeeping."""

import numpy as np
import pytest

from repro.core.records import RecordBook, finishing_order
from repro.errors import TournamentError


class TestPlayerRecord:
    """One player's row of the book, read through the vectorised accessors."""

    def test_defaults(self):
        book = RecordBook()
        assert book.games_played([7]).tolist() == [0]
        assert book.wins([7]).tolist() == [0]
        assert book.region_ids([7]).tolist() == [-1]
        assert book.mean_execution_scores([7]).tolist() == [0.0]
        assert book.consistency_scores([7]).tolist() == [0.0]

    def test_mean_execution_score(self):
        book = RecordBook()
        book.record_game([0, 1], [1.0, 0.9])
        book.record_game([0, 1], [0.5, 1.0])
        assert book.mean_execution_scores([0])[0] == pytest.approx(0.75)

    def test_consistency_score_is_mean_inverse_rank(self):
        book = RecordBook()
        book.record_game([0, 1], [1.0, 0.5])              # rank 1
        book.record_game([0, 1], [0.5, 1.0])              # rank 2
        book.record_game([0, 1, 2, 3], [0.1, 1.0, 0.9, 0.8])  # rank 4
        assert book.consistency_scores([0])[0] == pytest.approx(
            (1 + 0.5 + 0.25) / 3
        )


class TestRecordBook:
    def test_query_creates_slot(self):
        book = RecordBook()
        assert book.region_ids([5]).tolist() == [-1]
        assert 5 in book
        assert len(book) == 1

    def test_record_game_scores_and_ranks(self):
        book = RecordBook()
        winner = book.record_game([10, 20, 30], [1.0, 0.8, 0.4])
        assert winner == 0
        assert book.consistency_scores([10, 20, 30]).tolist() == [
            1.0, 0.5, pytest.approx(1 / 3)
        ]
        assert book.wins([10, 20]).tolist() == [1, 0]

    def test_consistency_across_games(self):
        book = RecordBook()
        book.record_game([1, 2], [1.0, 0.9])   # 1 ranks 1st
        book.record_game([1, 2], [0.7, 1.0])   # 1 ranks 2nd
        assert book.consistency_scores([1])[0] == pytest.approx((1.0 + 0.5) / 2)

    def test_total_evaluations(self):
        book = RecordBook()
        book.record_game([1, 2, 3], [1.0, 0.9, 0.8])
        book.record_game([1, 2], [1.0, 0.9])
        assert book.total_evaluations == 5

    def test_empty_game_rejected(self):
        with pytest.raises(TournamentError):
            RecordBook().record_game([], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(TournamentError):
            RecordBook().record_game([1], [1.0, 0.5])

    def test_nan_score_rejected(self):
        with pytest.raises(TournamentError):
            RecordBook().record_game([1, 2], [1.0, float("nan")])

    def test_score_vectors(self):
        book = RecordBook()
        book.record_game([1, 2], [1.0, 0.5])
        assert np.allclose(book.mean_execution_scores([1, 2]), [1.0, 0.5])
        assert np.allclose(book.consistency_scores([1, 2]), [1.0, 0.5])

    def test_assign_region_writes_every_index(self):
        book = RecordBook()
        book.assign_region([3, 1, 4], 2)
        book.assign_region([np.int64(5)], 0)
        assert book.region_ids([1, 3, 4, 5, 9]).tolist() == [2, 2, 2, 0, -1]
        assert book.games_played([3, 1, 4]).tolist() == [0, 0, 0]

    def test_assign_region_per_index(self):
        """One write for a round's newcomers of several regions; a known
        player may be reassigned within it."""
        book = RecordBook()
        book.assign_region([3, 1], 2)
        book.assign_region([7, 3, 70, 8], [0, 5, 0, 1])
        assert book.region_ids([1, 3, 7, 8, 70]).tolist() == [2, 5, 0, 1, 0]
        assert len(book) == 5

    def test_grows_past_initial_capacity(self):
        book = RecordBook()
        book.assign_region(range(100), 1)
        book.record_game([150, 3], [0.5, 1.0])
        assert book.region_ids([0, 99, 150, 400]).tolist() == [1, 1, -1, -1]
        assert book.wins([3, 150]).tolist() == [1, 0]
        assert book.games_played([150, 3, 42]).tolist() == [1, 1, 0]
        assert len(book) == 102


class TestIndexValidation:
    """A float, a bool or a negative index is refused, naming it, and
    nothing is booked."""

    def test_float_index_refused(self):
        book = RecordBook()
        with pytest.raises(TournamentError, match=r"index 1\.5 is not an integer"):
            book.record_game([1.5, 2], [1.0, 0.5])
        assert len(book) == 0 and book.total_evaluations == 0

    def test_negative_index_refused(self):
        book = RecordBook()
        with pytest.raises(TournamentError, match="index -3 is negative"):
            book.record_game([-3, 2], [1.0, 0.5])
        assert len(book) == 0 and book.total_evaluations == 0

    def test_bool_index_refused(self):
        book = RecordBook()
        with pytest.raises(TournamentError, match="index True is not an integer"):
            book.assign_region([True, 7], 1)
        assert len(book) == 0

    @pytest.mark.parametrize("indices", [
        np.array([2.0, 3.0]), np.array([True, False]), [np.float64(4.0)],
        [np.bool_(True)], ["3"],
    ], ids=["float-array", "bool-array", "numpy-float", "numpy-bool", "str"])
    def test_non_integers_refused_in_every_form(self, indices):
        book = RecordBook()
        with pytest.raises(TournamentError, match="is not an integer"):
            book.region_ids(indices)
        with pytest.raises(TournamentError, match="is not an integer"):
            indices[0] in book  # noqa: B015 - the membership test raises

    def test_negative_array_and_membership_refused(self):
        book = RecordBook()
        with pytest.raises(TournamentError, match="index -1 is negative"):
            book.mean_execution_scores(np.array([4, -1]))
        with pytest.raises(TournamentError, match="index -2 is negative"):
            -2 in book  # noqa: B015 - the membership test raises

    def test_integer_forms_accepted(self):
        book = RecordBook()
        book.assign_region(np.array([5, 3], dtype=np.uint32), 1)
        book.assign_region([np.int16(7), 8], 2)
        book.assign_region(range(9, 11), 3)
        assert book.region_ids([3, 5, 7, 8, 9, 10]).tolist() == [1, 1, 2, 2, 3, 3]
        assert 7 in book and np.int64(10) in book and 6 not in book


class TestRecordRound:
    def test_segmented_ranks_and_winners(self):
        """Ranks restart per game; ties share the better rank and the
        first tied seat wins."""
        book = RecordBook()
        winners = book.record_round(
            [1, 2, 3, 4, 5], [0.5, 1.0, 1.0, 1.0, 0.2], [3, 2]
        )
        assert winners.tolist() == [1, 0]
        assert book.consistency_scores([1, 2, 3, 4, 5]).tolist() == [
            pytest.approx(1 / 3), 1.0, 1.0, 1.0, 0.5
        ]
        assert book.wins([1, 2, 3, 4, 5]).tolist() == [0, 1, 0, 1, 0]
        assert book.total_evaluations == 5

    def test_player_in_two_games_of_a_round(self):
        book = RecordBook()
        book.record_round([1, 2, 1, 3], [1.0, 0.5, 0.25, 1.0], [2, 2])
        assert book.games_played([1]).tolist() == [2]
        assert book.wins([1]).tolist() == [1]
        assert book.mean_execution_scores([1])[0] == 0.625
        assert book.consistency_scores([1])[0] == 0.75

    def test_finishing_order_is_each_games_stable_sort(self):
        """One row sort of the padded round equals a stable sort per game."""
        rng = np.random.default_rng(5)
        for sizes in ([3], [2, 5, 1, 5], [4, 4, 4], [1, 1]):
            scores = rng.choice([0.25, 0.5, 1.0], size=sum(sizes))  # ties
            want, start = [], 0
            for n in sizes:
                block = scores[start:start + n]
                want += np.argsort(-block, kind="stable").tolist()
                start += n
            assert finishing_order(scores, sizes).tolist() == want

    def test_empty_round_books_nothing(self):
        book = RecordBook()
        assert book.record_round([], [], []).tolist() == []
        assert len(book) == 0 and book.total_evaluations == 0

    def test_round_validation(self):
        book = RecordBook()
        with pytest.raises(TournamentError):
            book.record_round([1, 2], [], [2])
        with pytest.raises(TournamentError):
            book.record_round([1, 2, 3], [1.0, 0.5, 1.0, 0.5], [2, 1])
        with pytest.raises(TournamentError):
            book.record_round([1, 2], [1.0, 0.5], [2, 0])
        with pytest.raises(TournamentError, match="seat 3 players"):
            book.record_round([1, 2], [1.0, 0.5], [2, 1])
        assert book.total_evaluations == 0


class TestCombinedRanking:
    def test_joint_winner(self):
        """Winner = lowest sum of execution and consistency rank (Fig. 7)."""
        book = RecordBook()
        # Player 1: always strong.  Player 2: spiky.  Player 3: weak.
        book.record_game([1, 2, 3], [1.0, 0.95, 0.5])
        book.record_game([1, 2, 3], [1.0, 0.6, 0.55])
        order = book.combined_rank_order([1, 2, 3])
        assert order[0] == 0  # player 1 first

    def test_consistency_breaks_execution_ties(self):
        book = RecordBook()
        book.record_game([1, 2], [1.0, 1.0])  # tied game
        book.record_game([1, 3], [1.0, 0.2])
        book.record_game([2, 3], [0.5, 1.0])  # player 2 loses one
        order = book.combined_rank_order([1, 2])
        assert [1, 2][order[0]] == 1

    def test_requires_a_score(self):
        book = RecordBook()
        book.record_game([1, 2], [1.0, 0.5])
        with pytest.raises(TournamentError):
            book.combined_rank_order([1, 2], use_execution=False, use_consistency=False)

    def test_single_score_modes(self):
        book = RecordBook()
        book.record_game([1, 2], [1.0, 0.5])
        exec_only = book.combined_rank_order([1, 2], use_consistency=False)
        cons_only = book.combined_rank_order([1, 2], use_execution=False)
        assert exec_only[0] == 0
        assert cons_only[0] == 0
