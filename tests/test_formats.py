"""Unit and property tests for the generic tournament-format schedulers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.formats import (
    Barrage,
    DoubleElimination,
    NoisyStrengthOracle,
    RecordedMatch,
    RoundRobin,
    SingleElimination,
    SwissSystem,
    run_schedule,
)


def noiseless(strengths, seed=0):
    return NoisyStrengthOracle(strengths, noise_std=0.0, seed=seed)


class TestRecordedMatch:
    def test_winner_loser(self):
        m = RecordedMatch(players=(5, 9), ranking=(1, 0))
        assert m.winner == 9
        assert m.loser == 5

    def test_invalid_ranking(self):
        with pytest.raises(ReproError):
            RecordedMatch(players=(1, 2), ranking=(0, 0))


class TestNoisyStrengthOracle:
    def test_deterministic_without_noise(self):
        oracle = noiseless([1.0, 3.0, 2.0])
        match = oracle.play([0, 1, 2])
        assert match.winner == 1
        assert match.ranking == (1, 2, 0)

    def test_counts_games(self):
        oracle = noiseless([1.0, 2.0])
        oracle.play([0, 1])
        oracle.play([1, 0])
        assert oracle.games_played == 2
        assert len(oracle.history) == 2

    def test_best_player(self):
        assert noiseless([0.1, 0.9, 0.5]).best_player == 1

    def test_rejects_duplicates(self):
        with pytest.raises(ReproError):
            noiseless([1.0, 2.0]).play([0, 0])

    def test_rejects_single_player(self):
        with pytest.raises(ReproError):
            noiseless([1.0, 2.0]).play([0])

    def test_rejects_negative_noise(self):
        with pytest.raises(ReproError):
            NoisyStrengthOracle([1.0], noise_std=-1.0)

    def test_noise_flips_close_matches(self):
        oracle = NoisyStrengthOracle([0.50, 0.51], noise_std=1.0, seed=0)
        winners = {oracle.play([0, 1]).winner for _ in range(50)}
        assert winners == {0, 1}


class TestSingleElimination:
    def test_noiseless_best_wins(self):
        strengths = [0.2, 0.9, 0.5, 0.7, 0.1, 0.3, 0.8, 0.6]
        result = run_schedule(
            SingleElimination(range(8)), noiseless(strengths)
        ).result()
        assert result.winner == 1

    def test_game_count_power_of_two(self):
        result = run_schedule(
            SingleElimination(range(16)), noiseless(np.arange(16.0))
        ).result()
        assert result.games == 15
        assert result.byes == 0

    def test_odd_field_byes(self):
        result = run_schedule(
            SingleElimination(range(7)), noiseless(np.arange(7.0))
        ).result()
        assert result.games == 6
        assert result.byes >= 1

    def test_single_player(self):
        result = run_schedule(
            SingleElimination([3]), noiseless([0, 0, 0, 1.0])
        ).result()
        assert result.winner == 3
        assert result.games == 0

    def test_rejects_duplicates(self):
        with pytest.raises(ReproError):
            run_schedule(
                SingleElimination([1, 1]), noiseless([0.0, 1.0])
            ).result()


class TestDoubleElimination:
    def test_noiseless_best_wins(self):
        strengths = np.linspace(0, 1, 8)
        result = run_schedule(
            DoubleElimination(range(8)), noiseless(strengths)
        ).result()
        assert result.winner == 7

    def test_more_games_than_single_elim(self):
        strengths = np.linspace(0, 1, 16)
        se = run_schedule(
            SingleElimination(range(16)), noiseless(strengths)
        ).result()
        de = run_schedule(
            DoubleElimination(range(16)), noiseless(strengths, seed=1)
        ).result()
        assert de.games > se.games

    def test_two_player_field(self):
        result = run_schedule(
            DoubleElimination([0, 1]), noiseless([0.3, 0.8])
        ).result()
        assert result.winner == 1

    def test_everyone_loses_twice_before_elimination(self):
        """Count losses: nobody outside the top two has fewer than... wait —
        everyone eliminated must have exactly two losses; the runner-up has
        one or two; the winner at most one."""
        strengths = np.linspace(0, 1, 8)
        oracle = NoisyStrengthOracle(strengths, noise_std=0.5, seed=3)
        result = run_schedule(DoubleElimination(range(8)), oracle).result()
        losses = {p: 0 for p in range(8)}
        for match in oracle.history:
            losses[match.loser] += 1
        assert losses[result.winner] <= 1
        for p in range(8):
            if p not in (result.winner, result.runner_up):
                assert losses[p] == 2, f"player {p} eliminated with {losses[p]} losses"

    def test_bracket_reset_possible(self):
        """Under heavy noise the loser-bracket champion sometimes forces a reset."""
        resets = 0
        for seed in range(40):
            oracle = NoisyStrengthOracle(np.linspace(0, 1, 8), noise_std=2.0, seed=seed)
            resets += run_schedule(
                DoubleElimination(range(8)), oracle
            ).result().grand_final_needed_reset
        assert resets > 0

    def test_rejects_single_player(self):
        with pytest.raises(ReproError):
            run_schedule(DoubleElimination([0]), noiseless([1.0])).result()


class TestSwissSystem:
    def test_noiseless_best_wins(self):
        strengths = np.linspace(0, 1, 16)
        result = run_schedule(
            SwissSystem(range(16)), noiseless(strengths)
        ).result()
        assert result.winner == 15

    def test_default_rounds_logarithmic(self):
        result = run_schedule(
            SwissSystem(range(16)), noiseless(np.arange(16.0))
        ).result()
        assert result.rounds == 4  # ceil(log2(16))

    def test_fewer_games_than_round_robin(self):
        strengths = np.arange(16.0)
        swiss = run_schedule(
            SwissSystem(range(16)), noiseless(strengths)
        ).result()
        rr = run_schedule(
            RoundRobin(range(16)), noiseless(strengths, seed=1)
        ).result()
        assert swiss.games < rr.games

    def test_odd_field_byes_score(self):
        result = run_schedule(
            SwissSystem(range(5), rounds=3), noiseless(np.arange(5.0))
        ).result()
        assert result.winner == 4
        assert sum(result.scores.values()) == pytest.approx(3 * (2 + 1))
        # 3 rounds x (2 games + 1 bye) each award 3 points total per round.

    def test_standings_sorted_by_score(self):
        result = run_schedule(
            SwissSystem(range(8)), noiseless(np.arange(8.0))
        ).result()
        scores = [result.scores[p] for p in result.standings]
        assert scores == sorted(scores, reverse=True)

    def test_no_rematch_when_avoidable(self):
        oracle = noiseless(np.arange(8.0))
        run_schedule(SwissSystem(range(8), rounds=3), oracle).result()
        seen = [tuple(sorted(m.players)) for m in oracle.history]
        assert len(seen) == len(set(seen))

    def test_rejects_bad_rounds(self):
        with pytest.raises(ReproError):
            SwissSystem(range(4), rounds=0)


class TestRoundRobin:
    def test_noiseless_best_wins(self):
        result = run_schedule(
            RoundRobin(range(6)), noiseless(np.arange(6.0))
        ).result()
        assert result.winner == 5
        assert result.games == 15

    def test_standings_complete(self):
        result = run_schedule(
            RoundRobin(range(6)), noiseless(np.arange(6.0))
        ).result()
        assert sorted(result.standings) == list(range(6))

    def test_multiple_rounds(self):
        result = run_schedule(
            RoundRobin(range(4), rounds=2), noiseless(np.arange(4.0))
        ).result()
        assert result.games == 12

    def test_noiseless_standings_match_strengths(self):
        strengths = [0.3, 0.9, 0.1, 0.6]
        result = run_schedule(
            RoundRobin(range(4)), noiseless(strengths)
        ).result()
        assert list(result.standings) == [1, 3, 0, 2]

    def test_rejects_single(self):
        with pytest.raises(ReproError):
            run_schedule(RoundRobin([0]), noiseless([1.0])).result()


class TestBarrage:
    def test_four_player_structure(self):
        """Seeds 1-2 play for a final spot; barrage decides the second."""
        oracle = noiseless([0.9, 0.8, 0.7, 0.6])
        result = run_schedule(Barrage([0, 1, 2, 3]), oracle).result()
        assert result.games == 3
        assert result.finalists == (0, 1)
        # Game 1: 0 beats 1; game 2: 2 beats 3; game 3 (barrage): 1 beats 2.
        assert 3 in result.eliminated and 2 in result.eliminated

    def test_two_player_field_passthrough(self):
        result = run_schedule(
            Barrage([4, 7]), noiseless(np.arange(8.0))
        ).result()
        assert result.finalists == (4, 7)
        assert result.games == 0

    def test_odd_field_byes(self):
        """Odd fields are handled with byes: the odd bottom seed advances
        unplayed into the barrage (how a 3-player playoff works)."""
        result = run_schedule(
            Barrage([0, 1, 2]), noiseless([0.9, 0.8, 0.7])
        ).result()
        # Game 1: 0 beats 1; barrage: 1 (top loser) beats 2 (bottom bye).
        assert result.games == 2
        assert result.finalists == (0, 1)
        assert result.eliminated == (2,)

    def test_barrage_gives_top_loser_second_chance(self):
        """The seed-1 player losing game 1 can still reach the final."""
        # Strengths: seed 0 slightly below seed 1, but far above seeds 2-3.
        oracle = noiseless([0.8, 0.9, 0.2, 0.1])
        result = run_schedule(Barrage([0, 1, 2, 3]), oracle).result()
        assert set(result.finalists) == {0, 1}

    def test_eight_player_field(self):
        oracle = noiseless(np.linspace(0.1, 0.9, 8)[::-1])  # seed order = strength
        result = run_schedule(Barrage(range(8)), oracle).result()
        assert len(result.finalists) == 2
        assert len(set(result.finalists)) == 2
        assert result.finalists[0] not in result.eliminated


class TestFormatProperties:
    @given(st.integers(2, 24), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_single_elim_always_produces_a_winner(self, n, seed):
        rng = np.random.default_rng(seed)
        strengths = rng.uniform(0, 1, n)
        oracle = NoisyStrengthOracle(strengths, noise_std=0.5, seed=seed)
        result = run_schedule(SingleElimination(range(n)), oracle).result()
        assert 0 <= result.winner < n
        assert result.games == n - 1

    @given(st.integers(2, 20), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_double_elim_winner_has_at_most_one_loss(self, n, seed):
        rng = np.random.default_rng(seed)
        strengths = rng.uniform(0, 1, n)
        oracle = NoisyStrengthOracle(strengths, noise_std=0.5, seed=seed)
        result = run_schedule(DoubleElimination(range(n)), oracle).result()
        losses = {p: 0 for p in range(n)}
        for match in oracle.history:
            losses[match.loser] += 1
        assert losses[result.winner] <= 1

    @given(st.integers(2, 24), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_swiss_every_player_plays_every_round(self, n, seed):
        rng = np.random.default_rng(seed)
        strengths = rng.uniform(0, 1, n)
        oracle = NoisyStrengthOracle(strengths, noise_std=0.3, seed=seed)
        result = run_schedule(SwissSystem(range(n)), oracle).result()
        played = {p: 0 for p in range(n)}
        for match in oracle.history:
            for p in match.players:
                played[p] += 1
        # With byes a player may sit out a round, but nobody plays more than
        # one game per round.
        assert all(c <= result.rounds for c in played.values())
        assert result.games == sum(played.values()) // 2

    @given(st.integers(1, 12).map(lambda k: 2 * k), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_barrage_produces_two_distinct_finalists(self, n, seed):
        rng = np.random.default_rng(seed)
        strengths = rng.uniform(0, 1, n)
        oracle = NoisyStrengthOracle(strengths, noise_std=0.5, seed=seed)
        result = run_schedule(Barrage(range(n)), oracle).result()
        assert len(result.finalists) == 2
        assert result.finalists[0] != result.finalists[1]
        assert set(result.eliminated).isdisjoint(result.finalists)
