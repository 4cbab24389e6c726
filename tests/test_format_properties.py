"""Property tests for the format schedulers' structural invariants.

Every format is an incremental scheduler emitting rounds of independent
matches; these tests pin the invariants the unified engine relies on:

* odd player counts are handled with byes, never dropped games;
* no player is scheduled twice within one round (rounds run on parallel
  VMs — a player cannot be in two places);
* double elimination eliminates a player only after two losses;
* the classic match-count formulas hold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import (
    Barrage,
    DoubleElimination,
    GroupedDoubleElimination,
    NoisyStrengthOracle,
    RoundRobin,
    SingleElimination,
    StreakSwiss,
    SwissSystem,
    run_schedule,
)
from repro.space.regions import partition_range


def drive_with_audit(run, oracle):
    """Drive a scheduled run, asserting round-level invariants as we go."""
    rounds_seen = 0
    while (round_ := run.pairings()) is not None:
        seen = set()
        for match in round_.matches:
            assert len(match.players) >= 2
            assert len(set(match.players)) == len(match.players)
            for p in match.players:
                assert p not in seen, f"{p} scheduled twice in round {rounds_seen}"
                seen.add(p)
        for bye in round_.byes:
            assert bye not in seen, f"bye {bye} also plays in round {rounds_seen}"
        run.advance([oracle.play(match.players) for match in round_.matches])
        rounds_seen += 1
    return rounds_seen


def oracle_for(n, seed, noise=0.5):
    rng = np.random.default_rng(seed)
    return NoisyStrengthOracle(rng.uniform(0, 1, n), noise_std=noise, seed=seed)


class TestRoundDisjointness:
    """No scheduler ever seats a player in two games of one round."""

    @given(st.integers(2, 25), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_single_elimination(self, n, seed):
        drive_with_audit(SingleElimination(range(n)), oracle_for(n, seed))

    @given(st.integers(2, 25), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_double_elimination(self, n, seed):
        drive_with_audit(DoubleElimination(range(n)), oracle_for(n, seed))

    @given(st.integers(2, 25), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_swiss(self, n, seed):
        drive_with_audit(SwissSystem(range(n)), oracle_for(n, seed))

    @given(st.integers(2, 25), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_barrage(self, n, seed):
        drive_with_audit(Barrage(range(n)), oracle_for(n, seed))

    @given(st.integers(2, 16), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_round_robin(self, n, seed):
        drive_with_audit(RoundRobin(range(n)), oracle_for(n, seed))

    @given(st.integers(2, 40), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_grouped_double_elimination(self, n, seed):
        run = GroupedDoubleElimination(
            range(n), np.random.default_rng(seed), players_per_game=4, target=3
        )
        drive_with_audit(run, oracle_for(n, seed))
        outcome = run.result()
        assert 1 <= len(outcome.main_bracket)
        if n > 3:
            assert outcome.wildcard >= 0


class TestOddFieldsAndByes:
    """Odd fields are resolved with byes; nobody disappears from a bracket."""

    @given(st.integers(1, 12).map(lambda k: 2 * k + 1), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_single_elim_odd_fields_bye(self, n, seed):
        run = SingleElimination(range(n))
        drive_with_audit(run, oracle_for(n, seed))
        result = run.result()
        assert result.byes >= 1
        assert 0 <= result.winner < n

    @given(st.integers(1, 12).map(lambda k: 2 * k + 1), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_swiss_odd_field_everyone_scored(self, n, seed):
        run = SwissSystem(range(n), rounds=3)
        drive_with_audit(run, oracle_for(n, seed))
        result = run.result()
        # Byes score like wins: every round awards (n+1)/2 points in total.
        assert sum(result.scores.values()) == pytest.approx(3 * (n + 1) // 2)

    @given(st.integers(3, 25), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_barrage_partitions_the_field(self, n, seed):
        """Finalists + eliminated cover every entrant — odd-field byes
        funnel into the survivor pool instead of vanishing."""
        run = Barrage(range(n))
        drive_with_audit(run, oracle_for(n, seed))
        result = run.result()
        assert len(result.finalists) == 2
        assert result.finalists[0] != result.finalists[1]
        assert set(result.eliminated).isdisjoint(result.finalists)
        assert set(result.finalists) | set(result.eliminated) == set(range(n))

    @given(st.integers(3, 25), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_knockout_barrage_partitions_the_field(self, n, seed):
        run = Barrage(range(n), repechage=False)
        drive_with_audit(run, oracle_for(n, seed))
        result = run.result()
        assert len(result.finalists) == 2
        assert set(result.finalists) | set(result.eliminated) == set(range(n))


class TestDoubleEliminationLosses:
    """Nobody leaves a double-elimination bracket with fewer than two losses."""

    @given(st.integers(2, 20), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_eliminated_players_lost_twice(self, n, seed):
        oracle = oracle_for(n, seed, noise=0.8)
        run = DoubleElimination(range(n))
        drive_with_audit(run, oracle)
        result = run.result()
        losses = {p: 0 for p in range(n)}
        for match in oracle.history:
            losses[match.loser] += 1
        assert losses[result.winner] <= 1
        assert 1 <= losses[result.runner_up] <= 2
        for p in range(n):
            if p not in (result.winner, result.runner_up):
                assert losses[p] == 2, (
                    f"player {p} eliminated with {losses[p]} loss(es)"
                )


class TestMatchCountFormulas:
    """The classic game-count identities of each format."""

    @given(st.integers(2, 30), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_single_elim_n_minus_one(self, n, seed):
        result = run_schedule(
            SingleElimination(range(n)), oracle_for(n, seed)
        ).result()
        assert result.games == n - 1

    @given(st.integers(2, 16), st.integers(1, 3), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_round_robin_all_pairs(self, n, reps, seed):
        result = run_schedule(
            RoundRobin(range(n), rounds=reps), oracle_for(n, seed)
        ).result()
        assert result.games == reps * n * (n - 1) // 2

    @given(st.integers(2, 24), st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_swiss_rounds_times_half_field(self, n, rounds, seed):
        result = run_schedule(
            SwissSystem(range(n), rounds=rounds), oracle_for(n, seed)
        ).result()
        assert result.games == rounds * (n // 2)

    @given(st.integers(2, 20), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_double_elim_bounds(self, n, seed):
        # Every game produces exactly one loss; counting per-player losses
        # bounds the bracket at 2n-3 .. 2n-1 games.
        result = run_schedule(
            DoubleElimination(range(n)), oracle_for(n, seed, noise=1.0)
        ).result()
        assert 2 * n - 3 <= result.games <= 2 * n - 1


class TestStreakSwissPool:
    """The regional playing style honours the same scheduling contract:
    every open region pool seats one match per round, and no player sits
    in two of a round's matches."""

    @given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 10_000),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_terminates_with_a_champion(self, n_pools, size, seed, swiss_style):
        pools = partition_range(0, n_pools * size, n_pools)
        batches = []
        run = StreakSwiss(
            pools,
            [np.random.default_rng([seed, k]) for k in range(n_pools)],
            players_per_game=4,
            win_streak=3,
            swiss_style=swiss_style,
            scores=lambda players: np.ones(len(players)),
            on_assign=lambda new, ks: batches.append(list(zip(new, ks))),
        )
        oracle = oracle_for(n_pools * size, seed)
        rounds = drive_with_audit(run, oracle)
        assert run.done
        played, counts = run.played()
        members = np.split(played, np.cumsum(counts)[:-1])
        for k, pool in enumerate(pools):
            if pool.size == 1:
                assert run.lone[k] and run.games[k] == 0
                continue
            assert 1 <= run.games[k] <= rounds
            assert run.champions[k] in pool
            assert run.champions[k] in members[k]
            assert all(p in pool for p in members[k])
        assert run.games.max() == rounds
        # Every player who appeared in a lineup was announced exactly once,
        # with its own pool, in one non-empty call per round that brought
        # newcomers (and one for the single-player pools).
        assigned = [entry for batch in batches for entry in batch]
        assert all(batches)
        assert len(batches) <= rounds + 1
        assert len({p for p, _ in assigned}) == len(assigned)
        assert all(p in pools[k] for p, k in assigned)
        assert set(played.tolist()) <= {p for p, _ in assigned}
