"""The round scheduler against the per-pool oracle (``tests/oracle/swiss.py``).

:class:`~repro.formats.swiss.StreakSwiss` chooses every open pool's lineup
in whole-round passes.  Pool for pool it must emit the lineups of the pool
played alone, make the same generator calls (so every generator ends in
the same state), announce the same newcomers in the same order, and end
with the same champions, streaks, game counts and played lists.
"""

import numpy as np
from hypothesis import Phase, given, note, settings
from hypothesis import strategies as st

from oracle.swiss import StreakSwissPool
from repro.formats import StreakSwiss
from repro.space.regions import Region

#: Player ids stay below this, so score and strength tables are small.
_ID_SPAN = 8000


def _winners(lineups, round_no, strength):
    """Each lineup's winner: its strongest seat after noise keyed by the
    round and the player, so a pool's winners depend on its lineups only."""
    winners = []
    for lineup in lineups:
        players = np.asarray(lineup)
        noise = (players * 2654435761 + round_no * 40503) % 1000 / 2000.0
        winners.append(lineup[int(np.argmax(strength[players] + noise))])
    return winners


def _score_table(seed, mix):
    """Mean execution scores with ties and zeros: levels, random values or
    a mix of both."""
    rng = np.random.default_rng(seed)
    levels = rng.choice([0.0, 0.0, 0.25, 0.5, 1.0], _ID_SPAN)
    return np.where(rng.random(_ID_SPAN) < mix, rng.random(_ID_SPAN), levels)


def _assign_log(sink, pool):
    return lambda players: sink.extend((p, pool) for p in players)


def _drive(pools, seeds, table, strength, **options):
    """Play ``pools`` through the scheduler and through one oracle per
    pool, round for round; assert they agree, return the scheduler."""
    def scores(players):
        return table[np.asarray(players, dtype=np.int64)]

    assigned, expected_assigned = [], []
    run = StreakSwiss(
        pools, [np.random.default_rng(s) for s in seeds], scores=scores,
        on_assign=lambda players, ks: assigned.extend(zip(players, ks)),
        **options,
    )
    oracles = [
        StreakSwissPool(
            pool, np.random.default_rng(s), scores=scores,
            on_assign=_assign_log(expected_assigned, k), **options,
        )
        for k, (pool, s) in enumerate(zip(pools, seeds))
    ]
    round_no = 0
    while True:
        lineups = run.pairings()
        expected, playing = [], []
        for k, oracle in enumerate(oracles):
            lineup = oracle.next_lineup()
            if lineup is not None:
                expected.append(lineup)
                playing.append(k)
        assert assigned == expected_assigned
        if lineups is None:
            assert expected == []
            break
        assert lineups == expected, f"round {round_no}"
        assert run.playing.tolist() == playing
        winners = _winners(lineups, round_no, strength)
        run.advance(winners)
        for k, winner in zip(playing, winners):
            oracles[k].observe(winner)
        # Scores move between rounds, as the score book's do.
        table[winners] = np.minimum(table[winners] + 0.125, 1.0)
        assert run.champions.tolist() == [o.champion for o in oracles]
        assert run.streaks.tolist() == [o.streak for o in oracles]
        round_no += 1

    assert run.done
    played, counts = run.played()
    assert played.tolist() == [p for o in oracles for p in o.played_players]
    assert counts.tolist() == [len(o.played_players) for o in oracles]
    assert run.champions.tolist() == [o.champion for o in oracles]
    assert run.streaks.tolist() == [o.streak for o in oracles]
    assert run.games.tolist() == [o.games for o in oracles]
    assert run.lone.tolist() == [o.lone is not None for o in oracles]
    for ours, oracle in zip(run.rngs, oracles):
        assert ours.bit_generator.state == oracle.rng.bit_generator.state
    return run


#: Pool sizes: a lone player, a pair, small pools dealt from a permutation
#: (at most four games' worth of players) and large ones drawn lazily.
_SIZES = st.one_of(
    st.just(1), st.just(2), st.integers(3, 64), st.integers(65, 1500),
)


@st.composite
def _pools(draw, max_pools=300):
    n = draw(st.integers(1, max_pools))
    sizes = draw(st.lists(_SIZES, min_size=n, max_size=n))
    starts = draw(st.lists(st.integers(0, 3000), min_size=n, max_size=n))
    strides = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return [
        Region(k, start, start + size * stride, stride)
        for k, (size, start, stride) in enumerate(zip(sizes, starts, strides))
    ]


#: Every phase but shrinking: each shrink step of a failing example of up
#: to 300 pools replays whole phases, and shrinking one took minutes.
_NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


class TestAgainstPerPoolOracle:
    @given(
        pools=_pools(),
        seed=st.integers(0, 2**32 - 1),
        players_per_game=st.integers(2, 32),
        win_streak=st.integers(2, 4),
        swiss_style=st.booleans(),
        max_rounds=st.one_of(st.none(), st.integers(0, 6)),
        mix=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=30, deadline=None, phases=_NO_SHRINK)
    def test_same_lineups_draws_and_results(
        self, pools, seed, players_per_game, win_streak, swiss_style,
        max_rounds, mix,
    ):
        note(f"{len(pools)} pools of sizes {[pool.size for pool in pools]}")
        seeds = [[seed, k] for k in range(len(pools))]
        strength = np.random.default_rng(seed).random(_ID_SPAN)
        _drive(
            pools, seeds, _score_table(seed, mix), strength,
            players_per_game=players_per_game, win_streak=win_streak,
            swiss_style=swiss_style, max_rounds=max_rounds,
        )

    def test_bench_shaped_pools(self):
        """Interleaved regions of 256 players, 32 seats a game: lazy draws
        over 13+ rounds, with repeat draws and second attempts."""
        pools = [Region(k, k, 256 * 60, stride=60) for k in range(60)]
        strength = np.random.default_rng(1).random(256 * 60)
        table = np.random.default_rng(2).random(256 * 60)
        run = _drive(
            pools, [[7, k] for k in range(60)], table, strength,
            players_per_game=32, win_streak=3,
        )
        assert run.games.max() >= 4


class TestPoolAloneOrAmongOthers:
    @given(
        pools=_pools(max_pools=40),
        seed=st.integers(0, 2**32 - 1),
        players_per_game=st.integers(2, 32),
        swiss_style=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_pool_lineups_and_draws_do_not_depend_on_company(
        self, pools, seed, players_per_game, swiss_style
    ):
        table = _score_table(seed, 0.5)
        strength = np.random.default_rng(seed).random(_ID_SPAN)
        options = dict(
            players_per_game=players_per_game, win_streak=3,
            swiss_style=swiss_style,
            scores=lambda players: table[np.asarray(players, dtype=np.int64)],
        )

        def play(chosen):
            run = StreakSwiss(
                [pools[k] for k in chosen],
                [np.random.default_rng([seed, k]) for k in chosen], **options,
            )
            seen = {k: [] for k in chosen}
            round_no = 0
            while (lineups := run.pairings()) is not None:
                for k, lineup in zip(run.playing.tolist(), lineups):
                    seen[chosen[k]].append(lineup)
                run.advance(_winners(lineups, round_no, strength))
                round_no += 1
            return seen, {k: rng.bit_generator.state
                          for k, rng in zip(chosen, run.rngs)}

        together, together_states = play(list(range(len(pools))))
        for k in range(min(len(pools), 5)):
            alone, alone_states = play([k])
            assert alone[k] == together[k]
            assert alone_states[k] == together_states[k]


class _StuckGenerator(np.random.Generator):
    """Every integer draw lands on the pool's first player."""

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        return np.zeros(size, dtype=dtype)


class TestPoolThatCannotSeatAGame:
    def test_terminates_unplayed_and_the_oracle_agrees(self):
        """A lazily drawing pool that finds one newcomer in its 20 attempts
        seats no game: it terminates without a game and announces nobody,
        while the other pools play on."""
        pools = [Region(0, 0, 100), Region(1, 100, 200)]
        stuck = _StuckGenerator(np.random.PCG64(3))
        announced = []
        run = StreakSwiss(
            pools, [stuck, np.random.default_rng(4)], players_per_game=8,
            win_streak=2, scores=lambda players: np.ones(len(players)),
            on_assign=lambda players, ks: announced.extend(ks),
        )
        oracle = StreakSwissPool(
            pools[0], _StuckGenerator(np.random.PCG64(3)), players_per_game=8,
            win_streak=2, scores=lambda players: np.ones(len(players)),
        )
        lineups = run.pairings()
        assert oracle.next_lineup() is None and oracle.done
        assert run.playing.tolist() == [1]
        assert len(lineups) == 1 and set(announced) == {1}
        run.advance([lineups[0][0]])
        assert run.games.tolist() == [0, 1]
        assert run.champions[0] == -1
        assert stuck.bit_generator.state == oracle.rng.bit_generator.state
