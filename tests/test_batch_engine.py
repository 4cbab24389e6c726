"""Tests for the batched round engine (vectorised multi-game simulation).

The engine's contract: a round of games simulated as one stacked tensor
computation books exactly what the same games would book one at a time,
because every game draws from its own child generator keyed by its position
in the round.  These tests pin that equivalence, the determinism of whole
tunes, their independence from how the kernel chunks rounds and blocks its
scan, and the round semantics of ``MatchExecutor.play``.
"""

import functools

import numpy as np
import pytest

from repro.apps import make_application
from repro.cloud import colocation
from repro.cloud.environment import CloudEnvironment
from repro.cloud.vm import PRESETS
from repro.core.config import DarwinGameConfig
from repro.core.executor import MatchExecutor
from repro.core.records import RecordBook
from repro.core.tournament import DarwinGame
from repro.rng import spawn

VM = PRESETS["m5.8xlarge"]

_APP = make_application("redis", scale="test")


@pytest.fixture(scope="module")
def app():
    return _APP


def env(seed=0):
    return CloudEnvironment(VM, seed=seed)


class TestBatchMatchesSingle:
    def test_round_split_invariant(self, app):
        """Splitting a round into smaller batches cannot change outcomes:
        child generators are keyed by cumulative game order."""
        lineups = [
            app.space.sample_indices(6, seed=s, replace=False) for s in range(4)
        ]
        env_whole, env_split = env(3), env(3)
        whole = env_whole.run_colocated_batch(app, lineups, work_deviation=0.1)
        split = [
            *env_split.run_colocated_batch(app, lineups[:1], work_deviation=0.1),
            *env_split.run_colocated_batch(app, lineups[1:3], work_deviation=0.1),
            *env_split.run_colocated_batch(app, lineups[3:], work_deviation=0.1),
        ]
        assert whole == split
        assert env_whole.ledger.core_hours == pytest.approx(
            env_split.ledger.core_hours
        )

    def test_round_matches_one_game_at_a_time(self, app):
        """One executor round books the same scores/records as the same
        lineups played one game at a time."""
        cfg = DarwinGameConfig(seed=0)
        lineups = [
            list(app.space.sample_indices(5, seed=10 + s, replace=False))
            for s in range(3)
        ]
        env_round, env_seq = env(7), env(7)
        records_round, records_seq = RecordBook(), RecordBook()
        reports_round = MatchExecutor(env_round, app, cfg, records_round).play(
            lineups, label="t"
        )
        one_at_a_time = MatchExecutor(env_seq, app, cfg, records_seq)
        reports_seq = [
            one_at_a_time.play([lineup], label="t")[0] for lineup in lineups
        ]
        for a, b in zip(reports_round, reports_seq):
            assert a.indices == b.indices
            assert a.execution_scores == b.execution_scores
            assert a.winner_position == b.winner_position
            assert a.outcome == b.outcome
        players = sorted({p for lineup in lineups for p in lineup})
        for read in (
            RecordBook.games_played,
            RecordBook.wins,
            RecordBook.mean_execution_scores,
            RecordBook.consistency_scores,
        ):
            assert (
                read(records_round, players).tolist()
                == read(records_seq, players).tolist()
            )

    def test_round_advances_clock_by_longest_game(self, app):
        lineups = [
            app.space.sample_indices(4, seed=s, replace=False) for s in range(3)
        ]
        e = env(5)
        outcomes = e.run_colocated_batch(app, lineups, advance_clock=True)
        assert e.now == pytest.approx(max(o.elapsed for o in outcomes))

    def test_every_game_billed_in_full(self, app):
        lineups = [
            app.space.sample_indices(4, seed=s, replace=False) for s in range(3)
        ]
        e = env(5)
        outcomes = e.run_colocated_batch(app, lineups, label="round")
        expected = VM.vcpus * sum(o.elapsed for o in outcomes) / 3600.0
        assert e.ledger.core_hours == pytest.approx(expected)

    def test_empty_round(self, app):
        assert env().run_colocated_batch(app, []) == []


class TestTuneDeterminism:
    def test_same_seed_same_winner(self, app):
        """Two tunes with the same seeds pick the same winner and bill the
        same core-hours — the batched engine is seed-deterministic."""
        results = []
        for _ in range(2):
            e = env(9)
            results.append(DarwinGame(DarwinGameConfig(seed=5)).tune(app, e))
        assert results[0].best_index == results[1].best_index
        assert results[0].core_hours == pytest.approx(results[1].core_hours)
        assert results[0].evaluations == results[1].evaluations
        assert results[0].tuning_seconds == pytest.approx(
            results[1].tuning_seconds
        )


@functools.lru_cache(maxsize=None)
def _redis(scale):
    return _APP if scale == "test" else make_application("redis", scale=scale)


def _redis_tune_outcome(scale="test", seeds=(1, 7)):
    """Best index, evaluations and core-hours of one redis tune."""
    app = _redis(scale)
    tuner_seed, env_seed = seeds
    result = DarwinGame(DarwinGameConfig(seed=tuner_seed)).tune(app, env(env_seed))
    return result.best_index, result.evaluations, result.core_hours


#: (tuner, environment) seed pairs on which a scan block other than 32
#: moves core-hours in their last digits; the element budget moves nothing.
_SPLIT_CASES = [
    ("test", (3, 9)), ("test", (5, 11)),
    ("bench", (2, 8)), ("bench", (4, 10)), ("bench", (5, 11)), ("bench", (6, 12)),
]
_SPLIT_IDS = [f"{scale}-{a}-{b}" for scale, (a, b) in _SPLIT_CASES]


class TestKernelSplitting:
    """How the kernel splits its work, and what that may change.

    Cutting a round into budget-sized chunks never changes a tune, because
    every game draws from its own generator and stops at its own segment.
    The 32-segment scan block is part of the results contract: a game's
    work is each block's ``cumsum`` plus the work carried into it, so the
    block length sets where that addition rounds.  Other blocks keep the
    best index and the evaluations, but may move core-hours in the last
    digits."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return _redis_tune_outcome()

    @pytest.mark.parametrize("constant, value", [
        ("_BATCH_ELEMENT_BUDGET", 20_000),
        ("_SEGMENT_BLOCK", 8),
        ("_SEGMENT_BLOCK", 16),
        ("_SEGMENT_BLOCK", 24),
    ], ids=["budget-20000", "block-8", "block-16", "block-24"])
    def test_tune_is_identical(self, baseline, monkeypatch, constant, value):
        monkeypatch.setattr(colocation, constant, value)
        assert _redis_tune_outcome() == baseline

    @pytest.fixture(scope="class")
    def baselines(self):
        return {case: _redis_tune_outcome(*case) for case in _SPLIT_CASES}

    @pytest.mark.parametrize("case", _SPLIT_CASES, ids=_SPLIT_IDS)
    def test_budget_never_changes_a_tune(self, baselines, monkeypatch, case):
        monkeypatch.setattr(colocation, "_BATCH_ELEMENT_BUDGET", 20_000)
        assert _redis_tune_outcome(*case) == baselines[case]

    @pytest.mark.parametrize("block", [8, 16, 24])
    @pytest.mark.parametrize("case", _SPLIT_CASES, ids=_SPLIT_IDS)
    def test_block_keeps_winner_and_evaluations(
        self, baselines, monkeypatch, case, block
    ):
        monkeypatch.setattr(colocation, "_SEGMENT_BLOCK", block)
        assert _redis_tune_outcome(*case)[:2] == baselines[case][:2]

    def test_block_is_part_of_the_results(self, baselines, monkeypatch):
        """Core-hours of test-scale seeds (3, 9) move in the last digit."""
        monkeypatch.setattr(colocation, "_SEGMENT_BLOCK", 16)
        _, _, core_hours = _redis_tune_outcome("test", (3, 9))
        assert core_hours != baselines["test", (3, 9)][2]
        assert core_hours == pytest.approx(baselines["test", (3, 9)][2], rel=1e-14)

    def test_small_budget_splits_rounds(self, monkeypatch):
        """The budget case above really chunks rounds (8 of 15 here)."""
        chunk_counts = []
        unsplit = colocation._budget_chunks

        def counting(active, states):
            chunks = unsplit(active, states)
            chunk_counts.append(len(chunks))
            return chunks

        monkeypatch.setattr(colocation, "_budget_chunks", counting)
        monkeypatch.setattr(colocation, "_BATCH_ELEMENT_BUDGET", 20_000)
        _redis_tune_outcome()
        assert sum(count > 1 for count in chunk_counts) > 0


class TestGameSeeds:
    """Every game's generator is a child of the environment's run stream."""

    def test_rounds_draw_what_spawn_would_give(self, app):
        """Round after round, the replayed seeds give the games exactly the
        generators ``spawn(run_rng, n)`` would have made."""
        played, reference = env(4), env(4)
        for n_games, seed in [(3, 0), (1, 1), (5, 2)]:
            lineups = [
                app.space.sample_indices(4, seed=10 * seed + g, replace=False)
                for g in range(n_games)
            ]
            got = played.run_colocated_batch(app, lineups, work_deviation=0.1)
            flat = np.concatenate(lineups)
            want = colocation.simulate_colocated_batch(
                true_times=app.true_time(flat),
                sensitivities=app.sensitivity(flat),
                sizes=[len(lineup) for lineup in lineups],
                vm=VM,
                interference=reference.interference,
                start_time=reference.now,
                rngs=spawn(reference._run_rng, n_games),
                work_deviation=0.1,
            )
            assert got == want

    def test_nothing_else_spawns_from_the_run_stream(self, app):
        """numpy's own child count of the run stream stays 0 through a tune
        and solo runs, so the environment's count is the only one."""
        e = env(2)
        DarwinGame(DarwinGameConfig(seed=3)).tune(app, e)
        e.run_solo(app, 5)
        e.run_solo_batch(app, [1, 2, 3])
        assert e._run_rng.bit_generator.seed_seq.n_children_spawned == 0
        assert e._games_spawned > 0
