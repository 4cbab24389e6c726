"""Tests for the batched round engine (vectorised multi-game simulation).

The engine's contract: a round of games simulated as one stacked tensor
computation books exactly what the same games would book one at a time,
because every game draws from its own child generator keyed by its position
in the round.  These tests pin that equivalence, the determinism of whole
tunes, their independence from how the kernel chunks rounds and blocks its
scan, and the round semantics of ``MatchExecutor.play``.
"""

import pytest

from repro.apps import make_application
from repro.cloud import colocation
from repro.cloud.environment import CloudEnvironment
from repro.cloud.vm import PRESETS
from repro.core.config import DarwinGameConfig
from repro.core.executor import MatchExecutor
from repro.core.records import RecordBook
from repro.core.tournament import DarwinGame

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
        split = (
            env_split.run_colocated_batch(app, lineups[:1], work_deviation=0.1)
            + env_split.run_colocated_batch(app, lineups[1:3], work_deviation=0.1)
            + env_split.run_colocated_batch(app, lineups[3:], work_deviation=0.1)
        )
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


def _redis_tune_outcome():
    """Best index, evaluations and core-hours of one test-scale redis tune."""
    result = DarwinGame(DarwinGameConfig(seed=1)).tune(_APP, env(7))
    return result.best_index, result.evaluations, result.core_hours


class TestKernelSplitting:
    """How the kernel splits its work never changes a tune: a round may be
    cut into budget-sized chunks and its scan into segment blocks, because
    every game draws from its own generator and stops at its own segment."""

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
