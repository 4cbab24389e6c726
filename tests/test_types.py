"""Unit tests for shared value types."""

import pytest

from repro.types import ChoiceEvaluation, GameOutcome, TuningResult


class TestGameOutcome:
    def outcome(self, work=(0.5, 1.0, 0.25)):
        return GameOutcome(
            elapsed=120.0,
            work=work,
            finished=tuple(w >= 1.0 for w in work),
            early_terminated=False,
            start_time=0.0,
            mean_interference=0.3,
        )

    def test_winner(self):
        assert self.outcome().winner == 1

    def test_winner_first_on_tie(self):
        assert self.outcome(work=(1.0, 1.0)).winner == 0

    def test_num_players(self):
        assert self.outcome().num_players == 3


class TestChoiceEvaluation:
    def test_range(self):
        ev = ChoiceEvaluation(
            index=1, mean_time=100.0, cov_percent=1.0, min_time=95.0,
            max_time=110.0, true_time=98.0, sensitivity=0.1, runs=100,
        )
        assert ev.range_seconds == pytest.approx(15.0)

    def test_frozen(self):
        ev = ChoiceEvaluation(
            index=1, mean_time=100.0, cov_percent=1.0, min_time=95.0,
            max_time=110.0, true_time=98.0, sensitivity=0.1, runs=100,
        )
        with pytest.raises(AttributeError):
            ev.mean_time = 5.0


class TestTuningResult:
    def test_defaults(self):
        result = TuningResult(
            tuner_name="x", best_index=3, best_values=("a",),
            evaluations=10, core_hours=1.0, tuning_seconds=60.0,
        )
        assert result.details == {}
