"""Tests for the dynamic-feedback extension (Sec. 5 discussion)."""

import pytest

from repro.apps import make_application
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig
from repro.core.dynamic import DynamicFeedbackDarwinGame, FeedbackConfig
from repro.core.tournament import DarwinGame
from repro.errors import TournamentError


@pytest.fixture(scope="module")
def app():
    return make_application("redis", scale="test")


class TestFeedbackConfig:
    def test_validation(self):
        with pytest.raises(TournamentError):
            FeedbackConfig(rounds=0)
        with pytest.raises(TournamentError):
            FeedbackConfig(duels_per_adjustment=0)

    def test_bad_dims_rejected(self, app):
        tuner = DynamicFeedbackDarwinGame(
            DarwinGameConfig(seed=0), FeedbackConfig(dynamic_dims=(99,))
        )
        with pytest.raises(TournamentError):
            tuner.tune(app, CloudEnvironment(seed=0))


class TestDynamicFeedback:
    def test_runs_and_reports(self, app):
        tuner = DynamicFeedbackDarwinGame(DarwinGameConfig(seed=1))
        result = tuner.tune(app, CloudEnvironment(seed=1))
        assert 0 <= result.best_index < app.space.size
        feedback = result.details["feedback"]
        assert feedback["games"] >= 1
        assert len(feedback["dynamic_dims"]) == 4
        assert feedback["tournament_winner"] in feedback["field"]

    def test_costs_more_than_plain_darwingame(self, app):
        """The paper: feedback raises tuning cost by over 10%."""
        env_a = CloudEnvironment(seed=2)
        plain = DarwinGame(DarwinGameConfig(seed=2)).tune(app, env_a)
        env_b = CloudEnvironment(seed=2)
        fancy = DynamicFeedbackDarwinGame(DarwinGameConfig(seed=2)).tune(app, env_b)
        assert fancy.core_hours > plain.core_hours

    def test_reports_its_own_cost_on_a_reused_environment(self, app):
        """Core-hours and tuning time are this campaign's deltas, feedback
        duels included, even after an earlier campaign on the same VM."""
        cfg = DarwinGameConfig(seed=1)
        env_plain, env = CloudEnvironment(seed=1), CloudEnvironment(seed=1)
        for e in (env_plain, env):
            DarwinGame(cfg).tune(app, e)  # an earlier campaign
        plain = DarwinGame(cfg).tune(app, env_plain)
        hours_before, time_before = env.ledger.snapshot(), env.now
        result = DynamicFeedbackDarwinGame(cfg).tune(app, env)
        assert result.details["feedback"]["games"] > 0
        assert result.core_hours == env.ledger.snapshot() - hours_before
        assert result.tuning_seconds == env.now - time_before
        assert result.tuning_seconds > plain.tuning_seconds

    def test_limited_improvement(self, app):
        """The paper: the extra cost buys under ~5% improvement."""
        env_a = CloudEnvironment(seed=3)
        plain = DarwinGame(DarwinGameConfig(seed=3)).tune(app, env_a)
        env_b = CloudEnvironment(seed=3)
        fancy = DynamicFeedbackDarwinGame(DarwinGameConfig(seed=3)).tune(app, env_b)
        t_plain = float(app.true_time([plain.best_index])[0])
        t_fancy = float(app.true_time([fancy.best_index])[0])
        assert t_fancy < t_plain * 1.10  # never much worse
        assert t_fancy > t_plain * 0.85  # and not a free lunch either

    def test_incumbent_only_replaced_by_consistent_winner(self, app):
        cfg = FeedbackConfig(rounds=1, duels_per_adjustment=3)
        tuner = DynamicFeedbackDarwinGame(DarwinGameConfig(seed=4), cfg)
        result = tuner.tune(app, CloudEnvironment(seed=4))
        feedback = result.details["feedback"]
        if feedback["replacements"] == 0:
            assert result.best_index == feedback["tournament_winner"]


class TestTrace:
    def test_report_mentions_all_phases(self, app):
        from repro.core.trace import format_tournament_report

        env = CloudEnvironment(seed=5)
        result = DarwinGame(DarwinGameConfig(seed=5)).tune(app, env)
        text = format_tournament_report(result)
        assert "phase I" in text
        assert "phase II" in text
        assert "phase III" in text
        assert "core-hours by phase" in text
        assert str(result.best_index) in text

    def test_report_includes_feedback_section(self, app):
        from repro.core.trace import format_tournament_report

        env = CloudEnvironment(seed=6)
        result = DynamicFeedbackDarwinGame(DarwinGameConfig(seed=6)).tune(app, env)
        assert "feedback loop" in format_tournament_report(result)
