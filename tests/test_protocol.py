"""Tests for the per-campaign protocol (tuner table, oracle, repeats)."""

import pytest

from repro import api
from repro.campaigns import (
    CampaignRunner,
    CampaignSpec,
    execute_campaign,
    repeat_specs,
)
from repro.campaigns.runner import _TUNERS, cached_application
from repro.experiments import STRATEGY_NAMES


@pytest.fixture(scope="module")
def app():
    return cached_application("redis", "test")


def _run(strategy, **fields):
    """One test-scale redis campaign; it must finish."""
    record = execute_campaign(
        CampaignSpec(app="redis", strategy=strategy, scale="test", **fields)
    )
    assert record.ok, record.error
    return record


class TestStrategyFactory:
    @pytest.mark.parametrize(
        "name", [n for n in api.SUPPORTED_STRATEGIES if n != "Optimal"]
    )
    def test_known_strategies_instantiate(self, name):
        tuner = _TUNERS[name](0, "darwin")
        assert hasattr(tuner, "tune")

    def test_unknown_strategy_rejected(self):
        """Straight to the runner, an unknown name is a failed record;
        ``validate_grid`` refuses it before that on every entry point."""
        record = execute_campaign(
            CampaignSpec(app="redis", strategy="SkyNet", scale="test")
        )
        assert not record.ok
        assert record.error.startswith("ReproError: unknown strategy 'SkyNet'")

    def test_figure_names_all_constructible(self):
        for name in STRATEGY_NAMES:
            if name != "Optimal":
                _TUNERS[name](0, "darwin")


class TestRunStrategy:
    def test_optimal_is_free_and_noise_free(self, app):
        run = _run("Optimal", seed=0)
        assert run.core_hours == 0.0
        assert run.cov_percent == 0.0
        assert run.best_index == app.optimal.index

    def test_tuner_seed_decoupling(self, app):
        """Same env seed + same tuner seed => identical outcome; the
        tuner_seed field alone changes the sampling pattern."""
        a = _run("BLISS", seed=3, tuner_seed=7)
        b = _run("BLISS", seed=3, tuner_seed=7)
        c = _run("BLISS", seed=3, tuner_seed=8)
        assert a.best_index == b.best_index
        # c may coincide by luck, but its observations differ; check cost.
        assert (c.best_index != a.best_index) or (c.core_hours != a.core_hours)

    def test_evaluation_attached(self, app):
        run = _run("DarwinGame", seed=0, eval_runs=20)
        assert run.evaluation.runs == 20
        assert run.mean_time > 0


class TestRepeatStrategy:
    def test_distinct_environments(self, app):
        specs = repeat_specs("redis", "BLISS", repeats=3, scale="test", seed=0)
        runs = CampaignRunner().run(specs).raise_on_failure().records
        assert len(runs) == 3
        # Different realisations: the measured times differ.
        times = {round(r.mean_time, 6) for r in runs}
        assert len(times) >= 2

    def test_fixed_tuner_seed_mode(self, app):
        specs = repeat_specs(
            "redis", "DarwinGame", repeats=2, scale="test", seed=0,
            vary_tuner_seed=False,
        )
        runs = CampaignRunner().run(specs).raise_on_failure().records
        assert len(runs) == 2
