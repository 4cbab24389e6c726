"""Tests for the shared evaluation protocol (strategy factory, repeats)."""

import pytest

from repro import api
from repro.apps import make_application
from repro.errors import ReproError
from repro.experiments.protocol import (
    STRATEGY_NAMES,
    _make_strategy,
    repeat_strategy,
    run_strategy,
)


@pytest.fixture(scope="module")
def app():
    return make_application("redis", scale="test")


class TestStrategyFactory:
    @pytest.mark.parametrize(
        "name", [n for n in api.SUPPORTED_STRATEGIES if n != "Optimal"]
    )
    def test_known_strategies_instantiate(self, name):
        tuner = _make_strategy(name, seed=0)
        assert hasattr(tuner, "tune")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ReproError):
            _make_strategy("SkyNet", seed=0)

    def test_figure_names_all_constructible(self):
        for name in STRATEGY_NAMES:
            if name != "Optimal":
                _make_strategy(name, seed=0)


class TestRunStrategy:
    def test_optimal_is_free_and_noise_free(self, app):
        run = run_strategy(app, "Optimal", seed=0)
        assert run.core_hours == 0.0
        assert run.cov_percent == 0.0
        assert run.best_index == app.optimal.index

    def test_tuner_seed_decoupling(self, app):
        """Same env seed + same tuner seed => identical outcome; the
        tuner_seed argument alone changes the sampling pattern."""
        a = run_strategy(app, "BLISS", seed=3, tuner_seed=7)
        b = run_strategy(app, "BLISS", seed=3, tuner_seed=7)
        c = run_strategy(app, "BLISS", seed=3, tuner_seed=8)
        assert a.best_index == b.best_index
        # c may coincide by luck, but its observations differ; check cost.
        assert (c.best_index != a.best_index) or (c.core_hours != a.core_hours)

    def test_evaluation_attached(self, app):
        run = run_strategy(app, "DarwinGame", seed=0, eval_runs=20)
        assert run.evaluation.runs == 20
        assert run.mean_time > 0


class TestRepeatStrategy:
    def test_distinct_environments(self, app):
        runs = repeat_strategy(app, "BLISS", repeats=3, seed=0)
        assert len(runs) == 3
        # Different realisations: the measured times differ.
        times = {round(r.mean_time, 6) for r in runs}
        assert len(times) >= 2

    def test_fixed_tuner_seed_mode(self, app):
        runs = repeat_strategy(
            app, "DarwinGame", repeats=2, seed=0, vary_tuner_seed=False
        )
        assert len(runs) == 2
