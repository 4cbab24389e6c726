"""Tests for the Sec. 3.2/3.3 co-location strategy study."""

import pytest

from repro.errors import ReproError
from repro.experiments.colocation_study import (
    _mass_colocation_pick,
    _solo_exposure_pick,
    run_colocation_study,
)
from repro.apps import make_application


@pytest.fixture(scope="module")
def app():
    return make_application("redis", scale="test")


class TestPickers:
    def test_mass_pick_in_space(self, app):
        pick = _mass_colocation_pick(app, 0, n_players=64, games=2)
        assert 0 <= pick < app.space.size

    def test_mass_pick_deterministic(self, app):
        a = _mass_colocation_pick(app, 3, n_players=64, games=2)
        b = _mass_colocation_pick(app, 3, n_players=64, games=2)
        assert a == b

    def test_solo_pick_in_space(self, app):
        pick = _solo_exposure_pick(app, 0, budget=128)
        assert 0 <= pick < app.space.size

    def test_solo_pick_deterministic(self, app):
        assert _solo_exposure_pick(app, 5, budget=64) == _solo_exposure_pick(
            app, 5, budget=64
        )


class TestStudy:
    def test_small_study(self):
        result = run_colocation_study(
            "redis", scale="test", repeats=2, mass_players=64, mass_games=2
        )
        names = [o.strategy for o in result.outcomes]
        assert names == ["MassColocation", "SoloExposure", "DarwinGame"]
        for outcome in result.outcomes:
            assert outcome.mean_pick_time > 0
            assert outcome.repeats == 2

    def test_darwin_beats_mass(self):
        result = run_colocation_study(
            "redis", scale="test", repeats=2, mass_players=64, mass_games=2
        )
        assert (
            result.outcome("DarwinGame").mean_pick_time
            <= result.outcome("MassColocation").mean_pick_time
        )

    def test_rejects_bad_repeats(self):
        with pytest.raises(ReproError):
            run_colocation_study("redis", scale="test", repeats=0)

    def test_unknown_strategy_keyerror(self):
        result = run_colocation_study(
            "redis", scale="test", repeats=2, mass_players=64, mass_games=2
        )
        with pytest.raises(KeyError):
            result.outcome("nope")
