"""Unit tests for the CloudEnvironment facade."""

import numpy as np
import pytest

from repro.apps import make_application
from repro.cloud.environment import CloudEnvironment
from repro.cloud.vm import PRESETS
from repro.errors import CloudError


@pytest.fixture(scope="module")
def app():
    return make_application("redis", scale="test")


def env(seed=0, **kwargs):
    return CloudEnvironment(PRESETS["m5.8xlarge"], seed=seed, **kwargs)


class TestClock:
    def test_starts_at_start_time(self):
        assert env(start_time=100.0).now == 100.0

    def test_negative_start_rejected(self):
        with pytest.raises(CloudError):
            env(start_time=-1.0)

    def test_advance(self):
        e = env()
        e.advance(50.0)
        assert e.now == 50.0

    def test_advance_negative_rejected(self):
        with pytest.raises(CloudError):
            env().advance(-1.0)


class TestSoloRuns:
    def test_solo_books_and_advances(self, app):
        e = env()
        out = e.run_solo(app, 0)
        assert out.observed_time > 0
        assert e.now == pytest.approx(out.observed_time)
        assert e.ledger.core_hours > 0

    def test_solo_without_advance(self, app):
        e = env()
        e.run_solo(app, 0, advance_clock=False)
        assert e.now == 0.0

    def test_observed_at_least_roughly_true_time(self, app):
        e = env()
        t_true = float(app.true_time(np.array([0]))[0])
        out = e.run_solo(app, 0)
        assert out.observed_time > 0.9 * t_true

    def test_batch_matches_length(self, app):
        e = env()
        indices = app.space.sample_indices(50, seed=1)
        times = e.run_solo_batch(app, indices)
        assert times.shape == (50,)
        assert times.min() > 0

    def test_batch_empty(self, app):
        assert env().run_solo_batch(app, []).size == 0

    def test_batch_advances_clock_by_total(self, app):
        e = env()
        times = e.run_solo_batch(app, app.space.sample_indices(10, seed=2))
        assert e.now == pytest.approx(times.sum())

    def test_batch_deterministic_given_seed(self, app):
        indices = app.space.sample_indices(20, seed=3)
        a = env(seed=9).run_solo_batch(app, indices)
        b = env(seed=9).run_solo_batch(app, indices)
        assert np.array_equal(a, b)


class TestColocated:
    def test_colocated_outcome(self, app):
        e = env()
        indices = app.space.sample_indices(8, seed=1, replace=False)
        out = e.run_colocated_batch(
            app, indices, [len(indices)], advance_clock=True
        )[0]
        assert out.num_players == 8
        assert max(out.work) == pytest.approx(1.0, abs=1e-6) or out.early_terminated

    def test_too_many_players_rejected(self, app):
        e = CloudEnvironment(PRESETS["m5.large"], seed=0)
        with pytest.raises(CloudError):
            e.run_colocated_batch(
                app,
                app.space.sample_indices(3, seed=0, replace=False),
                [3],
                advance_clock=True,
            )

    def test_books_whole_vm(self, app):
        e = env()
        indices = app.space.sample_indices(4, seed=1, replace=False)
        out = e.run_colocated_batch(
            app, indices, [len(indices)], advance_clock=True
        )[0]
        expected = e.vm.vcpus * out.elapsed / 3600.0
        assert e.ledger.core_hours == pytest.approx(expected)

    def test_advance_clock_flag(self, app):
        e = env()
        e.run_colocated_batch(
            app,
            app.space.sample_indices(4, seed=1, replace=False),
            [4],
            advance_clock=False,
        )
        assert e.now == 0.0


class TestMeasureChoice:
    def test_does_not_bill_or_advance(self, app):
        e = env()
        e.measure_choice(app, 0, runs=10)
        assert e.ledger.core_hours == 0.0
        assert e.now == 0.0

    def test_fields(self, app):
        e = env()
        ev = e.measure_choice(app, 5, runs=20)
        assert ev.runs == 20
        assert ev.min_time <= ev.mean_time <= ev.max_time
        assert ev.cov_percent >= 0.0
        assert ev.range_seconds >= 0.0

    def test_requires_two_runs(self, app):
        with pytest.raises(CloudError):
            env().measure_choice(app, 0, runs=1)

    def test_robust_config_less_variable(self, app):
        """A near-zero-sensitivity config must show a much lower CoV."""
        e = env()
        robust_idx = app.best_robust.index
        fragile_idx = app.optimal.index
        robust = e.measure_choice(app, robust_idx, runs=60)
        fragile = e.measure_choice(app, fragile_idx, runs=60)
        assert robust.cov_percent < fragile.cov_percent / 3.0
