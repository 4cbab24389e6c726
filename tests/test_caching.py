"""The surface memo and the process's application cache."""

import numpy as np
import pytest

from repro.apps.registry import make_application
from repro.campaigns import CampaignRunner, CampaignSpec, runner
from repro.campaigns.runner import cached_application, clear_app_cache
from repro.errors import ReproError


class TestMemoSoundness:
    """The NaN-sentinel flaw: non-finite surface values must memoise too."""

    def test_nonfinite_value_computed_once(self):
        app = make_application("redis", scale="test")
        calls = []
        original = app._compute_true_time

        def nan_compute(idx):
            calls.append(np.asarray(idx).copy())
            out = original(idx)
            out = np.where(np.asarray(idx) == 7, np.nan, out)
            return out

        app._compute_true_time = nan_compute
        first = app.true_time([7, 8])
        again = app.true_time([7, 8])
        assert np.isnan(first[0]) and np.isnan(again[0])
        # One compute call total: the NaN entry must not be recomputed.
        assert len(calls) == 1

    def test_memo_still_correct_for_finite_values(self):
        app = make_application("redis", scale="test")
        idx = np.arange(64)
        direct = app._compute_true_time(idx)
        assert np.array_equal(app.true_time(idx), direct)
        assert np.array_equal(app.true_time(idx), direct)


class TestExportLoadSurfaces:
    def test_export_refuses_unmemoisable_space(self):
        app = make_application("redis", scale="full")
        assert not app.memoisable
        with pytest.raises(ReproError):
            app.export_surfaces()


class TestApplicationCache:
    """`cached_application`: one bounded LRU of built models per process."""

    def test_shares_one_instance(self):
        app = cached_application("redis", "test")
        assert cached_application("redis", "test") is app
        assert cached_application("redis", "bench") is not app
        assert cached_application("lammps", "test") is not app

    def test_bounded_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(runner, "APP_CACHE_SIZE", 2)
        redis = cached_application("redis", "test")
        gromacs = cached_application("gromacs", "test")
        cached_application("redis", "test")        # refresh redis
        cached_application("ffmpeg", "test")       # evicts gromacs, not redis
        assert list(runner._APPS) == [("redis", "test"), ("ffmpeg", "test")]
        assert cached_application("redis", "test") is redis
        assert cached_application("gromacs", "test") is not gromacs

    def test_clear(self):
        app = cached_application("redis", "test")
        cached_application("lammps", "test")
        clear_app_cache()
        assert not runner._APPS
        assert cached_application("redis", "test") is not app

    def test_process_globals_reset_hook(self):
        """A campaign runs against the process's shared instance, which the
        reset hook drops."""
        CampaignRunner().run(
            [CampaignSpec(app="redis", scale="test", eval_runs=2)]
        )
        app = runner._APPS[("redis", "test")]
        assert cached_application("redis", "test") is app
        clear_app_cache()
        assert cached_application("redis", "test") is not app

    def test_counts_hits_and_misses(self):
        from repro.telemetry.events import BufferEmitter, set_emitter

        events = BufferEmitter()
        previous = set_emitter(events)
        try:
            cached_application("redis", "test")
            cached_application("redis", "test")
            cached_application("lammps", "test")
        finally:
            set_emitter(previous)
        assert [
            (payload["name"], payload["fields"]) for payload in events.payloads
        ] == [
            ("app_cache.miss", {"app": "redis"}),
            ("app_cache.hit", {"app": "redis"}),
            ("app_cache.miss", {"app": "lammps"}),
        ]
