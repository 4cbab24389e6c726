"""The repro.caching subsystem: keys, disk tier, app tier, memo soundness."""

import json

import numpy as np
import pytest

from repro.apps.registry import make_application
from repro.caching import (
    CALIBRATION_VERSION,
    ApplicationCache,
    SurfaceCache,
    WARM_COMPUTED,
    WARM_REUSED,
    WARM_UNMEMOISABLE,
    clear_process_caches,
    default_cache_dir,
    grid_app_pairs,
    process_app_cache,
    surface_key,
)
from repro.errors import ReproError


@pytest.fixture()
def cache(tmp_path):
    return SurfaceCache(tmp_path / "surfaces")


class TestSurfaceKey:
    def test_stable_across_builds(self):
        a = surface_key(make_application("redis", scale="test"))
        b = surface_key(make_application("redis", scale="test"))
        assert a == b
        assert a.filename == b.filename
        assert a.calibration_version == CALIBRATION_VERSION

    def test_distinguishes_app_scale_and_seed(self):
        base = surface_key(make_application("redis", scale="test"))
        variants = [
            surface_key(make_application("gromacs", scale="test")),
            surface_key(make_application("redis", scale="bench")),
            surface_key(make_application("redis", scale="test", seed=999)),
        ]
        assert base.fingerprint not in {v.fingerprint for v in variants}
        assert len({v.filename for v in variants}) == len(variants)


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
    def test_round_trip_bit_identical(self):
        src = make_application("lammps", scale="test")
        tables = src.export_surfaces()
        assert src.surfaces_complete

        dst = make_application("lammps", scale="test")
        dst.load_surfaces(tables["true_time"], tables["sensitivity"])
        idx = np.arange(dst.space.size)
        fresh = make_application("lammps", scale="test")
        assert np.array_equal(dst.true_time(idx), fresh.true_time(idx))
        assert np.array_equal(dst.sensitivity(idx), fresh.sensitivity(idx))
        assert dst.optimal == fresh.optimal
        assert dst.best_robust == fresh.best_robust

    def test_load_rejects_wrong_shape(self):
        app = make_application("redis", scale="test")
        with pytest.raises(ReproError):
            app.load_surfaces(np.zeros(3), np.zeros(3))

    def test_export_refuses_unmemoisable_space(self):
        app = make_application("redis", scale="full")
        assert not app.memoisable
        with pytest.raises(ReproError):
            app.export_surfaces()


class TestSurfaceCacheDisk:
    def test_warm_then_load_is_bit_identical(self, cache):
        [entry] = cache.warm([("ffmpeg", "test")])
        assert entry.status == WARM_COMPUTED
        assert entry.path.exists()

        app = make_application("ffmpeg", scale="test")
        assert cache.load(app)
        fresh = make_application("ffmpeg", scale="test")
        idx = np.arange(app.space.size)
        assert np.array_equal(app.true_time(idx), fresh.true_time(idx))
        assert np.array_equal(app.sensitivity(idx), fresh.sensitivity(idx))
        assert app.surfaces_complete

    def test_second_warm_reuses(self, cache):
        assert [e.status for e in cache.warm([("redis", "test")])] == [
            WARM_COMPUTED
        ]
        assert [e.status for e in cache.warm([("redis", "test")])] == [
            WARM_REUSED
        ]

    def test_unmemoisable_space_skipped_not_fatal(self, cache):
        [entry] = cache.warm([("redis", "full")])
        assert entry.status == WARM_UNMEMOISABLE
        assert cache.info() == []
        assert not cache.load(make_application("redis", scale="full"))

    def test_corrupted_entry_is_a_miss(self, cache):
        cache.warm([("redis", "test")])
        for path in cache.directory.glob("*.npz"):
            path.write_bytes(b"not a zip file")
        app = make_application("redis", scale="test")
        assert not cache.load(app)
        fresh = make_application("redis", scale="test")
        idx = np.arange(32)
        assert np.array_equal(app.true_time(idx), fresh.true_time(idx))

    def test_mismatched_fingerprint_is_a_miss(self, cache):
        cache.warm([("redis", "test")])
        # A different surface seed yields a different key: nothing served.
        other = make_application("redis", scale="test", seed=999)
        assert not cache.load(other)
        assert not other.surfaces_complete
        fresh = make_application("redis", scale="test", seed=999)
        idx = np.arange(32)
        assert np.array_equal(other.true_time(idx), fresh.true_time(idx))

    def test_load_journals_one_counter_per_lookup(self, cache):
        from repro.telemetry.events import BufferEmitter, set_emitter

        events = BufferEmitter()
        previous = set_emitter(events)
        try:
            assert not cache.load(make_application("redis", scale="test"))
            cache.warm([("redis", "test")])
            assert cache.load(make_application("redis", scale="test"))
        finally:
            set_emitter(previous)
        lookups = [
            (e.name, e.fields) for e in events.events()
            if e.name in ("cache.hit", "cache.miss")
        ]
        # The first load and warm's build both miss; the last load hits.
        assert lookups == [
            ("cache.miss", {}), ("cache.miss", {}),
            ("cache.hit", {"tier": "disk"}),
        ]

    def test_info_and_clear(self, cache):
        cache.warm([("redis", "test"), ("gromacs", "test")])
        infos = cache.info()
        assert {e.app for e in infos} == {"redis", "gromacs"}
        assert all(e.size_bytes > 0 and e.points > 0 for e in infos)
        assert cache.clear() == 2
        assert cache.info() == []

    def test_warm_repersists_after_external_clear(self, cache):
        """Tables already loaded in memory must not mask a cleared disk."""
        cache.warm([("redis", "test")])
        app = process_app_cache().get("redis", "test", cache)
        assert app.surfaces_complete  # the app now holds the tables
        SurfaceCache(cache.directory).clear()  # another process clears disk
        [entry] = cache.warm([("redis", "test")])
        assert entry.status == WARM_COMPUTED
        assert entry.path.exists()

    def test_warm_reads_each_entry_once(self, cache, monkeypatch):
        """The build's load already validated the entry: warm reads each
        file once (twice per app before), and an app the tier holds
        already is still validated against the disk."""
        reads = []
        read = SurfaceCache._read

        def counting(self, key, points):
            reads.append(key.app)
            return read(self, key, points)

        monkeypatch.setattr(SurfaceCache, "_read", counting)
        pairs = [("redis", "test"), ("lammps", "test")]
        assert [e.status for e in cache.warm(pairs)] == [WARM_COMPUTED] * 2
        assert reads == ["redis", "lammps"]

        clear_process_caches()
        reads.clear()
        assert [e.status for e in cache.warm(pairs)] == [WARM_REUSED] * 2
        assert reads == ["redis", "lammps"]
        assert all(process_app_cache().get(*pair).surfaces_complete for pair in pairs)

        reads.clear()
        assert [e.status for e in cache.warm(pairs)] == [WARM_REUSED] * 2
        assert reads == ["redis", "lammps"]

    def test_default_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"
        assert SurfaceCache().directory == tmp_path / "override"


class TestApplicationCache:
    def test_shares_one_instance(self):
        tier = ApplicationCache()
        assert tier.get("redis", "test") is tier.get("redis", "test")

    def test_bounded_lru_eviction(self):
        tier = ApplicationCache(maxsize=2)
        a = tier.get("redis", "test")
        tier.get("gromacs", "test")
        tier.get("redis", "test")        # refresh redis
        tier.get("ffmpeg", "test")       # evicts gromacs, not redis
        assert len(tier) == 2
        assert tier.get("redis", "test") is a

    def test_clear(self):
        tier = ApplicationCache()
        first = tier.get("redis", "test")
        tier.clear()
        assert len(tier) == 0
        assert tier.get("redis", "test") is not first

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ReproError):
            ApplicationCache(maxsize=0)

    def test_process_globals_reset_hook(self, cache):
        cache.warm([("redis", "test")])
        clear_process_caches()
        app = process_app_cache().get("redis", "test", cache)
        assert app.surfaces_complete  # built with the cache's tables
        assert app is process_app_cache().get("redis", "test")
        clear_process_caches()
        assert len(process_app_cache()) == 0
        rebuilt = process_app_cache().get("redis", "test")
        assert rebuilt is not app
        assert not rebuilt.surfaces_complete  # no cache passed this time


class TestGridAppPairs:
    def test_ordered_unique(self):
        from repro.campaigns import CampaignGrid

        grid = CampaignGrid(apps=("redis", "gromacs"), seeds=(0, 1),
                            scale="test")
        assert grid_app_pairs(list(grid.specs())) == [
            ("redis", "test"), ("gromacs", "test"),
        ]


class TestRunnerIntegration:
    def test_warm_sweep_bit_identical_to_cold(self, tmp_path):
        from repro.campaigns import CampaignGrid, CampaignRunner, SweepOptions

        grid = CampaignGrid(apps=("redis",), seeds=(0, 1), scale="test",
                            eval_runs=10)
        specs = list(grid.specs())
        clear_process_caches()
        cold = CampaignRunner(SweepOptions(jobs=1)).run(specs)
        clear_process_caches()
        warm_dir = tmp_path / "surfaces"
        warm = CampaignRunner(SweepOptions(jobs=1, cache_dir=warm_dir)).run(
            specs
        )
        assert json.dumps([r.to_payload() for r in warm.records],
                          sort_keys=True) == \
            json.dumps([r.to_payload() for r in cold.records], sort_keys=True)
        assert list(warm_dir.glob("*.npz"))
        # Second warm run loads (reuses) rather than recomputing the tables.
        clear_process_caches()
        again = CampaignRunner(SweepOptions(jobs=1, cache_dir=warm_dir)).run(
            specs
        )
        assert json.dumps([r.to_payload() for r in again.records],
                          sort_keys=True) == \
            json.dumps([r.to_payload() for r in cold.records], sort_keys=True)
