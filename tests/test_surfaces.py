"""Unit and calibration tests for the synthetic performance surfaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import surfaces
from repro.apps.registry import APPLICATION_NAMES, make_application
from repro.apps.surfaces import PerformanceSurface, SurfaceSpec, sample_surface_stats
from repro.errors import CalibrationError, SpaceError
from repro.space.parameters import categorical
from repro.space.space import SearchSpace


def toy_space(cards=(4, 3, 4, 5, 5, 4, 3)):
    return SearchSpace(
        [categorical(f"p{i}", list(range(c))) for i, c in enumerate(cards)]
    )


def toy_surface(seed=0, **spec_kwargs):
    spec = SurfaceSpec(t_min=100.0, t_max=350.0, **spec_kwargs)
    return PerformanceSurface(toy_space(), spec, seed)


class TestSpecValidation:
    def test_bad_time_range(self):
        with pytest.raises(CalibrationError):
            SurfaceSpec(t_min=100.0, t_max=50.0)

    def test_bad_robust_factor(self):
        with pytest.raises(CalibrationError):
            SurfaceSpec(t_min=1.0, t_max=2.0, robust_factor=2.0)

    def test_bad_robust_fraction(self):
        with pytest.raises(CalibrationError):
            SurfaceSpec(t_min=1.0, t_max=2.0, robust_fraction=0.0)

    def test_too_many_majors(self):
        spec = SurfaceSpec(t_min=1.0, t_max=2.0, n_major=10)
        with pytest.raises(SpaceError):
            PerformanceSurface(toy_space((2, 2)), spec, 0)


class TestDeterminism:
    def test_same_seed_same_surface(self):
        a, b = toy_surface(seed=5), toy_surface(seed=5)
        idx = a.space.sample_indices(200, seed=1)
        levels = a.space.levels_matrix(idx)
        assert np.array_equal(a.times_of_levels(levels), b.times_of_levels(levels))
        assert np.array_equal(a.sensitivities(idx), b.sensitivities(idx))
        assert np.array_equal(a.robust_mask(idx), b.robust_mask(idx))

    def test_different_seed_different_surface(self):
        a, b = toy_surface(seed=5), toy_surface(seed=6)
        idx = a.space.sample_indices(200, seed=1)
        levels = a.space.levels_matrix(idx)
        assert not np.array_equal(a.times_of_levels(levels), b.times_of_levels(levels))


class TestTimes:
    def test_range_respected(self):
        s = toy_surface()
        levels = s.space.levels_matrix(np.arange(s.space.size))
        times = s.times_of_levels(levels)
        assert times.min() >= 100.0 - 1e-9
        assert times.max() <= 350.0 + 1e-9

    def test_optimum_near_t_min(self):
        s = toy_surface()
        levels = s.space.levels_matrix(np.arange(s.space.size))
        assert s.times_of_levels(levels).min() <= 100.0 * 1.1

    def test_bulk_at_least_2x(self):
        """The paper's Fig. 1: >90% of configurations are >= 2x the best."""
        s = toy_surface()
        stats = sample_surface_stats(s, n=3000, seed=0)
        assert stats["fraction_within_2x"] < 0.12

    def test_spread_ratio(self):
        stats = sample_surface_stats(toy_surface(), n=3000, seed=0)
        assert stats["spread_ratio"] > 2.0

    def test_single_bad_major_doubles_time(self):
        s = toy_surface()
        base = np.zeros((1, s.space.dimension), dtype=np.int64)
        # Find the best level of each major via its table, then flip major 0
        # to its worst level.
        best_levels = [int(np.argmin(t)) for t in s._tables]
        good = np.array([best_levels], dtype=np.int64)
        t_good = s.times_of_levels(good)[0]
        bad = good.copy()
        bad[0, 0] = int(np.argmax(s._tables[0]))
        t_bad = s.times_of_levels(bad)[0]
        assert t_bad >= 2.0 * t_good * 0.95


class TestSensitivity:
    def test_in_unit_range(self):
        s = toy_surface()
        idx = s.space.sample_indices(2000, seed=0)
        sens = s.sensitivities(idx)
        assert sens.min() >= 0.0 and sens.max() <= 1.0

    def test_faster_more_fragile_on_average(self):
        """Fig. 2's trend: low-time configurations have higher sensitivity."""
        s = toy_surface()
        idx = s.space.sample_indices(4000, seed=0)
        levels = s.space.levels_matrix(idx)
        times = s.times_of_levels(levels)
        sens = s.sensitivities(idx)
        fast = sens[times <= np.quantile(times, 0.2)]
        slow = sens[times >= np.quantile(times, 0.8)]
        assert fast.mean() > slow.mean()

    def test_robust_configs_have_tiny_sensitivity(self):
        s = toy_surface()
        idx = s.space.sample_indices(5000, seed=0)
        sens = s.sensitivities(idx)
        mask = s.robust_mask(idx)
        if mask.any():
            assert sens[mask].max() < 0.1


class TestRobustness:
    def test_fraction_close_to_spec(self):
        s = toy_surface()
        idx = s.space.sample_indices(20000, seed=0)
        frac = s.robust_mask(idx).mean()
        assert 0.4 * s.spec.robust_fraction < frac < 2.0 * s.spec.robust_fraction

    def test_never_robust_at_the_optimum(self):
        """Robustness must exclude the immediate optimum neighbourhood."""
        s = toy_surface()
        all_idx = np.arange(s.space.size)
        levels = s.space.levels_matrix(all_idx)
        z = s.quality_of_levels(levels)
        robust = s.robust_mask(all_idx)
        assert not robust[z < s.spec.robust_exclusion].any()

    def test_scattered_no_structure(self):
        """Robustness must not be predictable from any single parameter level."""
        s = toy_surface()
        idx = np.arange(s.space.size)
        robust = s.robust_mask(idx)
        levels = s.space.levels_matrix(idx)
        overall = robust.mean()
        for j in range(s.space.dimension):
            for level in range(int(s.space.cardinalities[j])):
                sub = robust[levels[:, j] == level].mean()
                # No level should concentrate robustness more than 4x.
                assert sub < max(4.0 * overall, 0.2)


class TestHash:
    @given(st.integers(0, 2**40), st.integers(1, 2**40))
    @settings(max_examples=200, deadline=None)
    def test_hash_in_unit_interval(self, index, salt):
        v = PerformanceSurface._hash_uniform(np.array([index]), salt)[0]
        assert 0.0 <= v < 1.0

    def test_hash_deterministic(self):
        idx = np.arange(1000)
        a = PerformanceSurface._hash_uniform(idx, 12345)
        b = PerformanceSurface._hash_uniform(idx, 12345)
        assert np.array_equal(a, b)

    def test_hash_roughly_uniform(self):
        vals = PerformanceSurface._hash_uniform(np.arange(100000), 999)
        hist, _ = np.histogram(vals, bins=10, range=(0, 1))
        assert hist.min() > 8000 and hist.max() < 12000


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestInverseNormal:
    """The numpy ``_ndtri`` must be scipy's ``ndtri`` bit for bit, so that
    dropping scipy changed no surface.  scipy is imported here only."""

    def test_matches_scipy_on_edges_and_uniforms(self):
        from scipy.special import ndtri

        edges = [
            1e-9, 1.0 - 1e-9, 0.5, math.exp(-32),
            surfaces._EXP_M2, 1.0 - surfaces._EXP_M2,  # the branch points
        ]
        values = edges + [np.nextafter(v, d) for v in edges for d in (0.0, 1.0)]
        uniforms = np.random.default_rng(0).random(200_000)
        p = np.concatenate([values, np.clip(uniforms, 1e-9, 1.0 - 1e-9)])
        assert np.array_equal(_bits(surfaces._ndtri(p)), _bits(ndtri(p)))

    @pytest.mark.parametrize("app", APPLICATION_NAMES)
    def test_bench_sensitivities_match_scipy(self, app, monkeypatch):
        from scipy.special import ndtri

        surface = make_application(app, scale="bench").surface
        indices = np.arange(surface.space.size)
        ported = surface.sensitivities(indices)
        monkeypatch.setattr(surfaces, "_ndtri", ndtri)
        assert np.array_equal(_bits(ported), _bits(surface.sensitivities(indices)))
