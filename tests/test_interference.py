"""Unit tests for the interference process."""

import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle.ar1 import ar1_loop
from oracle.trajectory import sample_trajectories as reference_trajectories
from repro.cloud.interference import (
    InterferenceProcess,
    _ar1_rows,
    _chunk_length,
    ar1_scan,
)
from repro.cloud.traces import record_trace
from repro.cloud.vm import PRESETS, make_profile
from repro.errors import CloudError
from repro.rng import ensure_rng
from repro.scenarios.registry import get_scenario


def process(seed=0, vm="m5.8xlarge"):
    return InterferenceProcess(PRESETS[vm].interference, seed)


class TestEpochMean:
    def test_deterministic_given_seed(self):
        ts = np.linspace(0, 10 * 86400, 200)
        a = process(seed=1).epoch_mean(ts)
        b = process(seed=1).epoch_mean(ts)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        ts = np.linspace(0, 10 * 86400, 200)
        assert not np.array_equal(process(seed=1).epoch_mean(ts), process(seed=2).epoch_mean(ts))

    def test_nonnegative(self):
        ts = np.linspace(0, 30 * 86400, 5000)
        assert process().epoch_mean(ts).min() > 0

    def test_negative_time_rejected(self):
        with pytest.raises(CloudError):
            process().epoch_mean(-1.0)

    def test_query_order_does_not_change_values(self):
        """The lazily extended walk must not depend on query order."""
        p1 = process(seed=5)
        late_first = p1.epoch_mean(20 * 86400.0)
        p2 = process(seed=5)
        p2.epoch_mean(86400.0)  # query an early time first
        late_second = p2.epoch_mean(20 * 86400.0)
        assert np.array_equal(late_first, late_second)

    def test_diurnal_cycle_visible(self):
        """A day of samples should swing by roughly the diurnal amplitude."""
        p = process(seed=3)
        ts = np.linspace(0, 86400, 500)
        levels = p.epoch_mean(ts)
        swing = levels.max() - levels.min()
        assert swing > 0.5 * p.profile.diurnal_amplitude

    def test_bounded_over_long_horizon(self):
        """The AR(1) walk must not wander off over months."""
        p = process(seed=4)
        ts = np.linspace(0, 120 * 86400, 20000)
        levels = p.epoch_mean(ts)
        assert levels.max() < 10 * p.profile.mean_level


def _reference_walk(seed, bucket):
    """The walk table covering ``bucket``, built one block per loop with a
    copy of the whole table each time (the former O(bucket**2) way)."""
    p = process(seed=seed)
    walk = np.zeros(1)
    while bucket >= len(walk):
        steps = p._walk_rng.normal(
            0.0, p.profile.drift_std, size=p._WALK_BLOCK
        )
        walk = np.concatenate([walk, ar1_scan(p._WALK_RHO, walk[-1], steps)])
    return walk


class TestWalkExtension:
    @pytest.mark.parametrize("buckets", [
        (1023,), (1024,), (1025,), (2048,),
        (1, 1023, 1024, 1025, 2048), (2048, 1025, 1024, 1023, 1),
        (1023, 5000), (5000, 1023),
    ], ids=["1023", "1024", "1025", "2048", "near-first", "far-first",
            "near-then-5000", "5000-then-near"])
    def test_bit_identical_to_block_at_a_time(self, buckets):
        p = process(seed=7)
        for bucket in buckets:
            p.epoch_mean(bucket * 3600.0)
        reference = _reference_walk(7, max(buckets))
        assert p._walk.tobytes() == reference.tobytes()


class TestRunMeans:
    def test_shape_broadcast(self):
        p = process()
        out = p.sample_run_means(np.zeros(10), 300.0, ensure_rng(0))
        assert out.shape == (10,)

    def test_nonnegative(self):
        p = process()
        out = p.sample_run_means(np.zeros(5000), 300.0, ensure_rng(0))
        assert out.min() > 0

    def test_longer_runs_average_out_noise(self):
        p = process(seed=2)
        short = p.sample_run_means(np.zeros(4000), 30.0, ensure_rng(1))
        long = p.sample_run_means(np.zeros(4000), 3000.0, ensure_rng(1))
        assert long.std() < short.std()

    def test_mean_tracks_profile(self):
        p = process(seed=6)
        ts = np.linspace(0, 40 * 86400, 8000)
        levels = p.sample_run_means(ts, 300.0, ensure_rng(2))
        assert abs(levels.mean() - p.profile.mean_level) < 0.5 * p.profile.mean_level

    def test_invalid_duration(self):
        with pytest.raises(CloudError):
            process().sample_run_means(0.0, 0.0, ensure_rng(0))


class TestTrajectory:
    def test_shape(self):
        traj = process().sample_trajectory(0.0, 600.0, 64, ensure_rng(0))
        assert traj.shape == (64,)

    def test_nonnegative(self):
        traj = process().sample_trajectory(0.0, 6000.0, 256, ensure_rng(0))
        assert traj.min() > 0

    def test_invalid_segments(self):
        with pytest.raises(CloudError):
            process().sample_trajectory(0.0, 100.0, 0, ensure_rng(0))

    def test_invalid_duration(self):
        with pytest.raises(CloudError):
            process().sample_trajectory(0.0, -5.0, 10, ensure_rng(0))

    def test_temporal_correlation(self):
        """Adjacent segments should correlate more than distant ones."""
        rng = ensure_rng(3)
        p = process(seed=7)
        trajs = np.stack(
            [p.sample_trajectory(0.0, 600.0, 100, rng) for _ in range(200)]
        )
        adjacent = np.corrcoef(trajs[:, 10], trajs[:, 11])[0, 1]
        distant = np.corrcoef(trajs[:, 10], trajs[:, 90])[0, 1]
        assert adjacent > distant


_RHO = st.one_of(
    st.floats(min_value=1e-3, max_value=1.0 - 1e-6),
    # A segment some 708+ correlation times long: exp(-dt/tau) is subnormal.
    st.floats(
        min_value=0.0, max_value=sys.float_info.min, exclude_min=True,
        exclude_max=True, allow_subnormal=True,
    ),
)
_EPS = st.lists(
    st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=300
)
_STATE = st.floats(min_value=-10.0, max_value=10.0)


def _scale(rho, state, eps):
    """Magnitude the scans' rounding is measured against."""
    return np.max(np.abs(eps)) / (1.0 - rho) + abs(state)


class TestAr1Scans:
    """Both closed-form scans against the plain recurrence, to rounding."""

    @settings(max_examples=200, deadline=None)
    @given(rho=_RHO, state=_STATE, eps=_EPS)
    def test_ar1_scan_matches_recurrence(self, rho, state, eps):
        got = ar1_scan(rho, state, np.array(eps))
        want = ar1_loop(rho, state, eps)
        assert np.max(np.abs(got - want)) <= 1e-12 * _scale(rho, state, eps)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(_RHO, _STATE, _EPS), min_size=1, max_size=8))
    def test_row_scan_matches_recurrence(self, rows):
        """Padded rows of mixed length; small ``rho`` makes multi-chunk rows."""
        counts = np.array([len(eps) for _, _, eps in rows])
        eps = np.zeros((len(rows), counts.max()))
        for g, (_, _, row) in enumerate(rows):
            eps[g, : len(row)] = row
        rho = np.array([r for r, _, _ in rows])
        state = np.array([s for _, s, _ in rows])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = _ar1_rows(rho, state, eps, counts)
        assert np.isfinite(got).all()
        for g, (r, s, row) in enumerate(rows):
            want = ar1_loop(r, s, row)
            error = np.max(np.abs(got[g, : len(row)] - want))
            assert error <= 1e-12 * _scale(r, s, row)

    def test_row_scan_gives_ar1_scan_bits(self):
        rng = ensure_rng(11)
        rho = np.array([0.9, 0.02, 0.5, 1e-3, 0.999])
        counts = np.array([240, 240, 7, 100, 1])
        assert any(n > _chunk_length(r) for r, n in zip(rho, counts))
        eps = rng.normal(size=(rho.size, counts.max()))
        state = rng.normal(size=rho.size)
        want = [ar1_scan(r, s, e[:n]) for r, s, e, n in zip(rho, state, eps, counts)]
        got = _ar1_rows(rho, state, eps.copy(), counts)
        for g, n in enumerate(counts):
            assert got[g, :n].tobytes() == want[g].tobytes()


class TestSubnormalRho:
    """Segments so long that a decay factor is subnormal take the scans'
    memoryless limit.  Before, the chunked closed form divided by it and
    the levels came out inf/NaN with an overflow warning."""

    @pytest.mark.parametrize(
        "dt, segments",
        # 43,000 and 44,000 s reach it through the fast component (60 s
        # correlation time), 86,000 s through the burst decay.
        [(43_000.0, 4), (44_000.0, 4), (86_000.0, 4), (43_000.0, 1)],
    )
    def test_long_segment_trace_is_finite(self, dt, segments):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = record_trace(
                process(), duration=segments * dt, dt=dt, seed=1
            )
        assert trace.levels.size == segments
        assert np.isfinite(trace.levels).all()


def _round(seed, n_games, dt_scale):
    """Start times, durations, segment counts and seeds of one mixed round."""
    meta = ensure_rng(seed)
    counts = meta.integers(1, 241, n_games)
    durations = (meta.random(n_games) * dt_scale + 0.01) * counts
    starts = meta.random(n_games) * 3e6
    seeds = meta.integers(2**32, size=n_games)
    return starts.tolist(), durations.tolist(), counts.tolist(), seeds


class TestRoundSampler:
    """The round sampler draws what one game at a time draws, bit for bit."""

    @pytest.mark.parametrize("n_games", [1, 2, 31, 250])
    # Segments of ~0.5 s to ~7 h: at the long end both scans need several
    # chunks per row, and the burst threshold exceeds one.
    @pytest.mark.parametrize("dt_scale", [0.5, 30.0, 25_000.0])
    @pytest.mark.parametrize("scenario", [None, "bursty", "drift"])
    def test_bit_identical_to_per_game_draws(self, n_games, dt_scale, scenario):
        starts, durations, counts, seeds = _round(
            n_games + int(dt_scale), n_games, dt_scale
        )

        def sampler():
            dynamics = get_scenario(scenario).realise(5) if scenario else None
            return InterferenceProcess(
                PRESETS["m5.8xlarge"].interference, 3, dynamics=dynamics
            )

        rngs = [ensure_rng(int(s)) for s in seeds]
        ref_rngs = [ensure_rng(int(s)) for s in seeds]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = sampler().sample_trajectories(starts, durations, counts, rngs)
        want = reference_trajectories(sampler(), starts, durations, counts, ref_rngs)
        assert len(got) == n_games
        for row, ref in zip(got, want):
            assert row.tobytes() == ref.tobytes()
        for rng, ref in zip(rngs, ref_rngs):
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_round_split_does_not_change_a_game(self):
        starts, durations, counts, seeds = _round(4, 12, 30.0)
        p = process(seed=2)
        whole = p.sample_trajectories(
            starts, durations, counts, [ensure_rng(int(s)) for s in seeds]
        )
        for g in range(12):
            alone = p.sample_trajectory(
                starts[g], durations[g], counts[g], ensure_rng(int(seeds[g]))
            )
            assert alone.tobytes() == whole[g].tobytes()

    def test_empty_round(self):
        assert process().sample_trajectories([], [], [], []) == []

    def test_unequal_lengths_rejected(self):
        with pytest.raises(CloudError):
            process().sample_trajectories([0.0], [10.0], [4, 4], [ensure_rng(0)])


class TestVMScaling:
    def test_smaller_vms_noisier(self):
        small = PRESETS["m5.large"].interference
        big = PRESETS["m5.24xlarge"].interference
        assert small.mean_level > big.mean_level
        assert small.fast_std > big.fast_std

    def test_family_traits(self):
        compute = make_profile(36, "compute")
        storage = make_profile(36, "storage")
        assert storage.burst_rate > compute.burst_rate
        assert storage.mean_level > compute.mean_level
