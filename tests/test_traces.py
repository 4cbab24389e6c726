"""Tests for interference traces: record, replay, synthesise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.environment import CloudEnvironment
from repro.cloud.interference import InterferenceProcess
from repro.cloud.traces import (
    InterferenceTrace,
    ReplayedInterference,
    record_trace,
    spike_trace,
    step_trace,
)
from repro.cloud.vm import DEFAULT_VM
from repro.errors import CloudError


def simple_trace():
    return InterferenceTrace(levels=np.array([0.1, 0.5, 0.3, 0.7]), dt=10.0)


class TestInterferenceTrace:
    def test_duration(self):
        assert simple_trace().duration == 40.0

    def test_level_at(self):
        trace = simple_trace()
        assert trace.level_at(0.0)[0] == 0.1
        assert trace.level_at(15.0)[0] == 0.5
        assert trace.level_at(39.9)[0] == 0.7

    def test_wraps_past_horizon(self):
        trace = simple_trace()
        assert trace.level_at(40.0)[0] == 0.1
        assert trace.level_at(55.0)[0] == 0.5

    def test_mean_over_exact_window(self):
        trace = simple_trace()
        mean = trace.mean_over(0.0, 20.0)[0]
        assert mean == pytest.approx(0.3, abs=1e-9)

    def test_mean_over_full_period(self):
        trace = simple_trace()
        assert trace.mean_over(0.0, 40.0)[0] == pytest.approx(0.4, abs=1e-9)

    def test_rejects_empty(self):
        with pytest.raises(CloudError):
            InterferenceTrace(levels=np.array([]), dt=1.0)

    def test_rejects_negative_levels(self):
        with pytest.raises(CloudError):
            InterferenceTrace(levels=np.array([-0.1]), dt=1.0)

    def test_rejects_bad_dt(self):
        with pytest.raises(CloudError):
            InterferenceTrace(levels=np.array([0.1]), dt=0.0)

    def test_rejects_negative_query(self):
        with pytest.raises(CloudError):
            simple_trace().level_at(-1.0)

    @given(st.floats(0.0, 500.0), st.floats(1.0, 200.0))
    @settings(max_examples=50, deadline=None)
    def test_mean_within_level_bounds(self, start, duration):
        trace = simple_trace()
        mean = trace.mean_over(start, duration)[0]
        assert trace.levels.min() - 1e-9 <= mean <= trace.levels.max() + 1e-9


class TestSyntheticTraces:
    def test_step_trace(self):
        trace = step_trace(
            level_before=0.1, level_after=0.8, step_at=100.0, duration=200.0, dt=10.0
        )
        assert trace.level_at(50.0)[0] == pytest.approx(0.1)
        assert trace.level_at(150.0)[0] == pytest.approx(0.8)

    def test_step_rejects_outside(self):
        with pytest.raises(CloudError):
            step_trace(level_before=0.1, level_after=0.8, step_at=300.0, duration=200.0)

    def test_spike_trace_period(self):
        trace = spike_trace(
            base_level=0.1, spike_level=1.5, period=600.0,
            spike_duration=60.0, duration=1800.0, dt=30.0,
        )
        assert trace.level_at(30.0)[0] == pytest.approx(1.5)
        assert trace.level_at(300.0)[0] == pytest.approx(0.1)
        assert trace.level_at(630.0)[0] == pytest.approx(1.5)

    def test_spike_rejects_bad_period(self):
        with pytest.raises(CloudError):
            spike_trace(
                base_level=0.1, spike_level=1.0, period=50.0,
                spike_duration=60.0, duration=600.0,
            )


class TestRecordReplay:
    def test_record_shape(self):
        process = InterferenceProcess(DEFAULT_VM.interference, seed=0)
        trace = record_trace(process, duration=3600.0, dt=60.0, seed=1)
        assert trace.levels.size == 60
        assert trace.duration == 3600.0

    def test_record_deterministic(self):
        process_a = InterferenceProcess(DEFAULT_VM.interference, seed=0)
        process_b = InterferenceProcess(DEFAULT_VM.interference, seed=0)
        a = record_trace(process_a, duration=600.0, seed=2)
        b = record_trace(process_b, duration=600.0, seed=2)
        np.testing.assert_allclose(a.levels, b.levels)

    def test_replay_is_deterministic(self):
        trace = simple_trace()
        replay = ReplayedInterference(trace, DEFAULT_VM.interference)
        rng = np.random.default_rng(0)
        a = replay.sample_run_means(0.0, 20.0, rng)
        b = replay.sample_run_means(0.0, 20.0, rng)
        np.testing.assert_allclose(a, b)

    def test_replay_trajectory_reads_trace(self):
        trace = simple_trace()
        replay = ReplayedInterference(trace, DEFAULT_VM.interference)
        levels = replay.sample_trajectory(0.0, 40.0, 4, np.random.default_rng(0))
        np.testing.assert_allclose(levels, trace.levels)

    def test_environment_runs_on_replay(self):
        """Swapping the environment's interference for a trace just works."""
        from repro.apps import make_application

        app = make_application("redis", scale="test")
        env = CloudEnvironment(seed=0)
        env.interference = ReplayedInterference(
            simple_trace(), DEFAULT_VM.interference
        )
        out_a = env.run_solo(app, 5, advance_clock=False)
        out_b = env.run_solo(app, 5, advance_clock=False)
        # Identical trace, but measurement jitter still differs per run.
        assert out_a.observed_time == pytest.approx(out_b.observed_time, rel=0.02)

    def test_identical_noise_for_two_strategies(self):
        """Two environments on the same trace see identical mean levels."""
        from repro.apps import make_application

        app = make_application("redis", scale="test")
        trace = spike_trace(
            base_level=0.2, spike_level=1.0, period=600.0,
            spike_duration=120.0, duration=3600.0,
        )
        means = []
        for _ in range(2):
            env = CloudEnvironment(seed=0)
            env.interference = ReplayedInterference(trace, DEFAULT_VM.interference)
            outcome = env.run_colocated_batch(app, [[1, 2, 3]], advance_clock=True)[0]
            means.append(outcome.mean_interference)
        assert means[0] == pytest.approx(means[1], rel=1e-9)
