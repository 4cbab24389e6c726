"""Interference traces: record, replay, and synthesise host noise.

The stochastic :class:`~repro.cloud.interference.InterferenceProcess` is the
default noise source, but three study patterns need a *concrete* level
timeline instead:

* **record/replay** — capture the realisation one strategy experienced and
  replay it for another, so two tuners can be compared under literally
  identical noise;
* **synthetic scenarios** — step shifts, spike trains, and ramps for
  distribution-shift studies (Sec. 5 argues DarwinGame is resilient to
  "cloud interference distribution shifts");
* **external data** — a real host-utilisation trace imported as an array.

A :class:`ReplayedInterference` exposes the same query interface as
``InterferenceProcess`` (``profile``, ``epoch_mean``, ``sample_run_means``,
``sample_trajectory``), so a :class:`~repro.cloud.environment.CloudEnvironment`
can run on a trace by swapping its ``interference`` attribute — no other
code changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cloud.interference import InterferenceProcess
from repro.cloud.vm import InterferenceProfile
from repro.errors import CloudError
from repro.rng import SeedLike, ensure_rng

_MIN_LEVEL = 0.01


@dataclass(frozen=True)
class InterferenceTrace:
    """A piecewise-constant interference level timeline.

    ``levels[k]`` holds the level on ``[k * dt, (k + 1) * dt)``; queries
    beyond the recorded horizon wrap around (a trace is treated as one
    period of a stationary environment).
    """

    levels: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        levels = np.asarray(self.levels, dtype=float)
        if levels.ndim != 1 or levels.size == 0:
            raise CloudError("a trace needs a non-empty 1-D level array")
        if np.any(levels < 0):
            raise CloudError("trace levels must be non-negative")
        if self.dt <= 0:
            raise CloudError(f"trace dt must be positive, got {self.dt}")
        object.__setattr__(self, "levels", levels)

    @property
    def duration(self) -> float:
        """Length of one trace period in seconds."""
        return float(self.levels.size * self.dt)

    def level_at(self, t) -> np.ndarray:
        """Level at time(s) ``t`` (vectorised, wraps past the horizon)."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(ts < 0):
            raise CloudError("trace queried at negative time")
        buckets = (ts / self.dt).astype(np.int64) % self.levels.size
        return self.levels[buckets]

    def mean_over(self, start, duration) -> np.ndarray:
        """Average level over ``[start, start + duration)`` (vectorised).

        Computed from the cumulative sum of the (tiled) trace, exact for
        arbitrary windows.
        """
        t0 = np.atleast_1d(np.asarray(start, dtype=float))
        dur = np.atleast_1d(np.asarray(duration, dtype=float))
        t0, dur = np.broadcast_arrays(t0, dur)
        if np.any(dur <= 0):
            raise CloudError("window duration must be positive")
        # Integrate via fine sampling at trace resolution (window midpoints
        # per segment); exact when windows align with segments and within
        # O(dt/duration) otherwise.
        out = np.empty(t0.shape)
        for pos in np.ndindex(t0.shape):
            n = max(2, int(np.ceil(dur[pos] / self.dt)) * 2)
            mids = t0[pos] + (np.arange(n) + 0.5) * (dur[pos] / n)
            out[pos] = float(self.level_at(mids).mean())
        return out


def record_trace(
    process: InterferenceProcess,
    *,
    duration: float,
    dt: float = 30.0,
    seed: SeedLike = 0,
) -> InterferenceTrace:
    """Sample one realisation of ``process`` into a replayable trace."""
    if duration <= 0 or dt <= 0:
        raise CloudError("duration and dt must be positive")
    n = max(1, int(round(duration / dt)))
    levels = process.sample_trajectory(0.0, n * dt, n, ensure_rng(seed))
    return InterferenceTrace(levels=levels, dt=dt)


def step_trace(
    *,
    level_before: float,
    level_after: float,
    step_at: float,
    duration: float,
    dt: float = 30.0,
) -> InterferenceTrace:
    """A synthetic step shift: quiet until ``step_at``, louder afterwards."""
    if not 0 <= step_at <= duration:
        raise CloudError("step_at must lie within [0, duration]")
    n = max(1, int(round(duration / dt)))
    levels = np.full(n, float(level_before))
    levels[int(step_at / dt):] = float(level_after)
    return InterferenceTrace(levels=np.maximum(levels, _MIN_LEVEL), dt=dt)


def spike_trace(
    *,
    base_level: float,
    spike_level: float,
    period: float,
    spike_duration: float,
    duration: float,
    dt: float = 30.0,
) -> InterferenceTrace:
    """A periodic spike train: noisy-neighbour episodes every ``period``."""
    if spike_duration <= 0 or period <= spike_duration:
        raise CloudError("need 0 < spike_duration < period")
    n = max(1, int(round(duration / dt)))
    t = (np.arange(n) + 0.5) * dt
    in_spike = (t % period) < spike_duration
    levels = np.where(in_spike, float(spike_level), float(base_level))
    return InterferenceTrace(levels=np.maximum(levels, _MIN_LEVEL), dt=dt)


class ReplayedInterference:
    """Deterministic drop-in for :class:`InterferenceProcess` from a trace.

    Only a small residual measurement jitter is stochastic (configurable,
    defaults to none), so replaying the same trace twice yields identical
    observations — the property record/replay studies rely on.
    """

    def __init__(
        self, trace: InterferenceTrace, profile: InterferenceProfile
    ) -> None:
        self.trace = trace
        self.profile = profile

    def epoch_mean(self, t) -> np.ndarray:
        """Slow mean level — for a trace, just the level itself."""
        return self.trace.level_at(t)

    def sample_run_means(self, start_times, durations, rng) -> np.ndarray:
        """Mean level over each run; deterministic given the trace."""
        return self.trace.mean_over(start_times, durations)

    def sample_trajectory(
        self, start_time: float, duration: float, n_segments: int, rng
    ) -> np.ndarray:
        """Piecewise-constant trajectory read straight off the trace."""
        if n_segments <= 0:
            raise CloudError(f"n_segments must be positive, got {n_segments}")
        if duration <= 0:
            raise CloudError(f"duration must be positive, got {duration}")
        dt = duration / n_segments
        mids = start_time + (np.arange(n_segments) + 0.5) * dt
        return self.trace.level_at(mids)
