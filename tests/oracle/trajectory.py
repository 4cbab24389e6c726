"""Per-game trajectory draws: the reference for the round-batched sampler.

One game at a time, in the order every game consumes its own generator:
the fast component's shocks, its start state, the burst arrivals, then the
burst magnitudes.  Each game's two AR(1) scans go through
:func:`repro.cloud.interference.ar1_scan` on their own, so a round sampler
that batches games must reproduce these arrays bit for bit.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.cloud.interference import MIN_LEVEL, ar1_scan


def sample_trajectory(
    process, start_time: float, duration: float, n_segments: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One game's level trajectory over ``n_segments`` equal segments."""
    profile = process.profile
    dt = duration / n_segments
    base = process.epoch_mean(start_time + (np.arange(n_segments) + 0.5) * dt)

    rho = math.exp(-dt / profile.fast_tau)
    innovation_std = profile.fast_std * math.sqrt(max(1.0 - rho * rho, 1e-12))
    shocks = rng.normal(0.0, innovation_std, size=n_segments)
    fast = ar1_scan(rho, float(rng.normal(0.0, profile.fast_std)), shocks)

    arrivals = rng.random(n_segments) < (profile.burst_rate * dt)
    magnitudes = rng.exponential(profile.burst_scale, size=n_segments) * arrivals
    decay = math.exp(-dt / profile.burst_duration)
    bursts = ar1_scan(decay, 0.0, magnitudes)

    return np.maximum(base + fast + bursts, MIN_LEVEL)


def sample_trajectories(
    process,
    start_times: Sequence[float],
    durations: Sequence[float],
    segment_counts: Sequence[int],
    rngs: Sequence[np.random.Generator],
) -> List[np.ndarray]:
    """Every game of a round, one after the other."""
    return [
        sample_trajectory(process, t0, duration, n, rng)
        for t0, duration, n, rng in zip(start_times, durations, segment_counts, rngs)
    ]
