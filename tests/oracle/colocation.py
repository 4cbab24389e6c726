"""One co-located game at a time, segment by segment: the kernel's reference.

A deliberately naive loop of the Sec. 3.2 rate equation and the Fig. 5
early-termination rule.  Each game draws from its own generator in the
order the round kernel does: its players' sticky unfairness, then per
horizon attempt its trajectory (the per-game draws of
:mod:`oracle.trajectory`, or a replayed trace's levels) and one jitter
draw per player per segment.  Work accumulates one segment at a time, so
it agrees with the kernel's blocked cumulative sums to rounding, not bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from oracle.trajectory import sample_trajectory
from repro.cloud.colocation import (
    _CONTENTION_COEFF as CONTENTION_COEFF,
    _JITTER_STD as JITTER_STD,
    _UNFAIRNESS_STD as UNFAIRNESS_STD,
)


@dataclass
class GameResult:
    elapsed: float
    work: List[float]
    finished: List[bool]
    early_terminated: bool
    mean_interference: float
    attempts: int


def _trajectory(interference, start, duration, n_segments, rng) -> List[float]:
    if hasattr(interference, "sample_trajectories"):
        levels = sample_trajectory(interference, start, duration, n_segments, rng)
    else:  # a replayed trace: levels read off the trace, no draws
        levels = interference.sample_trajectory(start, duration, n_segments, rng)
    return [float(level) for level in levels]


def simulate_game(
    true_times: Sequence[float],
    sensitivities: Sequence[float],
    *,
    vcpus: int,
    interference,
    start_time: float,
    rng: np.random.Generator,
    work_deviation=None,
    min_work_for_termination: float = 0.25,
    max_segments: int = 240,
) -> GameResult:
    """Play one game to its stop: finish, early termination or 8 horizons."""
    t = [float(x) for x in true_times]
    s = [float(x) for x in sensitivities]
    k = len(t)
    shared = CONTENTION_COEFF * (k - 1) / vcpus
    unfairness = [
        z * (0.25 + 0.75 * si)
        for z, si in zip(rng.normal(0.0, UNFAIRNESS_STD, size=k).tolist(), s)
    ]
    profile = interference.profile
    pessimism = profile.mean_level + 3.0 * profile.fast_std + shared
    horizon = max(ti * (1.0 + si * pessimism) for ti, si in zip(t, s)) * 1.5
    n_segments = int(min(max_segments, max(48, horizon / 5.0)))
    dt = horizon / n_segments

    elapsed = 0.0
    work = [0.0] * k
    means: List[float] = []
    for attempt in range(8):
        levels = _trajectory(interference, start_time + elapsed, horizon,
                             n_segments, rng)
        means.append(sum(levels) / len(levels))
        for j, level in enumerate(levels):
            jitter = rng.normal(0.0, JITTER_STD, size=k).tolist()
            step = []
            for i in range(k):
                slowdown = (1.0 + s[i] * (level + shared)
                            + jitter[i] * s[i] + unfairness[i])
                rate = 1.0 / (t[i] * max(slowdown, 1.0))
                step.append(rate * dt)
            prev = work
            work = [w + d for w, d in zip(prev, step)]
            ranked = sorted(work, reverse=True)
            best = ranked[0]
            if best >= 1.0:
                leader = work.index(best)
                frac = min(max((1.0 - prev[leader]) / step[leader], 0.0), 1.0)
                work = [w + d * frac for w, d in zip(prev, step)]
                return _result(elapsed + (j + frac) * dt, work, False, means,
                               attempt + 1)
            if work_deviation is not None and k >= 2:
                gap = (best - ranked[1]) / max(best, 1e-12)
                if best >= min_work_for_termination and gap > work_deviation:
                    return _result(elapsed + (j + 1) * dt, work, True, means,
                                   attempt + 1)
        elapsed += horizon
    raise AssertionError("game did not finish within 8 horizons")


def _result(elapsed, work, early, means, attempts) -> GameResult:
    work = [min(w, 1.0) for w in work]
    return GameResult(
        elapsed=elapsed,
        work=work,
        finished=[w >= 1.0 - 1e-9 for w in work],
        early_terminated=early,
        mean_interference=sum(means) / len(means),
        attempts=attempts,
    )


def simulate_round(
    games: Sequence[Tuple[Sequence[float], Sequence[float]]],
    rngs: Sequence[np.random.Generator],
    **settings,
) -> List[GameResult]:
    """Every game of a round, one after the other, each on its generator."""
    return [
        simulate_game(t, s, rng=rng, **settings)
        for (t, s), rng in zip(games, rngs)
    ]
