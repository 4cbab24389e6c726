"""Stochastic background-interference process of a shared cloud host.

The process has three components, chosen to reproduce the published
observations (Figs. 1–3) without pretending to model EC2 mechanistically:

* a **slow drift**: a diurnal load cycle plus an hourly random walk —
  tenant churn.  This is what makes tuning campaigns started at different
  times (the paper's T1/T2/T3) see different environments.
* a **fast fluctuation**: an Ornstein–Uhlenbeck-style component with a
  correlation time of about a minute.  Averaging over a long run attenuates
  it by ``sqrt(1 + duration / tau)``.
* **noisy-neighbour bursts**: Poisson-arriving episodes of heavy contention
  lasting a couple of minutes.

Two query styles are provided.  Solo runs (how every baseline tuner samples)
need only the *mean* level over a run — :meth:`sample_run_means` is fully
vectorised for the exhaustive-search scan.  Co-located games need a
*trajectory* so that early termination can observe work progress through
time — :meth:`sample_trajectory`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cloud.vm import InterferenceProfile
from repro.errors import CloudError
from repro.rng import SeedLike, child, ensure_rng

_DAY_SECONDS = 86400.0
_BUCKET_SECONDS = 3600.0

#: Floor of the interference level.  Shared with the scenario modifiers
#: (``repro.scenarios``), which clamp to the same floor after their
#: transforms — one constant, one physics.
MIN_LEVEL = 0.01
_MIN_LEVEL = MIN_LEVEL


def ar1_scan(rho: float, state: float, innovations: np.ndarray) -> np.ndarray:
    """Evaluate the linear recurrence ``y[k] = rho * y[k-1] + innovations[k]``.

    Closed form: ``y[k] = rho**(k+1) * state + sum_j rho**(k-j) * eps[j]``,
    evaluated as ``rho**k * cumsum(eps[j] / rho**j)`` so the whole scan is a
    handful of vectorised numpy operations instead of a Python loop.  The
    division by ``rho**j`` grows without bound, so the scan is chunked such
    that ``rho**-j`` spans at most ~100 decades per chunk — well inside
    float64 range while keeping each chunk a single vector expression.

    ``rho`` must lie in ``[0, 1]`` (our decay/correlation coefficients
    always do); negative coefficients are rejected.
    """
    if not 0.0 <= rho <= 1.0:
        raise CloudError(f"ar1_scan requires rho in [0, 1], got {rho}")
    eps = np.asarray(innovations, dtype=float)
    n = eps.size
    out = np.empty(n)
    if n == 0:
        return out
    if rho == 0.0:
        # Memoryless limit (e.g. segment length >> correlation time).
        return eps.copy()
    if rho < 1.0:
        chunk = max(1, int(100.0 / max(-math.log10(rho), 1e-18)))
    else:  # pragma: no cover - rho is always < 1 for our processes
        chunk = n
    pos = 0
    while pos < n:
        m = min(chunk, n - pos)
        powers = rho ** np.arange(1, m + 1)
        seg = powers * (state + np.cumsum(eps[pos:pos + m] / powers))
        out[pos:pos + m] = seg
        state = float(seg[-1])
        pos += m
    return out


class InterferenceProcess:
    """Seeded realisation of one host's interference over simulated time.

    ``dynamics`` (a realised :class:`repro.scenarios.ScenarioDynamics`)
    overlays time-varying scenario conditions on the stationary slow
    component.  It transforms the deterministic level field only — it never
    consumes from this process's random streams — so a process without
    dynamics (or with the empty ``steady`` scenario) is bit-identical to
    the pre-scenario behaviour.
    """

    def __init__(
        self,
        profile: InterferenceProfile,
        seed: SeedLike = None,
        dynamics=None,
    ) -> None:
        self.profile = profile
        self.dynamics = dynamics
        rng = ensure_rng(seed)
        self._walk_rng = child(rng)
        self._phase = float(ensure_rng(child(rng)).uniform(0.0, 2.0 * math.pi))
        # Lazily extended random-walk table, one entry per hour bucket.
        self._walk = np.zeros(1, dtype=float)

    # -- slow component -------------------------------------------------

    # AR(1) coefficient of the hourly tenant-churn walk.  With innovation
    # std sigma the stationary std is sigma / sqrt(1 - rho^2) ~= 5 * sigma,
    # so campaigns weeks apart see genuinely different (but bounded) epochs.
    _WALK_RHO = 0.98

    # Buckets appended per extension of the lazy walk table.  Extending in
    # fixed, absolutely-aligned blocks keeps the walk bit-identical no matter
    # which query times (in which order) trigger the extension — the scan's
    # floating-point grouping never depends on the query pattern.
    _WALK_BLOCK = 1024

    def _extend_walk(self, bucket: int) -> None:
        """Grow the walk table until it covers ``bucket``.

        One draw and one scan per block, chained on the previous block's
        last value, then a single concatenation, so reaching bucket ``b``
        costs O(b).
        """
        if bucket < len(self._walk):
            return
        blocks = (bucket - len(self._walk)) // self._WALK_BLOCK + 1
        state = float(self._walk[-1])
        tails = []
        for _ in range(blocks):
            steps = self._walk_rng.normal(
                0.0, self.profile.drift_std, size=self._WALK_BLOCK
            )
            tail = ar1_scan(self._WALK_RHO, state, steps)
            state = float(tail[-1])
            tails.append(tail)
        self._walk = np.concatenate([self._walk, *tails])

    def epoch_mean(self, t) -> np.ndarray:
        """Deterministic-given-seed slow mean level at time(s) ``t`` (seconds)."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(ts < 0):
            raise CloudError("interference queried at negative time")
        buckets = (ts / _BUCKET_SECONDS).astype(np.int64)
        self._extend_walk(int(buckets.max()) if buckets.size else 0)
        diurnal = self.profile.diurnal_amplitude * np.sin(
            2.0 * math.pi * ts / _DAY_SECONDS + self._phase
        )
        level = self.profile.mean_level + diurnal + self._walk[buckets]
        level = np.maximum(level, _MIN_LEVEL)
        if self.dynamics is not None:
            # Scenario overlay: vectorised, deterministic given the
            # environment seed, and the single hook every sampling path
            # (solo means, batched trajectories, evaluations) flows through.
            level = self.dynamics.apply(ts, level)
        return level

    # -- solo-run sampling ------------------------------------------------

    def sample_run_means(
        self, start_times, durations, rng: np.random.Generator
    ) -> np.ndarray:
        """Mean interference level over each run (vectorised).

        ``start_times`` and ``durations`` broadcast against each other.  The
        fast component is attenuated by run length; bursts contribute with
        probability ``1 - exp(-rate * duration)``, diluted by
        ``burst_duration / duration`` for runs longer than a burst.
        """
        t0 = np.asarray(start_times, dtype=float)
        dur = np.asarray(durations, dtype=float)
        t0, dur = np.broadcast_arrays(t0, dur)
        if np.any(dur <= 0):
            raise CloudError("run duration must be positive")
        base = self.epoch_mean(t0)
        atten = np.sqrt(1.0 + dur / self.profile.fast_tau)
        fast = rng.normal(0.0, 1.0, size=t0.shape) * (self.profile.fast_std / atten)
        p_burst = 1.0 - np.exp(-self.profile.burst_rate * dur)
        hit = rng.random(size=t0.shape) < p_burst
        dilution = np.minimum(1.0, self.profile.burst_duration / dur)
        bursts = hit * rng.exponential(self.profile.burst_scale, size=t0.shape) * dilution
        return np.maximum(base + fast + bursts, _MIN_LEVEL)

    # -- trajectory sampling (co-located games) ---------------------------

    def sample_trajectory(
        self,
        start_time: float,
        duration: float,
        n_segments: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Piecewise-constant level trajectory over ``n_segments`` segments.

        The fast component follows an AR(1) discretisation of an OU process
        around the slow mean; bursts arrive per segment and decay over the
        following segments.
        """
        if n_segments <= 0:
            raise CloudError(f"n_segments must be positive, got {n_segments}")
        if duration <= 0:
            raise CloudError(f"duration must be positive, got {duration}")
        dt = duration / n_segments
        mids = start_time + (np.arange(n_segments) + 0.5) * dt
        base = self.epoch_mean(mids)

        return self._stochastic_trajectory(base, dt, n_segments, rng)

    def _stochastic_trajectory(
        self,
        base: np.ndarray,
        dt: float,
        n_segments: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Fast AR(1) + burst-decay components on top of the slow ``base``.

        The single draw path shared by :meth:`sample_trajectory` and
        :meth:`sample_trajectories` — batched and per-game trajectories must
        consume a game's generator identically or batched rounds would stop
        being equivalent to single games.
        """
        rho = math.exp(-dt / self.profile.fast_tau)
        innovation_std = self.profile.fast_std * math.sqrt(max(1.0 - rho * rho, 1e-12))
        shocks = rng.normal(0.0, innovation_std, size=n_segments)
        fast = ar1_scan(rho, float(rng.normal(0.0, self.profile.fast_std)), shocks)

        arrivals = rng.random(n_segments) < (self.profile.burst_rate * dt)
        magnitudes = rng.exponential(self.profile.burst_scale, size=n_segments) * arrivals
        decay = math.exp(-dt / self.profile.burst_duration)
        bursts = ar1_scan(decay, 0.0, magnitudes)

        return np.maximum(base + fast + bursts, _MIN_LEVEL)

    def sample_trajectories(
        self,
        start_times: "list[float]",
        durations: "list[float]",
        segment_counts: "list[int]",
        rngs: "list[np.random.Generator]",
    ) -> "list[np.ndarray]":
        """Trajectories of many parallel games, one generator per game.

        Per game this produces exactly what :meth:`sample_trajectory` would
        with the same generator — the stochastic components draw from each
        game's own stream — but the deterministic slow component is
        evaluated for all games in a single vectorised pass, which is what
        makes whole-round batches cheap.
        """
        if not (len(start_times) == len(durations)
                == len(segment_counts) == len(rngs)):
            raise CloudError("trajectory batch arguments must have equal length")
        mids: list = []
        for t0, duration, n_segments in zip(start_times, durations, segment_counts):
            if n_segments <= 0:
                raise CloudError(f"n_segments must be positive, got {n_segments}")
            if duration <= 0:
                raise CloudError(f"duration must be positive, got {duration}")
            dt = duration / n_segments
            mids.append(t0 + (np.arange(n_segments) + 0.5) * dt)
        base_all = self.epoch_mean(np.concatenate(mids)) if mids else np.empty(0)
        bounds = np.cumsum([m.size for m in mids])[:-1]

        return [
            self._stochastic_trajectory(base, duration / n_segments, n_segments, rng)
            for base, duration, n_segments, rng in zip(
                np.split(base_all, bounds), durations, segment_counts, rngs
            )
        ]
