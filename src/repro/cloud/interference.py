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
time — :meth:`sample_trajectories` samples a whole round of games at once.
"""

from __future__ import annotations

import math
import sys

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


def _chunk_length(rho: float) -> int:
    """Longest scan chunk over which ``rho**-j`` spans at most ~100 decades."""
    return max(1, int(100.0 / max(-math.log10(rho), 1e-18)))


def ar1_scan(rho: float, state: float, innovations: np.ndarray) -> np.ndarray:
    """Evaluate the linear recurrence ``y[k] = rho * y[k-1] + innovations[k]``.

    Closed form: ``y[k] = rho**(k+1) * state + sum_j rho**(k-j) * eps[j]``,
    evaluated as ``rho**k * cumsum(eps[j] / rho**j)`` so the whole scan is a
    handful of vectorised numpy operations instead of a Python loop.  The
    division by ``rho**j`` grows without bound, so the scan is chunked such
    that ``rho**-j`` spans at most ~100 decades per chunk — well inside
    float64 range while keeping each chunk a single vector expression.

    ``rho`` must lie in ``[0, 1]`` (our decay/correlation coefficients
    always do); negative coefficients are rejected.  A ``rho`` below the
    smallest normal float (a segment some 708 correlation times long)
    takes the memoryless limit: dividing by it would overflow, and
    ``rho * y`` is below rounding of any innovation anyway.
    """
    if not 0.0 <= rho <= 1.0:
        raise CloudError(f"ar1_scan requires rho in [0, 1], got {rho}")
    eps = np.asarray(innovations, dtype=float)
    n = eps.size
    out = np.empty(n)
    if n == 0:
        return out
    if rho < sys.float_info.min:
        # Memoryless limit (segment length >> correlation time).
        return eps.copy()
    if rho < 1.0:
        chunk = _chunk_length(rho)
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


def _ar1_rows(
    rho: np.ndarray, state: np.ndarray, eps: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """:func:`ar1_scan` of every row ``eps[g, :counts[g]]``, in place on ``eps``.

    Each row gives :func:`ar1_scan`'s bits.  A row whose ``rho`` lies in
    [``sys.float_info.min``, 1) and whose length fits one scan chunk takes
    that chunk's closed form together with every other such row (``rho**k`` along the row, a
    row-wise cumsum, one multiply); its exponent stops growing at the row's
    end, so the padding past it stays finite.  Any other row goes through
    :func:`ar1_scan` on its own.
    """
    single = np.array([
        sys.float_info.min <= r < 1.0 and n <= _chunk_length(r)
        for r, n in zip(rho.tolist(), counts.tolist())
    ], dtype=bool)
    alone = {
        g: ar1_scan(float(rho[g]), float(state[g]), eps[g, : counts[g]])
        for g in np.flatnonzero(~single)
    }
    powers = np.minimum(
        np.arange(1.0, eps.shape[1] + 1.0), np.where(single, counts, 1)[:, None]
    )
    np.power(np.where(single, rho, 1.0)[:, None], powers, out=powers)
    eps /= powers
    np.cumsum(eps, axis=1, out=eps)
    eps += state[:, None]
    eps *= powers
    for g, row in alone.items():
        eps[g, : row.size] = row
    return eps


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

        A one-game :meth:`sample_trajectories`.
        """
        return self.sample_trajectories(
            [start_time], [duration], [n_segments], [rng]
        )[0]

    def sample_trajectories(
        self,
        start_times: "list[float]",
        durations: "list[float]",
        segment_counts: "list[int]",
        rngs: "list[np.random.Generator]",
    ) -> "list[np.ndarray]":
        """Level trajectories of a round of parallel games, one generator each.

        The fast component follows an AR(1) discretisation of an OU process
        around the slow mean; bursts arrive per segment and decay over the
        following segments.  Each game draws from its own generator, in
        this order: the fast component's shocks, its start state, the burst
        arrivals, the burst magnitudes, each straight into its row of a
        ``(games, segments)`` array.  The slow component, both AR(1) scans
        and the clamp then run over all rows at once, so a game's
        trajectory does not depend on which games share its round.
        """
        if not (len(start_times) == len(durations)
                == len(segment_counts) == len(rngs)):
            raise CloudError("trajectory batch arguments must have equal length")
        for duration, n_segments in zip(durations, segment_counts):
            if n_segments <= 0:
                raise CloudError(f"n_segments must be positive, got {n_segments}")
            if duration <= 0:
                raise CloudError(f"duration must be positive, got {duration}")
        if not rngs:
            return []
        profile = self.profile
        counts = np.asarray(segment_counts, dtype=np.int64)
        dt = np.asarray(durations, dtype=float) / counts
        shape = (counts.size, int(counts.max()))
        columns = np.arange(shape[1])
        inside = columns < counts[:, None]
        mids = (columns + 0.5) * dt[:, None]
        mids += np.asarray(start_times, dtype=float)[:, None]
        level = np.zeros(shape)
        level[inside] = self.epoch_mean(mids[inside])

        fast = np.zeros(shape)
        state = np.empty(counts.size)
        uniforms = np.zeros(shape)
        bursts = np.zeros(shape)
        for g, (n, rng) in enumerate(zip(segment_counts, rngs)):
            rng.standard_normal(out=fast[g, :n])
            state[g] = rng.standard_normal()
            rng.random(out=uniforms[g, :n])
            rng.standard_exponential(out=bursts[g, :n])

        # ``normal(0, s)`` and ``exponential(s)`` return ``s`` times a
        # standard draw, so scaling the rows afterwards keeps their bits.
        # The AR(1) coefficients go through ``math.exp``: numpy's SIMD exp
        # may differ from libm in the last bit.
        rho = np.array([math.exp(-d / profile.fast_tau) for d in dt.tolist()])
        fast *= profile.fast_std * np.sqrt(np.maximum(1.0 - rho * rho, 1e-12))[:, None]
        state *= profile.fast_std
        _ar1_rows(rho, state, fast, counts)

        bursts *= profile.burst_scale
        bursts *= uniforms < (profile.burst_rate * dt)[:, None]
        decay = np.array([math.exp(-d / profile.burst_duration) for d in dt.tolist()])
        _ar1_rows(decay, np.zeros(counts.size), bursts, counts)

        level += fast
        level += bursts
        np.maximum(level, _MIN_LEVEL, out=level)
        return [row[:n] for row, n in zip(level, segment_counts)]
