"""Physics of one co-located game (Sec. 3.2).

When ``k`` copies of the application run together on one VM, every copy sees

* the same background interference trajectory ``I(t)`` (that is DarwinGame's
  key trick: competitors face identical noise),
* a shared co-location contention term growing with ``k`` (the paper notes
  that co-locating 1000 configurations at once fails precisely because this
  term swamps the signal), and
* a small per-player residual jitter (scheduling unfairness).

A player with true solo time ``T`` and sensitivity ``s`` progresses at rate
``1 / (T * (1 + s * (I + contention) + jitter))`` work-fractions per second.
The game ends when the fastest player finishes, or — if early termination is
enabled — when the fastest player is at least ``min_work`` done and leads the
runner-up by more than the work-done deviation ``d`` (Fig. 5).

The kernel is *round-shaped*: :func:`simulate_colocated_batch` simulates one
round — every game on its own VM, all under the round's interference
process, start time, and early-termination setting — as padded
``(games, segments, players)`` tensor passes.  Every game draws from its own
generator, so how a round is chunked never changes results.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.interference import InterferenceProcess
from repro.cloud.vm import VMSpec
from repro.errors import CloudError
from repro.types import GameOutcome

# Co-location pressure per competitor, relative to VM width.  At the paper's
# operating point (32 players on 32 vCPUs) this contributes ~0.78 to the
# interference level — co-location inside a VM "creates additional noise".
_CONTENTION_COEFF = 0.8
# Residual per-player, per-segment unfairness (std of a zero-mean factor).
_JITTER_STD = 0.015
# Persistent per-player, per-game unfairness: scheduling and cache-placement
# luck is sticky for the lifetime of a run, so one co-located copy can run a
# few percent slow for a whole game.  This is what makes a single game an
# imperfect judge and the tournament's repeated games necessary (Sec. 3.2).
_UNFAIRNESS_STD = 0.03
# Sensitivity-independent measurement noise floor (timer, startup, ...).
_MEASUREMENT_STD = 0.003


def contention_level(num_players: int, vcpus: int) -> float:
    """Shared contention term added to the interference level during a game."""
    if num_players < 1:
        raise CloudError(f"a game needs at least one player, got {num_players}")
    return _CONTENTION_COEFF * (num_players - 1) / vcpus


# Element budget (games * segments * players) of one stacked simulation pass.
# Rounds larger than this are transparently split so peak memory stays at a
# few hundred MB even for thousand-game rounds; the split never changes
# results because every game draws from its own generator.
_BATCH_ELEMENT_BUDGET = 4_000_000


class _GameState:
    """Mutable per-game simulation state threaded through horizon attempts."""

    __slots__ = (
        "t_true", "sens", "k", "shared", "unfairness", "horizon", "dt",
        "n_segments", "elapsed", "work", "early", "mean_levels", "rng",
    )

    def __init__(
        self,
        t_true: np.ndarray,
        sens: np.ndarray,
        vm: VMSpec,
        interference: InterferenceProcess,
        max_segments: int,
        rng: np.random.Generator,
    ) -> None:
        self.t_true = t_true
        self.sens = sens
        self.k = t_true.size
        self.shared = contention_level(self.k, vm.vcpus)
        # Sticky per-player luck for this game; partially sensitivity-scaled —
        # contention-heavy (sensitive) executions suffer more from bad
        # placement.
        self.unfairness = rng.normal(0.0, _UNFAIRNESS_STD, size=self.k) * (
            0.25 + 0.75 * sens
        )
        # Upper-bound the game duration: slowest player under pessimistic noise.
        pessimistic = 1.0 + sens * (interference.profile.mean_level
                                    + 3.0 * interference.profile.fast_std
                                    + self.shared)
        self.horizon = float((t_true * pessimistic).max()) * 1.5
        self.n_segments = int(min(max_segments, max(48, self.horizon / 5.0)))
        self.dt = self.horizon / self.n_segments
        self.elapsed = 0.0
        self.work = np.zeros(self.k)
        self.early = False
        self.mean_levels: List[float] = []
        self.rng = rng

    def outcome(self, start_time: float) -> GameOutcome:
        work = np.minimum(self.work, 1.0)
        finished = work >= 1.0 - 1e-9
        levels = self.mean_levels
        return GameOutcome(
            elapsed=float(self.elapsed),
            work=tuple(work.tolist()),
            finished=tuple(finished.tolist()),
            early_terminated=self.early,
            start_time=start_time,
            mean_interference=float(sum(levels) / len(levels)),
        )


def simulate_colocated_batch(
    *,
    games: Sequence[Tuple[np.ndarray, np.ndarray]],
    vm: VMSpec,
    interference: InterferenceProcess,
    start_time: float,
    rngs: Sequence[np.random.Generator],
    work_deviation: Optional[float] = None,
    min_work_for_termination: float = 0.25,
    max_segments: int = 240,
) -> List[GameOutcome]:
    """Simulate one *round* of co-located games as stacked tensors.

    ``games`` is a list of ``(true_times, sensitivities)`` player arrays —
    one entry per game of the round; ``rngs`` supplies one generator per
    game, so every game owns an independent random stream and the result is
    identical whether the round is simulated in one pass, split into chunks,
    or replayed one game at a time.

    All games start at ``start_time`` (games of a round run on parallel
    VMs).  The heavy arithmetic — slowdown fields, work cumsums, and the
    early-termination scan — runs once per horizon attempt on a padded
    ``(games, segments, players)`` tensor instead of once per game.
    """
    if len(rngs) != len(games):
        raise CloudError(
            f"need one rng per game, got {len(rngs)} for {len(games)} games"
        )
    if work_deviation is not None and not 0.0 < work_deviation < 1.0:
        raise CloudError(f"work deviation must be in (0, 1), got {work_deviation}")

    prepared: List[Tuple[np.ndarray, np.ndarray]] = []
    for true_times, sensitivities in games:
        t_true = np.asarray(true_times, dtype=float)
        sens = np.asarray(sensitivities, dtype=float)
        if t_true.ndim != 1 or t_true.shape != sens.shape:
            raise CloudError(
                "true_times and sensitivities must be matching 1-D arrays"
            )
        if t_true.size == 0:
            raise CloudError("a game needs at least one player")
        if np.any(t_true <= 0):
            raise CloudError("true execution times must be positive")
        prepared.append((t_true, sens))

    start = float(start_time)
    # ``None`` leaves early termination off for the whole round.
    dev = float(work_deviation) if work_deviation is not None else None
    min_work = float(min_work_for_termination)
    states = [
        _GameState(t_true, sens, vm, interference, max_segments, rng)
        for (t_true, sens), rng in zip(prepared, rngs)
    ]

    # The horizon is a heuristic; extend (rarely) until the fastest finishes.
    active = list(range(len(states)))
    for _attempt in range(8):
        if not active:
            break
        still_active: List[int] = []
        for chunk in _budget_chunks(active, states):
            still_active.extend(_simulate_attempt(
                chunk, states, interference, start, dev, min_work
            ))
        active = still_active
    if active:  # pragma: no cover - would need pathological surfaces
        raise CloudError("co-located game failed to converge within 8 horizons")
    return [state.outcome(start) for state in states]


def _budget_chunks(
    active: List[int], states: List[_GameState]
) -> List[List[int]]:
    """Split a round into chunks whose padded tensor fits the element budget.

    Games are grouped by similar segment count and player count, so the
    padded ``(games, segments, players)`` tensor of each chunk carries
    little dead weight.  Chunk composition never changes results — every
    game draws from its own generator.
    """
    ordered = sorted(active, key=lambda g: (states[g].n_segments, states[g].k))
    chunks: List[List[int]] = []
    current: List[int] = []
    max_s = max_p = 0
    for g in ordered:
        s = max(max_s, states[g].n_segments)
        p = max(max_p, states[g].k)
        if current and (len(current) + 1) * s * p > _BATCH_ELEMENT_BUDGET:
            chunks.append(current)
            current, s, p = [], states[g].n_segments, states[g].k
        current.append(g)
        max_s, max_p = s, p
    if current:
        chunks.append(current)
    return chunks


def _sample_trajectories(
    chunk: List[int],
    states: List[_GameState],
    interference: InterferenceProcess,
    start: float,
) -> List[np.ndarray]:
    """Per-game trajectory draws for a chunk, each from its game's generator.

    Uses the process's vectorised ``sample_trajectories`` sampler when it
    has one; replayed traces fall back to the per-game call.
    """
    starts = [start + states[g].elapsed for g in chunk]
    horizons = [states[g].horizon for g in chunk]
    counts = [states[g].n_segments for g in chunk]
    rngs = [states[g].rng for g in chunk]
    batch_sampler = getattr(interference, "sample_trajectories", None)
    if batch_sampler is not None:
        return batch_sampler(starts, horizons, counts, rngs)
    return [
        interference.sample_trajectory(t0, horizon, n_segments, rng)
        for t0, horizon, n_segments, rng in zip(starts, horizons, counts, rngs)
    ]


# Segment block length of the stacked scan.  Games leave the computation as
# soon as they stop (finish or early-terminate), so most of a round is only
# simulated over the first block or two instead of every game paying for the
# full pessimistic horizon.
_SEGMENT_BLOCK = 32


def _simulate_attempt(
    chunk: List[int],
    states: List[_GameState],
    interference: InterferenceProcess,
    start: float,
    dev: Optional[float],
    min_work: float,
) -> List[int]:
    """Advance every game of ``chunk`` by one horizon; return the unfinished."""
    n_games = len(chunk)
    seg_max = max(states[g].n_segments for g in chunk)
    p_max = max(states[g].k for g in chunk)
    # Chunks are grouped by shape, so padding is usually absent — in that
    # case the masking passes over the tensors are skipped entirely.
    padded = any(
        states[g].n_segments != seg_max or states[g].k != p_max for g in chunk
    )

    levels = np.zeros((n_games, seg_max))
    t_true = np.ones((n_games, p_max))
    sens = np.zeros((n_games, p_max))
    unfairness = np.zeros((n_games, p_max))
    carry = np.zeros((n_games, p_max))  # work done up to the current block
    shared = np.empty(n_games)
    dt = np.empty(n_games)
    k_arr = np.empty(n_games, dtype=np.int64)
    if padded:
        mask_p = np.zeros((n_games, p_max), dtype=bool)
        mask_s = np.zeros((n_games, seg_max), dtype=bool)

    # Per-game trajectory draws; everything after is a stacked computation
    # over the whole chunk.
    trajectories = _sample_trajectories(chunk, states, interference, start)
    for a, g in enumerate(chunk):
        st = states[g]
        traj = trajectories[a]
        st.mean_levels.append(float(traj.mean()))
        levels[a, : st.n_segments] = traj
        t_true[a, : st.k] = st.t_true
        sens[a, : st.k] = st.sens
        unfairness[a, : st.k] = st.unfairness
        carry[a, : st.k] = st.work
        shared[a] = st.shared
        dt[a] = st.dt
        k_arr[a] = st.k
        if padded:
            mask_p[a, : st.k] = True
            mask_s[a, : st.n_segments] = True

    levels += shared[:, None]  # level + co-location contention, per segment
    early_on = dev is not None and p_max >= 2

    # Scan the horizon in segment blocks.  A game whose stop segment falls
    # inside a block is finalised and leaves the scan, so later blocks only
    # simulate — and only draw jitter for — the games still running.  The
    # per-game generator emits jitter values in segment order either way, so
    # lazy drawing yields the same numbers as drawing the whole horizon
    # upfront; the undrawn tail of a stopped game's dedicated stream is
    # simply never consumed.
    rows = np.arange(n_games)
    unfinished: List[int] = []
    for b0 in range(0, seg_max, _SEGMENT_BLOCK):
        b1 = min(b0 + _SEGMENT_BLOCK, seg_max)
        # Per-player scheduling jitter of the block, drawn per running game
        # straight into its rows of the block buffer.  ``normal(0, s)`` is
        # ``s`` times a standard draw, so scaling the whole block afterwards
        # keeps the bits; padding stays zero.
        w = np.zeros((rows.size, b1 - b0, p_max))
        for r, a in enumerate(rows):
            st = states[chunk[int(a)]]
            hi = min(b1, st.n_segments) - b0
            if hi == b1 - b0 and st.k == p_max:
                st.rng.standard_normal(out=w[r])
            elif hi > 0:
                w[r, :hi, : st.k] = st.rng.standard_normal((hi, st.k))
        w *= _JITTER_STD
        w *= sens[rows][:, None, :]
        # Slowdown field of the block, built in place on the jitter buffer:
        # 1 + sens * (level + contention) + jitter + unfairness.
        w += unfairness[rows][:, None, :]
        w += 1.0
        w += sens[rows][:, None, :] * levels[rows, b0:b1][:, :, None]
        # Nothing in a shared VM runs faster than on dedicated hardware:
        # lucky jitter/unfairness can only claw back toward the noise-free
        # rate, never beyond it.
        np.maximum(w, 1.0, out=w)
        w *= t_true[rows][:, None, :]
        np.reciprocal(w, out=w)       # rates: work fraction per second
        w *= dt[rows][:, None, None]  # work fraction per segment
        if padded:
            w *= mask_p[rows][:, None, :]
            w *= mask_s[rows, b0:b1][:, :, None]
        cum = np.cumsum(w, axis=1)
        cum += carry[rows][:, None, :]

        k_rows = k_arr[rows]
        trig_any = np.zeros(rows.size, dtype=bool)
        trig_first = np.zeros(rows.size, dtype=np.int64)
        if early_on:
            view = np.where(mask_p[rows][:, None, :], cum, -np.inf) if padded else cum
            top2 = np.partition(view, p_max - 2, axis=2)[:, :, p_max - 2:]
            best, second = top2[:, :, 1], top2[:, :, 0]
            gap = (best - second) / np.maximum(best, 1e-12)
            triggered = (best >= min_work) & (gap > dev)
            if padded:
                triggered &= mask_s[rows, b0:b1]
            if np.any(k_rows < 2):
                triggered &= (k_rows >= 2)[:, None]
            trig_any = triggered.any(axis=1)
            trig_first = triggered.argmax(axis=1)
        else:
            best = (
                np.where(mask_p[rows][:, None, :], cum, -np.inf) if padded else cum
            ).max(axis=2)

        # A frozen padded tail can never newly cross 1.0, so the first
        # >= 1.0 segment is always a real one; no segment mask needed.
        done = best >= 1.0
        done_any = done.any(axis=1)
        done_first = done.argmax(axis=1)

        for r in np.nonzero(trig_any | done_any)[0]:
            st = states[chunk[int(rows[r])]]
            stop_local: Optional[int] = None
            early = finished = False
            if trig_any[r]:
                stop_local = int(trig_first[r])
                early = True
            if done_any[r] and (stop_local is None or done_first[r] <= stop_local):
                stop_local = int(done_first[r])
                early = False
                finished = True
            # Interpolate the exact finish moment inside the stop segment so
            # elapsed time (and core-hours) do not quantise to segments.
            prev = cum[r, stop_local - 1, : st.k] if stop_local > 0 else st.work
            step = w[r, stop_local, : st.k]  # work done in the stop segment
            if finished:
                leader = int(np.argmax(cum[r, stop_local, : st.k]))
                need = 1.0 - prev[leader]
                frac = float(np.clip(need / step[leader], 0.0, 1.0))
            else:
                frac = 1.0
            st.elapsed += (b0 + stop_local + frac) * st.dt
            st.work = prev + step * frac
            st.early = early

        still = ~(trig_any | done_any)
        if not still.any():
            rows = rows[:0]
            break
        # Bank block progress for the games still running.  (``st.work`` is
        # only read at block starts, so carry is the single source of truth
        # between blocks.)
        carry[rows[still]] = cum[still, -1, :]
        for r in np.nonzero(still)[0]:
            a = int(rows[r])
            states[chunk[a]].work = carry[a, : k_arr[a]]
        rows = rows[still]

    # Fastest player did not finish within the horizon for whoever is left:
    # bank progress; the next attempt simulates another horizon.
    for a in rows:
        st = states[chunk[int(a)]]
        st.elapsed += st.horizon
        st.work = carry[int(a), : st.k].copy()
        unfinished.append(chunk[int(a)])
    return unfinished


def solo_observed_time(
    *,
    true_time: float,
    sensitivity: float,
    level: float,
    measurement_noise: float,
) -> float:
    """Observed duration of a solo run under mean level ``level``.

    ``measurement_noise`` is a zero-mean multiplicative draw already scaled by
    :data:`_MEASUREMENT_STD`; it models the sensitivity-independent noise
    floor every real measurement carries.
    """
    if true_time <= 0:
        raise CloudError("true execution time must be positive")
    return float(true_time * (1.0 + sensitivity * level) * (1.0 + measurement_noise))


def measurement_noise_std() -> float:
    """Expose the measurement-noise floor for tests and calibration."""
    return _MEASUREMENT_STD
