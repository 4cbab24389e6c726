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
generator, so how a round is chunked never changes results.  The round's
outcomes stay arrays too: a :class:`~repro.types.RoundOutcomes` sequence
builds a game's :class:`~repro.types.GameOutcome` only when it is indexed
or iterated.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.interference import InterferenceProcess
from repro.cloud.vm import VMSpec
from repro.errors import CloudError
from repro.types import RoundOutcomes

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


def contention_level(num_players, vcpus: int):
    """Shared contention term added to the interference level during a game.

    ``num_players`` may be an array of games' player counts.
    """
    if np.min(num_players) < 1:
        raise CloudError(f"a game needs at least one player, got {num_players}")
    return _CONTENTION_COEFF * (num_players - 1) / vcpus


# Element budget (games * segments * players) of one stacked simulation pass.
# Rounds larger than this are transparently split so peak memory stays at a
# few hundred MB even for thousand-game rounds; the split never changes
# results because every game draws from its own generator.
_BATCH_ELEMENT_BUDGET = 4_000_000


class _Round:
    """A round's simulation state as arrays, threaded through horizon attempts.

    Per game, shape ``(games,)``: players ``k``, contention ``shared``,
    ``horizon``, segment count ``n_seg`` and length ``dt``, ``elapsed``
    time, the ``early`` flag, the ``attempts`` it ran and the sum of their
    mean levels.  Per seat, shape ``(games, players)`` and padded past each
    game's ``k`` (``inside`` marks the real seats, ``None`` if no game is
    short): true times (1.0 as padding), sensitivities, sticky unfairness
    and banked ``work`` (0.0 as padding).
    """

    __slots__ = (
        "rngs", "k", "inside", "t_true", "sens", "unfairness", "shared",
        "horizon", "n_seg", "dt", "elapsed", "work", "early", "attempts",
        "level_sum",
    )

    def __init__(
        self,
        t_flat: np.ndarray,
        s_flat: np.ndarray,
        k: np.ndarray,
        rngs: Sequence[np.random.Generator],
        vm: VMSpec,
        interference: InterferenceProcess,
        max_segments: int,
    ) -> None:
        n_games, p_max = k.size, int(k.max())
        self.rngs = list(rngs)
        self.k = k
        if k.min() == p_max:
            self.inside = None
            self.t_true = t_flat.reshape(n_games, p_max)
            self.sens = s_flat.reshape(n_games, p_max)
        else:
            self.inside = np.arange(p_max) < k[:, None]
            self.t_true = np.ones((n_games, p_max))
            self.t_true[self.inside] = t_flat
            self.sens = np.zeros((n_games, p_max))
            self.sens[self.inside] = s_flat
        # Sticky per-player luck for each game, drawn from its generator;
        # partially sensitivity-scaled — contention-heavy (sensitive)
        # executions suffer more from bad placement.  ``normal(0, s)`` is
        # ``s`` times a standard draw, so scaling afterwards keeps the bits.
        self.unfairness = np.zeros((n_games, p_max))
        for rng, row, players in zip(self.rngs, self.unfairness, k.tolist()):
            rng.standard_normal(out=row[:players])
        self.unfairness *= _UNFAIRNESS_STD
        self.unfairness *= 0.25 + 0.75 * self.sens
        self.shared = contention_level(k, vm.vcpus)
        # Upper-bound each game's duration: slowest player under
        # pessimistic noise.
        profile = interference.profile
        pessimistic = 1.0 + self.sens * (
            profile.mean_level + 3.0 * profile.fast_std + self.shared
        )[:, None]
        slowest = self.t_true * pessimistic
        if self.inside is not None:
            slowest = np.where(self.inside, slowest, -np.inf)
        self.horizon = slowest.max(axis=1) * 1.5
        self.n_seg = np.minimum(
            max_segments, np.maximum(48, self.horizon / 5.0)
        ).astype(np.int64)
        self.dt = self.horizon / self.n_seg
        self.elapsed = np.zeros(n_games)
        self.work = np.zeros((n_games, p_max))
        self.early = np.zeros(n_games, dtype=bool)
        self.attempts = np.zeros(n_games, dtype=np.int64)
        self.level_sum = np.zeros(n_games)

    def outcomes(self, start: float) -> RoundOutcomes:
        """Every game's outcome, in round order, as arrays."""
        work = np.minimum(self.work, 1.0)
        finished = work >= 1.0 - 1e-9
        if self.inside is not None:
            work, finished = work[self.inside], finished[self.inside]
        return RoundOutcomes(
            elapsed=self.elapsed,
            work=work.ravel(),
            finished=finished.ravel(),
            early=self.early,
            mean_interference=self.level_sum / self.attempts,
            sizes=self.k,
            start_time=start,
        )


def simulate_colocated_batch(
    *,
    true_times: np.ndarray,
    sensitivities: np.ndarray,
    sizes: Sequence[int],
    vm: VMSpec,
    interference: InterferenceProcess,
    start_time: float,
    rngs: Sequence[np.random.Generator],
    work_deviation: Optional[float] = None,
    min_work_for_termination: float = 0.25,
    max_segments: int = 240,
) -> RoundOutcomes:
    """Simulate one *round* of co-located games as stacked tensors.

    ``true_times`` and ``sensitivities`` hold the round's players game after
    game, ``sizes`` how many players each game seats; ``rngs`` supplies one
    generator per game, so every game owns an independent random stream and
    the result is identical whether the round is simulated in one pass,
    split into chunks, or replayed one game at a time.

    All games start at ``start_time`` (games of a round run on parallel
    VMs).  The round is held as arrays, one entry per game and one padded
    row of players per game, so that everything but each game's own draws
    (its unfairness, trajectory and jitter) is whole-round array math; the
    heavy part — slowdown fields, work cumsums and the early-termination
    scan — runs once per horizon attempt on a padded ``(games, segments,
    players)`` tensor.

    The outcomes come back as arrays (:class:`~repro.types.RoundOutcomes`):
    elapsed time, early-termination flag and mean level per game, capped
    work and finished flags per seat; a
    :class:`~repro.types.GameOutcome` is built only for a game that is
    indexed or iterated.
    """
    if len(rngs) != len(sizes):
        raise CloudError(
            f"need one rng per game, got {len(rngs)} for {len(sizes)} games"
        )
    if work_deviation is not None and not 0.0 < work_deviation < 1.0:
        raise CloudError(f"work deviation must be in (0, 1), got {work_deviation}")
    t_flat = np.asarray(true_times, dtype=float)
    s_flat = np.asarray(sensitivities, dtype=float)
    if t_flat.ndim != 1 or t_flat.shape != s_flat.shape:
        raise CloudError("true_times and sensitivities must be matching 1-D arrays")
    k = np.asarray(sizes, dtype=np.int64)
    if k.size == 0:
        if t_flat.size:
            raise CloudError(f"{t_flat.size} players given for no game")
        return RoundOutcomes.empty(float(start_time))
    if k.ndim != 1 or k.min() < 1:
        raise CloudError("a game needs at least one player")
    if int(k.sum()) != t_flat.size:
        raise CloudError(
            f"the games seat {int(k.sum())} players, got {t_flat.size}"
        )
    finite = np.isfinite(np.concatenate((t_flat, s_flat)))
    if not finite.all():
        name = "true_times" if not finite[: t_flat.size].all() else "sensitivities"
        raise CloudError(f"{name} must be finite")
    if t_flat.min() <= 0:
        raise CloudError("true execution times must be positive")

    start = float(start_time)
    # ``None`` leaves early termination off for the whole round.
    dev = float(work_deviation) if work_deviation is not None else None
    min_work = float(min_work_for_termination)
    round_ = _Round(t_flat, s_flat, k, rngs, vm, interference, max_segments)

    # The horizon is a heuristic; extend (rarely) until the fastest finishes.
    active = np.arange(k.size)
    for _attempt in range(8):
        if not active.size:
            break
        unfinished = [
            _simulate_attempt(chunk, round_, interference, start, dev, min_work)
            for chunk in _budget_chunks(active, round_)
        ]
        active = np.concatenate(unfinished)
    if active.size:  # pragma: no cover - would need pathological surfaces
        raise CloudError("co-located game failed to converge within 8 horizons")
    return round_.outcomes(start)


def _budget_chunks(active: np.ndarray, round_: _Round) -> List[np.ndarray]:
    """Split a round into chunks whose padded tensor fits the element budget.

    A round that fits is one chunk.  Otherwise games are grouped by similar
    segment count and player count, so the padded ``(games, segments,
    players)`` tensor of each chunk carries little dead weight.  Chunk
    composition never changes results — every game draws from its own
    generator.
    """
    n_seg, k = round_.n_seg[active], round_.k[active]
    if active.size * int(n_seg.max()) * int(k.max()) <= _BATCH_ELEMENT_BUDGET:
        return [active]
    order = np.lexsort((k, n_seg))
    chunks: List[np.ndarray] = []
    first = max_s = max_p = 0
    for i, (n, players) in enumerate(zip(n_seg[order].tolist(), k[order].tolist())):
        s, p = max(max_s, n), max(max_p, players)
        if i > first and (i - first + 1) * s * p > _BATCH_ELEMENT_BUDGET:
            chunks.append(active[order[first:i]])
            first, s, p = i, n, players
        max_s, max_p = s, p
    chunks.append(active[order[first:]])
    return chunks


def _sample_trajectories(
    interference: InterferenceProcess,
    starts: List[float],
    horizons: List[float],
    counts: List[int],
    rngs: List[np.random.Generator],
) -> List[np.ndarray]:
    """Per-game trajectory draws for a chunk, each from its game's generator.

    Uses the process's vectorised ``sample_trajectories`` sampler when it
    has one; replayed traces fall back to the per-game call.
    """
    batch_sampler = getattr(interference, "sample_trajectories", None)
    if batch_sampler is not None:
        return batch_sampler(starts, horizons, counts, rngs)
    return [
        interference.sample_trajectory(t0, horizon, n_segments, rng)
        for t0, horizon, n_segments, rng in zip(starts, horizons, counts, rngs)
    ]


def _level_rows(
    trajectories: List[np.ndarray],
    n_seg: np.ndarray,
    seg_max: int,
    mask_s: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Trajectories as padded ``(games, segments)`` rows, and each one's mean.

    Every row sits behind a 0.0 in one flat buffer, so one
    ``np.add.reduceat`` over (row start, row end) pairs sums each row as
    ``np.mean`` does the row alone: a 0.0 start plus the row's pairwise
    sum.  The padding past a row's end stays out of its sum.
    """
    n_games, width = n_seg.size, seg_max + 1
    buffer = np.zeros(n_games * width + 1)
    levels = buffer[:-1].reshape(n_games, width)[:, 1:]
    flat = np.concatenate(trajectories)
    if mask_s is None:
        levels[...] = flat.reshape(n_games, seg_max)
    else:
        levels[mask_s] = flat
    bounds = np.repeat(np.arange(0, n_games * width, width), 2)
    bounds[1::2] += 1 + n_seg
    return levels, np.add.reduceat(buffer, bounds)[::2] / n_seg


# Segment block length of the stacked scan.  Games leave the computation as
# soon as they stop (finish or early-terminate), so most of a round is only
# simulated over the first block or two instead of every game paying for the
# full pessimistic horizon.  The block is part of the results contract: a
# game's work is each block's ``cumsum`` plus the work carried into it, so
# the block length sets where that addition rounds.
_SEGMENT_BLOCK = 32


def _simulate_attempt(
    chunk: np.ndarray,
    round_: _Round,
    interference: InterferenceProcess,
    start: float,
    dev: Optional[float],
    min_work: float,
) -> np.ndarray:
    """Advance every game of ``chunk`` by one horizon; return the unfinished."""
    n_seg = round_.n_seg[chunk]
    k = round_.k[chunk]
    counts, sizes = n_seg.tolist(), k.tolist()
    seg_max, p_max = max(counts), max(sizes)
    # Masks only where some game is short of segments or of players; a
    # chunk without padding skips every masking pass.
    mask_s = np.arange(seg_max) < n_seg[:, None] if min(counts) < seg_max else None
    mask_p = (
        (np.arange(p_max) < k[:, None])[:, None, :] if min(sizes) < p_max else None
    )
    padded = mask_s is not None or mask_p is not None
    rngs = [round_.rngs[g] for g in chunk.tolist()]

    # Per-game trajectory draws; everything after is a stacked computation
    # over the whole chunk.
    trajectories = _sample_trajectories(
        interference, (start + round_.elapsed[chunk]).tolist(),
        round_.horizon[chunk].tolist(), counts, rngs,
    )
    levels, means = _level_rows(trajectories, n_seg, seg_max, mask_s)
    round_.level_sum[chunk] += means
    round_.attempts[chunk] += 1
    levels += round_.shared[chunk][:, None]  # level + co-location contention

    # Rows of the games still running, kept compact: ``live`` maps them to
    # games, and every per-row array (``levels`` and ``mask_s`` from the
    # current block on) drops a row only when its game stops.
    live = chunk
    t_true = round_.t_true[chunk, :p_max][:, None, :]
    sens = round_.sens[chunk, :p_max][:, None, :]
    unfairness = round_.unfairness[chunk, :p_max][:, None, :]
    dt = round_.dt[chunk]
    carry = round_.work[chunk, :p_max]  # work done up to the current block
    early_on = dev is not None and p_max >= 2
    # Player counts, where some game seats one player and so never triggers.
    solo = k if early_on and min(sizes) < 2 else None

    # Scan the horizon in segment blocks.  A game whose stop segment falls
    # inside a block is finalised and leaves the scan, so later blocks only
    # simulate — and only draw jitter for — the games still running.  The
    # per-game generator emits jitter values in segment order either way, so
    # lazy drawing yields the same numbers as drawing the whole horizon
    # upfront; the undrawn tail of a stopped game's dedicated stream is
    # simply never consumed.
    for b0 in range(0, seg_max, _SEGMENT_BLOCK):
        width = min(_SEGMENT_BLOCK, seg_max - b0)
        # Per-player scheduling jitter of the block, drawn per running game
        # straight into its rows of the block buffer.  ``normal(0, s)`` is
        # ``s`` times a standard draw, so scaling the whole block afterwards
        # keeps the bits; padding stays zero.
        w = np.zeros((live.size, width, p_max))
        if not padded:
            for rng, block in zip(rngs, w):
                rng.standard_normal(out=block)
        else:
            for rng, block, n, players in zip(rngs, w, counts, sizes):
                hi = min(n - b0, width)
                if hi <= 0:
                    continue
                if players == p_max:
                    rng.standard_normal(out=block[:hi])
                else:
                    block[:hi, :players] = rng.standard_normal((hi, players))
        w *= _JITTER_STD
        w *= sens
        # Slowdown field of the block, built in place on the jitter buffer:
        # 1 + sens * (level + contention) + jitter + unfairness.
        w += unfairness
        w += 1.0
        w += sens * levels[:, :width, None]
        # Nothing in a shared VM runs faster than on dedicated hardware:
        # lucky jitter/unfairness can only claw back toward the noise-free
        # rate, never beyond it.
        np.maximum(w, 1.0, out=w)
        w *= t_true
        np.reciprocal(w, out=w)       # rates: work fraction per second
        w *= dt[:, None, None]        # work fraction per segment
        if mask_p is not None:
            w *= mask_p
        if mask_s is not None:
            w *= mask_s[:, :width, None]
        cum = w.cumsum(axis=1)
        cum += carry[:, None, :]

        if early_on:
            view = cum if mask_p is None else np.where(mask_p, cum, -np.inf)
            top2 = np.partition(view, p_max - 2, axis=2)[:, :, p_max - 2:]
            best, second = top2[:, :, 1], top2[:, :, 0]
            gap = (best - second) / np.maximum(best, 1e-12)
            triggered = (best >= min_work) & (gap > dev)
            if mask_s is not None:
                triggered &= mask_s[:, :width]
            if solo is not None:
                triggered &= (solo >= 2)[:, None]
            trig_any = triggered.any(axis=1)
        else:
            best = (
                cum if mask_p is None else np.where(mask_p, cum, -np.inf)
            ).max(axis=2)

        # A frozen padded tail can never newly cross 1.0, so the first
        # >= 1.0 segment is always a real one; no segment mask needed.
        done = best >= 1.0
        done_any = done.any(axis=1)
        stopped = done_any | trig_any if early_on else done_any
        hit = stopped.nonzero()[0]
        if not hit.size:
            carry = cum[:, -1, :]  # bank block progress
            levels = levels[:, width:]
            if mask_s is not None:
                mask_s = mask_s[:, width:]
            continue

        finished = done_any[hit]
        stop = done[hit].argmax(axis=1)
        if early_on:
            # An early stop wins only if it comes strictly first.
            trig_first = triggered[hit].argmax(axis=1)
            finished &= ~(trig_any[hit] & (trig_first < stop))
            stop = np.where(finished, stop, trig_first)
        prev = np.where((stop > 0)[:, None], cum[hit, stop - 1], carry[hit])
        step = w[hit, stop]  # work done in the stop segment
        # Interpolate the exact finish moment inside the stop segment so
        # elapsed time (and core-hours) do not quantise to segments.
        seats = np.arange(hit.size)
        leader = cum[hit, stop].argmax(axis=1)
        frac = np.where(
            finished,
            np.minimum(
                np.maximum((1.0 - prev[seats, leader]) / step[seats, leader], 0.0),
                1.0,
            ),
            1.0,
        )
        games = live[hit]
        round_.elapsed[games] += (b0 + stop + frac) * dt[hit]
        round_.work[games, :p_max] = prev + step * frac[:, None]
        round_.early[games] = ~finished
        if hit.size == live.size:
            return live[:0]

        keep = (~stopped).nonzero()[0]
        live, t_true, sens, unfairness, dt = (
            live[keep], t_true[keep], sens[keep], unfairness[keep], dt[keep]
        )
        carry = cum[keep, -1, :]  # bank block progress
        levels = levels[keep, width:]
        if mask_s is not None:
            mask_s = mask_s[keep, width:]
        if mask_p is not None:
            mask_p = mask_p[keep]
        if solo is not None:
            solo = solo[keep]
        kept = keep.tolist()
        rngs = [rngs[r] for r in kept]
        counts = [counts[r] for r in kept]
        sizes = [sizes[r] for r in kept]

    # Fastest player did not finish within the horizon for whoever is left:
    # bank progress; the next attempt simulates another horizon.
    round_.elapsed[live] += round_.horizon[live]
    round_.work[live, :p_max] = carry
    return live


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
