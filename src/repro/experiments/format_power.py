"""Predictive power of tournament formats under noise (Sec. 3's rationale).

The paper motivates each phase's playing style with properties from the
tournament-design literature (its refs. [26, 32, 35, 47, 64]): Swiss
surfaces the strongest of a large pool cheaply, double elimination protects
good players from "one bad day", and knockouts are cheap but fragile.  This
study reproduces the standard analysis of that literature — the
*predictive power* of a format is the probability that its winner is the
ground-truth strongest player, measured under increasing observation noise.

Every trial drives the *same* :mod:`repro.formats` scheduler state machines
the real DarwinGame tuner plays (there is no separate study-only
implementation), just through a noisy-strength match oracle instead of the
batched cloud executor — so what this study measures is exactly the
scheduling behaviour the tuner ships with.  It is the quantitative backing
for DarwinGame's phase choices: the bench asserts the orderings the paper's
design relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.campaigns.runner import parallel_map
from repro.errors import ReproError
from repro.formats.double_elimination import DoubleElimination
from repro.formats.match import NoisyStrengthOracle
from repro.formats.round_robin import RoundRobin
from repro.formats.scheduler import run_schedule
from repro.formats.single_elimination import SingleElimination
from repro.formats.swiss import SwissSystem
from repro.rng import SeedLike, ensure_rng

_FORMATS = {
    "SingleElim": SingleElimination,
    "DoubleElim": DoubleElimination,
    "Swiss": SwissSystem,
    "RoundRobin": RoundRobin,
}
FORMAT_NAMES = tuple(_FORMATS)


@dataclass(frozen=True)
class FormatPowerRow:
    """Predictive power of one format at one noise level."""

    format_name: str
    noise_std: float
    predictive_power: float   # P(winner is the true strongest player)
    top2_power: float         # P(winner is among the true top two)
    mean_games: float
    trials: int


@dataclass(frozen=True)
class FormatPowerResult:
    """The full format x noise grid."""

    rows: List[FormatPowerRow]
    n_players: int
    trials: int

    def row(self, format_name: str, noise_std: float) -> FormatPowerRow:
        for r in self.rows:
            if r.format_name == format_name and abs(r.noise_std - noise_std) < 1e-12:
                return r
        raise KeyError((format_name, noise_std))

    def noise_levels(self) -> List[float]:
        return sorted({r.noise_std for r in self.rows})


def _run_format(name: str, players: Sequence[int], oracle: NoisyStrengthOracle) -> int:
    if name not in _FORMATS:
        raise ReproError(f"unknown format {name!r}; available: {FORMAT_NAMES}")
    return run_schedule(_FORMATS[name](players), oracle).result().winner


def _run_trial_chunk(args: tuple) -> Dict[tuple, Tuple[int, int, int]]:
    """Accumulate (hits, top2-hits, games) per (format, noise) over trials.

    One worker's share of the Monte-Carlo grid.  Every trial is seeded
    independently, so any partition of the trial list over any number of
    workers sums to the same counts — parallelism cannot change results.
    """
    trial_seeds, n_players, noise_levels, formats, strength_spread = args
    counts: Dict[tuple, Tuple[int, int, int]] = {
        (fmt, noise): (0, 0, 0) for fmt in formats for noise in noise_levels
    }
    for trial_seed in trial_seeds:
        rng = np.random.default_rng(trial_seed)
        strengths = rng.uniform(0.0, strength_spread, size=n_players)
        entry_order = rng.permutation(n_players)
        best = int(np.argmax(strengths))
        second = int(np.argsort(-strengths)[1])
        for noise in noise_levels:
            for fmt in formats:
                oracle = NoisyStrengthOracle(
                    strengths, noise, seed=rng.integers(0, 2**31)
                )
                winner = _run_format(fmt, entry_order, oracle)
                key = (fmt, noise)
                hit, t2, games = counts[key]
                counts[key] = (
                    hit + (winner == best),
                    t2 + (winner in (best, second)),
                    games + oracle.games_played,
                )
    return counts


def run_format_power(
    *,
    n_players: int = 16,
    noise_levels: Tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 2.0),
    trials: int = 200,
    strength_spread: float = 1.0,
    seed: SeedLike = 0,
    formats: Tuple[str, ...] = FORMAT_NAMES,
    jobs: int = 1,
) -> FormatPowerResult:
    """Monte-Carlo the format x noise grid.

    Per trial, player strengths are drawn uniformly over
    ``[0, strength_spread]`` with the entry order shuffled (formats must not
    benefit from accidental seeding); every format replays the *same* field
    at the same noise level with its own oracle noise stream.

    Trials are independently seeded up front and submitted to the campaign
    subsystem's worker map in chunks, so ``jobs > 1`` splits the grid
    across processes without changing a single count.
    """
    if n_players < 2:
        raise ReproError(f"need at least two players, got {n_players}")
    if trials < 1:
        raise ReproError(f"trials must be >= 1, got {trials}")
    master = ensure_rng(seed)
    trial_seeds = [int(s) for s in master.integers(0, 2**31, size=trials)]

    n_chunks = max(1, min(jobs, trials))
    chunks = [
        (list(part), n_players, tuple(noise_levels), tuple(formats),
         strength_spread)
        for part in np.array_split(trial_seeds, n_chunks)
    ]
    merged: Dict[tuple, Tuple[int, int, int]] = {
        (fmt, noise): (0, 0, 0) for fmt in formats for noise in noise_levels
    }
    for counts in parallel_map(_run_trial_chunk, chunks, jobs=jobs):
        for key, (hit, t2, games) in counts.items():
            old = merged[key]
            merged[key] = (old[0] + hit, old[1] + t2, old[2] + games)

    rows = [
        FormatPowerRow(
            format_name=fmt,
            noise_std=noise,
            predictive_power=merged[(fmt, noise)][0] / trials,
            top2_power=merged[(fmt, noise)][1] / trials,
            mean_games=merged[(fmt, noise)][2] / trials,
            trials=trials,
        )
        for fmt in formats
        for noise in noise_levels
    ]
    return FormatPowerResult(rows=rows, n_players=n_players, trials=trials)
