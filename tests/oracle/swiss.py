"""One region pool at a time: the reference for the round scheduler.

:class:`StreakSwissPool` is DarwinGame's regional Swiss pool as one object
per region, drawing through the pool's own ``sample`` and the veteran draw
through :func:`choice_without_replacement` (numpy's ``Generator.choice(p=,
replace=False)`` replayed pass for pass).  The round scheduler
:class:`repro.formats.swiss.StreakSwiss` holds every pool of a phase and
chooses a round's lineups in whole-round passes; pool for pool it must
emit these lineups and leave each generator in this state.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

import numpy as np

# Exponent sharpening score-proportional selection (the scheduler's).
SELECTION_SHARPNESS = 4.0


def choice_without_replacement(
    rng: np.random.Generator, p: np.ndarray, size: int
) -> list[int]:
    """``rng.choice(len(p), size, replace=False, p=p)`` without its call overhead.

    Each pass draws ``rng.random(size - found)``, zeroes the weights already
    picked, normalises their cumulative sum and maps the draws through
    ``searchsorted(side="right")``, keeping each new index at its first
    occurrence.  The picks, and the generator's state afterwards, are
    numpy's.  Refuses non-finite weights and fewer positive weights than
    picks, which keeps the loop finite.
    """
    p = np.array(p, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if np.count_nonzero(p > 0) < size:
        raise ValueError("fewer non-zero entries in p than size")
    found: list[int] = []
    while len(found) < size:
        draws = rng.random(size - len(found))
        if found:
            p[found] = 0.0
        cdf = p.cumsum()
        cdf /= cdf[-1]
        found.extend(dict.fromkeys(cdf.searchsorted(draws, side="right").tolist()))
    return found


class StreakSwissPool:
    """One region's Swiss pool: one multi-player lineup per round.

    Args:
        pool: the drawable players (a :class:`~repro.space.regions.Region`).
        rng: draws newcomers and score-proportional veterans.
        players_per_game: seats per game (clamped to the pool).
        win_streak: consecutive wins after which the champion is declared.
        max_rounds: hard round cap; ``None`` derives one from the pool size.
        swiss_style: with ``False``, a single random game decides the pool.
        scores: maps players to their current mean execution scores.
        on_assign: called with the players seen for the first time, once
            per lineup that brings newcomers.
    """

    def __init__(
        self,
        pool,
        rng: np.random.Generator,
        *,
        players_per_game: int,
        win_streak: int,
        max_rounds: Optional[int] = None,
        swiss_style: bool = True,
        scores: Callable[[Sequence[int]], np.ndarray],
        on_assign: Optional[Callable[[List[int]], None]] = None,
    ) -> None:
        self.pool = pool
        self.rng = rng
        self.scores = scores
        self.on_assign = on_assign
        self.games = 0
        self.champion = -1
        self.streak = 0
        self.round_no = 0
        self.done = False
        self._played: dict = {}
        self.played_players: List[int] = []
        self._newcomers: List[int] = []
        self.lone: Optional[int] = None
        self._swiss = swiss_style
        self._win_streak = win_streak

        self.players_per_game = max(2, min(players_per_game, pool.size))
        if pool.size == 1:
            self.lone = pool.start
            self._notify_assigned([self.lone])
            self.done = True
            return

        if self._swiss:
            self._fresh: Optional[List[int]] = (
                pool.sample(pool.size, rng, replace=False).tolist()
                if pool.size <= 4 * self.players_per_game else None
            )
            self._drawn: set = set()
            if max_rounds is None:
                newcomers = max(1, self.players_per_game // 2)
                max_rounds = min(64, math.ceil(pool.size / newcomers) + 2)
            self.max_rounds = max_rounds
        else:
            self.max_rounds = 1

    def _notify_assigned(self, players: List[int]) -> None:
        if self.on_assign is not None:
            self.on_assign(players)

    def _draw_new(self, n: int) -> List[int]:
        if self._fresh is not None:
            out = self._fresh[:n]
            del self._fresh[:n]
            return out
        out: List[int] = []
        drawn = self._drawn
        attempts = 0
        while len(out) < n and attempts < 20:
            batch = self.pool.sample(max(2 * n, 8), self.rng).tolist()
            fresh = [i for i in dict.fromkeys(batch) if i not in drawn]
            fresh = fresh[: n - len(out)]
            drawn.update(fresh)
            out += fresh
            attempts += 1
        return out

    def _select_veterans(self, n: int) -> List[int]:
        """Pick ``n`` previously scored players, champion always included."""
        if n <= 0:
            return []
        members = self.played_players
        champion_pos = self._played.get(self.champion)
        chosen: List[int] = [self.champion] if champion_pos is not None else []
        want = n - len(chosen)
        if want > 0 and len(members) > len(chosen):
            scores = self.scores(members)
            weights = np.power(np.maximum(scores, 1e-6), SELECTION_SHARPNESS)
            if champion_pos is not None:
                weights[champion_pos] = 0.0
            total = weights.sum()
            if total > 0:
                take = min(want, len(members) - len(chosen))
                picks = choice_without_replacement(
                    self.rng, weights / total, take
                )
                chosen.extend(map(members.__getitem__, picks))
        return chosen[:n]

    def next_lineup(self) -> Optional[List[int]]:
        """Lineup this pool wants to play now; ``None`` once terminated."""
        if self.done:
            return None
        veterans: List[int] = []
        if not self._swiss:
            newcomers = self.pool.sample(
                min(self.players_per_game, self.pool.size), self.rng,
                replace=False,
            ).tolist()
        elif self.round_no >= self.max_rounds:
            self.done = True
            return None
        elif self.round_no == 0:
            newcomers = self._draw_new(self.players_per_game)
        else:
            newcomers = self._draw_new(self.players_per_game // 2)
            veterans = self._select_veterans(
                self.players_per_game - len(newcomers)
            )
        lineup = veterans + newcomers
        if len(lineup) < 2:
            self.done = True
            return None
        if newcomers:
            self._notify_assigned(newcomers)
        self._newcomers = newcomers
        return lineup

    def observe(self, winner: int) -> None:
        """Fold the played lineup's winner into the streak state."""
        played, new = self._played, self._newcomers
        played.update(zip(new, range(len(played), len(played) + len(new))))
        self.played_players += new
        self._newcomers = []
        self.round_no += 1
        self.games += 1

        if not self._swiss:
            self.champion = winner
            self.done = True
            return
        if winner == self.champion:
            self.streak += 1
        else:
            self.champion = winner
            self.streak = 1
        if self.streak >= self._win_streak:
            self.done = True
        elif self._fresh is not None and not self._fresh:
            self.done = True
