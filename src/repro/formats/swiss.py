"""Swiss playing styles: keep the strongest players meeting each other.

Two schedulers share this module:

* :class:`SwissSystem` — the textbook Swiss system of the tournament-design
  literature: rounds of score-group *pairings*, nobody eliminated, and the
  standings after ``r ~ log2(n)`` rounds identify the strongest players with
  far fewer games than a round-robin.

* :class:`StreakSwiss` — DarwinGame's regional variant (Sec. 3.3, Fig. 6):
  rounds of *multi-player* games over a drawable player pool.  Round one
  picks players at random; every later round fills half its seats with
  players that have never played and half with previously scored players
  selected probabilistically — a higher execution score means a higher
  chance of being re-selected, so the most promising configurations keep
  contending with each other (the Swiss property).  A run terminates when
  one player has won consecutively "more than one time" (the champion),
  when the pool of new players is exhausted, or when the round cap is hit.

Each is one class, built from its players (``SwissSystem``) or its region
pool (``StreakSwiss``) and its settings: a pure scheduler over abstract
player ids that emits rounds and ingests results.  The same objects are
driven by the match-oracle executor (format studies, through
:func:`~repro.formats.scheduler.run_schedule`) and by the cloud-game
executor (the real tuner).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ReproError
from repro.formats.scheduler import (
    Match,
    PlayerPool,
    Round,
    RunLog,
    validated_players,
)
from repro.rng import choice_without_replacement


@dataclass(frozen=True)
class SwissResult:
    """Standings after all Swiss rounds (best first)."""

    standings: Tuple[int, ...]
    scores: Dict[int, float]
    games: int
    rounds: int

    @property
    def winner(self) -> int:
        return self.standings[0]


class SwissSystem:
    """One Swiss-system tournament: score-group pairing for fixed rounds.

    Args:
        players: the entrants' ids.
        rounds: number of Swiss rounds; ``None`` uses ``ceil(log2(n))``,
            the conventional minimum for a unique leader.
    """

    def __init__(
        self, players: Sequence[int], rounds: Optional[int] = None
    ) -> None:
        if rounds is not None and rounds < 1:
            raise ReproError(f"rounds must be >= 1, got {rounds}")
        self.ids = validated_players(players, minimum=2, what="a Swiss tournament")
        if rounds is None:
            rounds = max(1, (len(self.ids) - 1).bit_length())
        self.n_rounds = rounds
        self.scores: Dict[int, float] = {p: 0.0 for p in self.ids}
        self.met: Set[Tuple[int, int]] = set()
        self.log = RunLog()
        self._round_no = 0
        self._pending_bye: Optional[int] = None

    @property
    def done(self) -> bool:
        return self._round_no >= self.n_rounds

    def pairings(self) -> Optional[Round]:
        if self.done:
            return None
        pairs, bye = self._pair(self.ids, self.scores, self.met)
        self._pending_bye = bye
        return Round(
            matches=tuple(Match(pair) for pair in pairs),
            byes=(bye,) if bye is not None else (),
        )

    def advance(self, results) -> None:
        if self._pending_bye is not None:
            self.scores[self._pending_bye] += 1.0  # a bye scores like a win
            self._pending_bye = None
        for match in results:
            self.scores[match.winner] += 1.0
            a, b = match.players[0], match.players[-1]
            self.met.add((min(a, b), max(a, b)))
        self._round_no += 1
        self.log.book(results)

    def result(self) -> SwissResult:
        standings = sorted(self.ids, key=lambda p: (-self.scores[p], p))
        return SwissResult(
            standings=tuple(standings),
            scores=self.scores,
            games=self.log.games,
            rounds=self.n_rounds,
        )

    @staticmethod
    def _pair(
        ids: List[int],
        scores: Dict[int, float],
        met: Set[Tuple[int, int]],
    ) -> Tuple[List[Tuple[int, int]], Optional[int]]:
        """Pair by score groups with rematch avoidance; returns (pairs, bye).

        Sort by score, walk down the list pairing each unpaired player with
        the highest unpaired opponent they have not met; if everyone
        remaining has been met, allow the rematch rather than leave players
        idle.
        """
        order = sorted(ids, key=lambda p: (-scores[p], p))
        unpaired = list(order)
        pairs: List[Tuple[int, int]] = []
        while len(unpaired) >= 2:
            a = unpaired.pop(0)
            pick = None
            for k, b in enumerate(unpaired):
                if (min(a, b), max(a, b)) not in met:
                    pick = k
                    break
            if pick is None:
                pick = 0  # every remaining opponent already met: allow rematch
            pairs.append((a, unpaired.pop(pick)))
        bye = unpaired[0] if unpaired else None
        return pairs, bye


# Exponent sharpening score-proportional selection: strong players meet often.
SELECTION_SHARPNESS = 4.0


class StreakSwiss:
    """One DarwinGame-style Swiss pool (a region's tournament).

    One multi-player lineup per round.  The machine is oblivious to how its
    rounds are simulated — the driver decides whether rounds from many pools
    are batched together (regions in lockstep) or played one at a time.

    Args:
        pool: the drawable players (a region).
        rng: draws newcomers and score-proportional veterans.
        players_per_game: seats per multi-player game (clamped to the pool).
        win_streak: consecutive wins after which the champion is declared.
        max_rounds: hard round cap; ``None`` derives one from the pool size.
        swiss_style: with ``False``, a single random game decides the pool
            (the paper's "w/o Swiss" ablation).
        scores: maps players to their current mean execution scores.
        on_assign: called with the players seen for the first time, once
            per lineup that brings newcomers.
    """

    def __init__(
        self,
        pool: PlayerPool,
        rng: np.random.Generator,
        *,
        players_per_game: int,
        win_streak: int,
        max_rounds: Optional[int] = None,
        swiss_style: bool = True,
        scores: Callable[[Sequence[int]], np.ndarray],
        on_assign: Optional[Callable[[List[int]], None]] = None,
    ) -> None:
        if players_per_game < 2:
            raise ReproError(
                f"players_per_game must be >= 2, got {players_per_game}"
            )
        if win_streak < 2:
            raise ReproError(f"win_streak must be >= 2, got {win_streak}")
        self.pool = pool
        self.rng = rng
        self.scores = scores
        self.on_assign = on_assign
        self.log = RunLog()
        self.champion = -1
        self.streak = 0
        self.round_no = 0
        self.done = False
        # Ordered set of everyone who has played (and so carries a score):
        # position map plus the matching list, maintained incrementally.
        self._played: Dict[int, int] = {}
        self._played_list: List[int] = []
        self._newcomers: List[int] = []
        self.lone: Optional[int] = None
        self._swiss = swiss_style
        self._win_streak = win_streak

        self.players_per_game = max(2, min(players_per_game, pool.size))
        if pool.size == 1:
            # Degenerate single-player pool: the lone player advances unplayed.
            self.lone = pool.start
            self._notify_assigned([self.lone])
            self.done = True
            return

        if self._swiss:
            self._fresh: Optional[List[int]] = (
                pool.sample(pool.size, rng, replace=False).tolist()
                if pool.size <= 4 * self.players_per_game else None
            )
            # Large pools draw new players lazily instead of materialising all.
            self._drawn: set = set()
            if max_rounds is None:
                newcomers = max(1, self.players_per_game // 2)
                max_rounds = min(64, math.ceil(pool.size / newcomers) + 2)
            self.max_rounds = max_rounds
        else:
            self.max_rounds = 1

    # -- drawing newcomers -------------------------------------------------

    def _notify_assigned(self, players: List[int]) -> None:
        """Announce players seen for the first time, one call per lineup."""
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
        """Pick ``n`` previously scored players, champion always included.

        ``_played_list`` is the ordered list of scored players and
        ``_played`` its index map, both maintained incrementally — so the
        membership test is O(1) and the selection weights come from one
        vectorised score gather instead of a per-player pool rebuild.
        """
        if n <= 0:
            return []
        members = self._played_list
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

    # -- the round protocol ------------------------------------------------

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
        # Newcomers are never drawn twice and every veteran has played, so
        # a lineup's first-time players are exactly its newcomers.
        if newcomers:
            self._notify_assigned(newcomers)
        self._newcomers = newcomers
        return lineup

    def pairings(self) -> Optional[Round]:
        lineup = self.next_lineup()
        if lineup is None:
            return None
        return Round(matches=(Match(tuple(lineup)),))

    def advance(self, results) -> None:
        """Book one played round (a single multi-player match) back in."""
        (match,) = results
        self.log.book(results)
        self._observe(match.winner)

    @property
    def games(self) -> int:
        """Games played so far (one multi-player game per round)."""
        return self.log.games

    def _observe(self, winner: int) -> None:
        """Fold the played lineup's winner into the streak state."""
        played, new = self._played, self._newcomers
        played.update(zip(new, range(len(played), len(played) + len(new))))
        self._played_list += new
        self._newcomers = []
        self.round_no += 1

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

    @property
    def played_players(self) -> List[int]:
        """Everyone who has played a game, in first-appearance order."""
        return self._played_list
