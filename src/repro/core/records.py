"""Per-player score bookkeeping across the whole tournament.

Two scores drive DarwinGame's decisions (Figs. 5 and 7):

* **execution score** — within one game, the fraction of work a player
  completed relative to the fastest player of that game;
* **consistency score** — the average of ``1 / rank`` over *all* games the
  player has played so far, where rank is the player's execution-score rank
  within each game.  High consistency means the configuration performs well
  repeatedly, under different noise and different opponents.

Layout: the book is one table of per-slot arrays — ``region_id``,
``score_sum`` (summed execution scores), ``rank_sum`` (summed ``1 / rank``),
``games`` and ``wins`` — plus a dict from configuration index to slot, the
slot being the order in which the book first saw the player.  Both scores
are running sums divided by the game count, so every score query is an
array gather, no matter how many games have been played; no per-game
history is kept.

Writes come in bulk: :meth:`RecordBook.assign_region` registers a round's
new players in one vectorised write, and :meth:`RecordBook.record_round`
books a whole round from its flat seat scores — competition ranks
segmented per game, then one unbuffered ``np.add.at`` per column, which
applies a player's seats in lineup order and so accumulates exactly as
booking the games one at a time (:meth:`RecordBook.record_game`) would.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Dict, Sequence, Union

import numpy as np

from repro.analysis.stats import rank_with_ties
from repro.errors import TournamentError

#: The per-slot columns: (attribute, dtype, value of a fresh slot).
_COLUMNS = (
    ("_region_id", np.int64, -1),
    ("_score_sum", np.float64, 0.0),
    ("_rank_sum", np.float64, 0.0),
    ("_games", np.int64, 0),
    ("_wins", np.int64, 0),
)


def finishing_order(scores: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Each game's seat positions by execution score, best first.

    ``scores`` holds a round's seats game after game, ``sizes`` each game's
    seat count; the result lists every game's positions (``0 .. size - 1``)
    in finishing order, game after game, ties in seat order.  One stable
    row sort of the round's ``(games, seats)`` score table, padded past
    each game's size with seats that sort last.
    """
    n_games, width = len(sizes), max(sizes)
    if min(sizes) == width:
        return np.argsort(
            -scores.reshape(n_games, width), axis=1, kind="stable"
        ).ravel()
    inside = np.arange(width) < np.asarray(sizes)[:, None]
    keys = np.full((n_games, width), np.inf)
    keys[inside] = -scores
    return np.argsort(keys, axis=1, kind="stable")[inside]


class RecordBook:
    """Scores of every configuration the tournament has touched.

    A player gets a slot the first time the book sees it — through a region
    assignment, a booked game or a score query — and an unplayed player
    reads as region ``-1`` with zero games, wins and scores.
    """

    _INITIAL_CAPACITY = 64

    def __init__(self) -> None:
        self._slots: Dict[int, int] = {}
        for name, dtype, fresh in _COLUMNS:
            setattr(self, name, np.full(self._INITIAL_CAPACITY, fresh, dtype=dtype))
        self._total_evaluations = 0

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, index: int) -> bool:
        return int(index) in self._slots

    # -- slots ---------------------------------------------------------------

    def _register(self, indices: Sequence[int]) -> np.ndarray:
        """Slots of ``indices``, giving every not-yet-seen index the next
        free slot, in first-appearance order."""
        table = self._slots
        keys = list(map(int, indices))
        start = len(table)
        new = [k for k in dict.fromkeys(keys) if k not in table]
        table.update(zip(new, range(start, start + len(new))))
        capacity = len(self._games)
        if len(table) > capacity:
            while capacity < len(table):
                capacity *= 2
            for name, dtype, fresh in _COLUMNS:
                old = getattr(self, name)
                grown = np.full(capacity, fresh, dtype=dtype)
                grown[: len(old)] = old
                setattr(self, name, grown)
        if len(new) == len(keys):
            return np.arange(start, start + len(keys))
        return np.fromiter(
            map(table.__getitem__, keys), dtype=np.int64, count=len(keys)
        )

    def _slots_of(self, indices: Sequence[int]) -> np.ndarray:
        """Slots of ``indices``, registering any the book has not seen.

        Registering may replace the column arrays, so take the slots before
        indexing a column with them.
        """
        try:
            # One C-level gather: the regional phase reads every selecting
            # pool's played players once a round, so the per-element cost
            # matters.  No int() per key — numpy integers hash like the
            # plain-int keys.  (``itemgetter`` of one key returns the
            # value, not a tuple.)
            slots = (
                itemgetter(*indices)(self._slots) if len(indices) > 1
                else [self._slots[key] for key in indices]
            )
        except KeyError:
            return self._register(indices)
        return np.fromiter(slots, dtype=np.int64, count=len(indices))

    # -- writes --------------------------------------------------------------

    def assign_region(
        self, indices: Sequence[int], region_id: Union[int, Sequence[int]]
    ) -> None:
        """Record that ``indices`` were drawn from region ``region_id``
        (one region for all, or one per index)."""
        # Assigned players are mostly new: register them up front rather
        # than after a gather fails.  (Registering may grow the columns.)
        slots = self._register(indices)
        self._region_id[slots] = region_id

    def record_round(
        self,
        lineups: Sequence[Sequence[int]],
        execution_scores: Sequence[float],
    ) -> np.ndarray:
        """Book a round of games; returns each game's winner position.

        ``execution_scores`` holds every seat's score, game after game in
        lineup order.  The winner of a *game* (before consistency enters
        the picture) is the player with the highest execution score, the
        first such seat on a tie.  Ranks are competition ranks within each
        game (ties share the better rank).
        """
        sizes = list(map(len, lineups))
        scores = np.asarray(execution_scores, dtype=np.float64)
        if scores.ndim != 1 or scores.size != sum(sizes):
            raise TournamentError("indices and execution_scores length mismatch")
        if not sizes:
            return np.zeros(0, dtype=np.int64)
        if 0 in sizes:
            raise TournamentError("cannot record an empty game")
        if np.isnan(scores).any():
            raise TournamentError("a NaN execution score has no rank")

        # Segmented competition ranks from each game's finishing order; a
        # tie group restarts at every game boundary and at every change of
        # score, and a seat's rank is 1 + its group's first position
        # within the game.
        seats = scores.size
        starts = np.zeros(len(sizes), dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        game_start = np.repeat(starts, sizes)
        order = game_start + finishing_order(scores, sizes)
        ordered = scores[order]
        new_group = np.empty(seats, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=new_group[1:])
        new_group[starts] = True
        group_first = np.maximum.accumulate(
            np.where(new_group, np.arange(seats), 0)
        )
        ranks = np.empty(seats, dtype=np.int64)
        ranks[order] = group_first - game_start + 1
        winner_seats = order[starts]

        slots = self._slots_of(list(chain.from_iterable(lineups)))
        # ``np.add.at`` is unbuffered and applies duplicates in positional
        # order — bit-for-bit the game-by-game accumulation.
        np.add.at(self._score_sum, slots, scores)
        np.add.at(self._rank_sum, slots, 1.0 / ranks)
        np.add.at(self._games, slots, 1)
        np.add.at(self._wins, slots[winner_seats], 1)
        self._total_evaluations += seats
        return winner_seats - starts

    def record_game(
        self, indices: Sequence[int], execution_scores: Sequence[float]
    ) -> int:
        """Book one game's scores and ranks; returns the winner's position."""
        return int(self.record_round([indices], execution_scores)[0])

    # -- reads ---------------------------------------------------------------

    @property
    def total_evaluations(self) -> int:
        """Application executions paid for (a k-player game counts k)."""
        return self._total_evaluations

    def region_ids(self, indices: Sequence[int]) -> np.ndarray:
        """Region each player was drawn from (``-1``: none)."""
        slots = self._slots_of(indices)
        return self._region_id[slots]

    def games_played(self, indices: Sequence[int]) -> np.ndarray:
        """Games each player has been booked into."""
        slots = self._slots_of(indices)
        return self._games[slots]

    def wins(self, indices: Sequence[int]) -> np.ndarray:
        """Games each player won on execution score."""
        slots = self._slots_of(indices)
        return self._wins[slots]

    def mean_execution_scores(self, indices: Sequence[int]) -> np.ndarray:
        """Average execution score; 0.0 before the first game."""
        slots = self._slots_of(indices)
        return self._score_sum[slots] / np.maximum(self._games[slots], 1)

    def consistency_scores(self, indices: Sequence[int]) -> np.ndarray:
        """Mean of 1/rank over all games (Fig. 7); 0.0 before the first game."""
        slots = self._slots_of(indices)
        return self._rank_sum[slots] / np.maximum(self._games[slots], 1)

    def combined_rank_order(
        self,
        indices: Sequence[int],
        *,
        use_execution: bool = True,
        use_consistency: bool = True,
    ) -> np.ndarray:
        """Order positions by summed execution- and consistency-score ranks.

        The paper ranks global-phase players by the *summation* of their
        execution-score ranking and consistency-score ranking; the lowest sum
        wins (Sec. 3.4).  Returns positions into ``indices``, best first.
        """
        if not use_execution and not use_consistency:
            raise TournamentError("at least one score must be used for ranking")
        total = np.zeros(len(indices), dtype=float)
        exec_scores = self.mean_execution_scores(indices)
        if use_execution:
            total += rank_with_ties(exec_scores, descending=True)
        if use_consistency:
            total += rank_with_ties(self.consistency_scores(indices), descending=True)
        # Tie-break deterministically on execution score, then index.
        keys = list(zip(total, -exec_scores, [int(i) for i in indices]))
        return np.array(sorted(range(len(indices)), key=lambda p: keys[p]), dtype=np.int64)
