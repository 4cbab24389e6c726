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
``games`` and ``wins`` — plus a dense ``int32`` map indexed by
configuration index, holding 0 for an index the book has not seen and
slot + 1 otherwise, the slot being the order in which the book first saw
the player.  The map covers the highest index seen, 4 bytes an index: at
most about 1.3 MB at bench scale (lammps, 312,500 configurations) and
about 31 MB at full scale (redis, 7.68 million).  Both scores are running
sums divided by the game count, so every score query is one gather into
the map and one into the columns, no matter how many games have been
played; no per-game history is kept.

Writes come in bulk: :meth:`RecordBook.assign_region` registers a round's
new players in one vectorised write, and :meth:`RecordBook.record_round`
books a whole round from its flat seats — competition ranks segmented per
game, then one unbuffered ``np.add.at`` per column, which applies a
player's seats in lineup order and so accumulates exactly as booking the
games one at a time (:meth:`RecordBook.record_game`) would.

Every method takes configuration indices as a sequence or an integer
array, and refuses a float, a bool or a negative index
(:func:`index_array`).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

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


def index_array(indices: Iterable[int]) -> np.ndarray:
    """``indices`` as an ``int64`` array of configuration indices.

    An integer array passes as it is; any other sequence is checked value
    by value through one pass over its types.  A float, a bool or a
    negative index is refused with a :class:`~repro.errors.TournamentError`
    naming it: converted as they come, a float would be truncated, a bool
    would read as configuration 0 or 1, and a negative index would read a
    dense map from its end.
    """
    if isinstance(indices, np.ndarray) and indices.dtype.kind in "iu":
        keys = indices.astype(np.int64, copy=False)
    else:
        values = (
            indices if isinstance(indices, (list, tuple, range))
            else list(indices)
        )
        for kind in set(map(type, values)):
            if issubclass(kind, bool) or not issubclass(kind, (int, np.integer)):
                bad = next(value for value in values if type(value) is kind)
                raise TournamentError(
                    f"configuration index {bad!r} is not an integer"
                )
        keys = np.fromiter(values, dtype=np.int64, count=len(values))
    if keys.size and keys.min() < 0:
        raise TournamentError(
            f"configuration index {keys[keys < 0][0]} is negative"
        )
    return keys


def finishing_order(scores: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Each game's seat positions by execution score, best first.

    ``scores`` holds a round's seats game after game, ``sizes`` each game's
    seat count; the result lists every game's positions (``0 .. size - 1``)
    in finishing order, game after game, ties in seat order.  One stable
    row sort of the round's ``(games, seats)`` score table, padded past
    each game's size with seats that sort last.
    """
    sizes = np.asarray(sizes)
    n_games, width = sizes.size, int(sizes.max())
    if sizes.min() == width:
        return np.argsort(
            -scores.reshape(n_games, width), axis=1, kind="stable"
        ).ravel()
    inside = np.arange(width) < sizes[:, None]
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
        # Slot + 1 per configuration index, 0 for an index not seen yet.
        self._slot_of = np.zeros(0, dtype=np.int32)
        self._count = 0
        for name, dtype, fresh in _COLUMNS:
            setattr(self, name, np.full(self._INITIAL_CAPACITY, fresh, dtype=dtype))
        self._total_evaluations = 0

    def __len__(self) -> int:
        return self._count

    def __contains__(self, index: int) -> bool:
        key = int(index_array([index])[0])
        return key < self._slot_of.size and bool(self._slot_of[key])

    # -- slots ---------------------------------------------------------------

    def _slots_of(self, indices: Iterable[int]) -> np.ndarray:
        """Slots of ``indices``, giving every index the book has not seen
        the next free slot, in first-appearance order.

        Registering may replace the column arrays, so take the slots before
        indexing a column with them.
        """
        keys = index_array(indices)
        try:
            slots = self._slot_of[keys]
        except IndexError:  # an index past the map's end: cover it
            grown = np.zeros(int(keys.max()) + 1, dtype=np.int32)
            grown[: self._slot_of.size] = self._slot_of
            self._slot_of = grown
            slots = self._slot_of[keys]
        if not slots.all():
            unseen = slots == 0
            missing = keys[unseen]
            _, first = np.unique(missing, return_index=True)
            first.sort()
            start = self._count
            self._count += first.size
            self._slot_of[missing[first]] = np.arange(
                start + 1, self._count + 1, dtype=np.int32
            )
            slots[unseen] = self._slot_of[missing]
            capacity = len(self._games)
            if self._count > capacity:
                while capacity < self._count:
                    capacity *= 2
                for name, dtype, fresh in _COLUMNS:
                    old = getattr(self, name)
                    grown = np.full(capacity, fresh, dtype=dtype)
                    grown[: len(old)] = old
                    setattr(self, name, grown)
        slots -= 1
        return slots

    # -- writes --------------------------------------------------------------

    def assign_region(
        self, indices: Iterable[int], region_id: Union[int, Sequence[int]]
    ) -> None:
        """Record that ``indices`` were drawn from region ``region_id``
        (one region for all, or one per index)."""
        slots = self._slots_of(indices)
        self._region_id[slots] = region_id

    def record_round(
        self,
        indices: Iterable[int],
        execution_scores: Sequence[float],
        sizes: Sequence[int],
    ) -> np.ndarray:
        """Book a round of games; returns each game's winner position.

        ``indices`` and ``execution_scores`` hold every seat, game after
        game in lineup order, and ``sizes`` each game's seat count.  The
        winner of a *game* (before consistency enters the picture) is the
        player with the highest execution score, the first such seat on a
        tie.  Ranks are competition ranks within each game (ties share the
        better rank).
        """
        keys = index_array(indices)
        scores = np.asarray(execution_scores, dtype=np.float64)
        if scores.ndim != 1 or scores.size != keys.size:
            raise TournamentError("indices and execution_scores length mismatch")
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.sum() != keys.size:
            raise TournamentError(
                f"the games seat {sizes.sum()} players, got {keys.size} indices"
            )
        if not sizes.size:
            return np.zeros(0, dtype=np.int64)
        if sizes.min() < 1:
            raise TournamentError("cannot record an empty game")
        if np.isnan(scores).any():
            raise TournamentError("a NaN execution score has no rank")

        # Segmented competition ranks from each game's finishing order; a
        # tie group restarts at every game boundary and at every change of
        # score, and a seat's rank is 1 + its group's first position
        # within the game.
        seats = scores.size
        starts = np.zeros(sizes.size, dtype=np.int64)
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

        slots = self._slots_of(keys)
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
        return int(
            self.record_round(indices, execution_scores, [len(indices)])[0]
        )

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
