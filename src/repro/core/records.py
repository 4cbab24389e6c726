"""Per-player score bookkeeping across the whole tournament.

Two scores drive DarwinGame's decisions (Figs. 5 and 7):

* **execution score** — within one game, the fraction of work a player
  completed relative to the fastest player of that game;
* **consistency score** — the average of ``1 / rank`` over *all* games the
  player has played so far, where rank is the player's execution-score rank
  within each game.  High consistency means the configuration performs well
  repeatedly, under different noise and different opponents.

Bookkeeping is incremental: :meth:`RecordBook.record_game` maintains flat
running-sum arrays, so the vectorised score queries the selection loops
issue on every draw are O(1) array gathers instead of re-averaging the full
history, no matter how many games have been played.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import rank_with_ties
from repro.errors import TournamentError


class PlayerRecord:
    """Everything the tournament remembers about one configuration.

    The per-game history lists are the record's only state; the score
    properties derive from them on read.  (Bulk reads go through the
    :class:`RecordBook` flat arrays instead — per-record property reads are
    off the hot path.  A plain ``__slots__`` class, because the tournament
    creates one record per player it ever touches.)
    """

    __slots__ = (
        "index", "region_id", "execution_scores", "inverse_ranks", "wins",
    )

    def __init__(
        self,
        index: int,
        region_id: int = -1,
        execution_scores: Optional[List[float]] = None,
        inverse_ranks: Optional[List[float]] = None,
        wins: int = 0,
    ) -> None:
        self.index = index
        self.region_id = region_id
        self.execution_scores = execution_scores if execution_scores is not None else []
        self.inverse_ranks = inverse_ranks if inverse_ranks is not None else []
        self.wins = wins

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlayerRecord(index={self.index!r}, region_id={self.region_id!r}, "
            f"execution_scores={self.execution_scores!r}, "
            f"inverse_ranks={self.inverse_ranks!r}, wins={self.wins!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlayerRecord):
            return NotImplemented
        return (
            self.index == other.index
            and self.region_id == other.region_id
            and self.execution_scores == other.execution_scores
            and self.inverse_ranks == other.inverse_ranks
            and self.wins == other.wins
        )

    def add_result(self, execution_score: float, inverse_rank: float) -> None:
        """Book one game's score and inverse rank."""
        self.execution_scores.append(execution_score)
        self.inverse_ranks.append(inverse_rank)

    @property
    def games_played(self) -> int:
        return len(self.execution_scores)

    @property
    def mean_execution_score(self) -> float:
        """Average execution score; 0.0 before the first game."""
        if not self.execution_scores:
            return 0.0
        return sum(self.execution_scores) / len(self.execution_scores)

    @property
    def consistency_score(self) -> float:
        """Mean of 1/rank over all games (Fig. 7); 0.0 before the first game."""
        if not self.inverse_ranks:
            return 0.0
        return sum(self.inverse_ranks) / len(self.inverse_ranks)


class RecordBook:
    """Registry of :class:`PlayerRecord` keyed by configuration index.

    Beside the per-player records, the book maintains flat score-sum /
    game-count arrays indexed by insertion slot, which turn
    :meth:`mean_execution_scores` and :meth:`consistency_scores` into pure
    array gathers — the hot path of veteran selection and winner banding.
    """

    _INITIAL_CAPACITY = 64

    def __init__(self) -> None:
        self._records: Dict[int, PlayerRecord] = {}
        self._slots: Dict[int, int] = {}
        cap = self._INITIAL_CAPACITY
        self._score_sums = np.zeros(cap)
        self._rank_sums = np.zeros(cap)
        self._games = np.zeros(cap, dtype=np.int64)
        self._total_evaluations = 0

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, index: int) -> bool:
        return int(index) in self._records

    def _grow(self) -> None:
        cap = 2 * len(self._score_sums)
        for name in ("_score_sums", "_rank_sums", "_games"):
            old = getattr(self, name)
            new = np.zeros(cap, dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)

    def _slot_of(self, key: int) -> int:
        """Slot of (creating, like :meth:`get`) the record of ``key``."""
        slot = self._slots.get(key)
        if slot is None:
            self.get(key)
            slot = self._slots[key]
        return slot

    def get(self, index: int) -> PlayerRecord:
        """Fetch (creating if needed) the record of a configuration."""
        key = int(index)
        record = self._records.get(key)
        if record is None:
            record = PlayerRecord(index=key)
            self._records[key] = record
            slot = len(self._slots)
            if slot >= len(self._score_sums):
                self._grow()
            self._slots[key] = slot
        return record

    def assign_region(self, index: int, region_id: int) -> None:
        # Inlined fast path of get(): region assignment fires once for every
        # player ever drawn into a lineup, which is most of the pool.
        record = self._records.get(int(index))
        if record is None:
            record = self.get(index)
        record.region_id = region_id

    def record_game(
        self, indices: Sequence[int], execution_scores: Sequence[float]
    ) -> int:
        """Book one game's scores and ranks; returns the winner's position.

        The winner of a *game* (before consistency enters the picture) is the
        player with the highest execution score.
        """
        if len(indices) != len(execution_scores):
            raise TournamentError("indices and execution_scores length mismatch")
        if len(indices) == 0:
            raise TournamentError("cannot record an empty game")
        scores = np.asarray(execution_scores, dtype=float)
        ranks = rank_with_ties(scores, descending=True)
        winner_pos = int(np.argmax(scores))
        inverse = 1.0 / np.asarray(ranks, dtype=float)
        score_list = scores.tolist()
        inverse_list = inverse.tolist()
        records = self._records
        keys = [int(i) for i in indices]
        for pos, key in enumerate(keys):
            record = records.get(key)
            if record is None:
                record = self.get(key)
            record.execution_scores.append(score_list[pos])
            record.inverse_ranks.append(inverse_list[pos])
        # One scatter-add per flat array instead of three scalar updates per
        # player.  ``np.add.at`` is unbuffered and applies duplicates in
        # positional order — bit-for-bit the accumulation the scalar loop did.
        slots = self._slots
        slot_arr = np.fromiter(
            map(slots.__getitem__, keys), dtype=np.int64, count=len(keys)
        )
        np.add.at(self._score_sums, slot_arr, scores)
        np.add.at(self._rank_sums, slot_arr, inverse)
        np.add.at(self._games, slot_arr, 1)
        records[keys[winner_pos]].wins += 1
        self._total_evaluations += len(keys)
        return winner_pos

    @property
    def total_evaluations(self) -> int:
        """Application executions paid for (a k-player game counts k)."""
        return self._total_evaluations

    def _gather_slots(self, indices: Sequence[int]) -> np.ndarray:
        table = self._slots
        try:
            # C-level gather: the selection loops re-issue this for the whole
            # played list every round, so the per-element cost matters.  No
            # int() per key — numpy integers hash like the plain-int keys.
            return np.fromiter(
                map(table.__getitem__, indices),
                dtype=np.int64,
                count=len(indices),
            )
        except KeyError:
            # Rare: some records do not exist yet — create them (like get()).
            return np.array(
                [self._slot_of(int(i)) for i in indices], dtype=np.int64
            )

    def mean_execution_scores(self, indices: Sequence[int]) -> np.ndarray:
        slots = self._gather_slots(indices)
        return self._score_sums[slots] / np.maximum(self._games[slots], 1)

    def consistency_scores(self, indices: Sequence[int]) -> np.ndarray:
        slots = self._gather_slots(indices)
        return self._rank_sums[slots] / np.maximum(self._games[slots], 1)

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
