"""Dict-of-lists score book: the reference for :class:`repro.core.records.RecordBook`.

Every player keeps its full per-game history as Python lists, and every
score is re-derived from that history on read — slow, but too plain to get
wrong.  Ranks are counted directly (one plus the number of strictly better
scores in the game), independent of the vectorised ranking under test.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import TournamentError


def _mean(values: List[float]) -> float:
    """Left-to-right mean in booking order (``sum`` may compensate on newer
    Pythons); 0.0 when empty."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values) if values else 0.0


class PlayerRecord:
    """Everything the reference book remembers about one configuration."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.region_id = -1
        self.execution_scores: List[float] = []
        self.inverse_ranks: List[float] = []
        self.wins = 0

    @property
    def games_played(self) -> int:
        return len(self.execution_scores)

    @property
    def mean_execution_score(self) -> float:
        return _mean(self.execution_scores)

    @property
    def consistency_score(self) -> float:
        """Mean of 1/rank over all games (Fig. 7)."""
        return _mean(self.inverse_ranks)


class OracleRecordBook:
    """Registry of :class:`PlayerRecord` keyed by configuration index."""

    def __init__(self) -> None:
        self.records: Dict[int, PlayerRecord] = {}
        self.total_evaluations = 0

    def get(self, index: int) -> PlayerRecord:
        """Fetch (creating if needed) the record of a configuration."""
        key = int(index)
        if key not in self.records:
            self.records[key] = PlayerRecord(key)
        return self.records[key]

    def assign_region(self, index: int, region_id: int) -> None:
        self.get(index).region_id = region_id

    def record_game(
        self, indices: Sequence[int], execution_scores: Sequence[float]
    ) -> int:
        """Book one game; returns the position of its first top scorer."""
        if len(indices) != len(execution_scores):
            raise TournamentError("indices and execution_scores length mismatch")
        if len(indices) == 0:
            raise TournamentError("cannot record an empty game")
        scores = [float(s) for s in execution_scores]
        for index, score in zip(indices, scores):
            rank = 1 + sum(1 for other in scores if other > score)
            record = self.get(index)
            record.execution_scores.append(score)
            record.inverse_ranks.append(1.0 / rank)
        winner = scores.index(max(scores))
        self.get(indices[winner]).wins += 1
        self.total_evaluations += len(scores)
        return winner
