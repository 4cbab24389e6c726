"""Round-robin: every player meets every other player.

The most expensive and (for enough repetitions) most accurate format; the
tournament-design literature uses it as the accuracy ceiling against which
cheaper formats are measured.  ``O(n^2)`` games for ``n`` players.

The scheduler emits one pair per round, in the classic nested order — a
player meets every later entrant before the next player starts.  Pairs are
sequential rather than batched because nearly every player appears in
nearly every slice of the schedule; there is no larger set of simultaneous
games that would not double-book someone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.formats.scheduler import (
    Match,
    Round,
    RunLog,
    validated_players,
)


@dataclass(frozen=True)
class RoundRobinResult:
    """Standings after a full round-robin."""

    standings: Tuple[int, ...]  # player ids, best first
    wins: Dict[int, int]
    games: int

    @property
    def winner(self) -> int:
        return self.standings[0]


class RoundRobin:
    """One round-robin: all pairs, ``rounds`` times over; standings by wins.

    Ties in win count break deterministically by head-to-head result where
    one exists, else by player id (stable and reproducible).
    """

    def __init__(self, players: Sequence[int], rounds: int = 1) -> None:
        if rounds < 1:
            raise ReproError(f"rounds must be >= 1, got {rounds}")
        self.ids = validated_players(players, minimum=2, what="round-robin")
        self.wins: Dict[int, int] = {p: 0 for p in self.ids}
        self.head_to_head: Dict[Tuple[int, int], int] = {}
        self.log = RunLog()
        self.repetitions = rounds
        self._pairs = [
            (a, b)
            for _ in range(rounds)
            for i, a in enumerate(self.ids)
            for b in self.ids[i + 1:]
        ]
        self._cursor = 0

    @property
    def done(self) -> bool:
        return self._cursor >= len(self._pairs)

    def pairings(self) -> Optional[Round]:
        if self.done:
            return None
        return Round(matches=(Match(self._pairs[self._cursor]),))

    def advance(self, results) -> None:
        (match,) = results
        a, b = self._pairs[self._cursor]
        self.wins[match.winner] += 1
        self.head_to_head[(a, b)] = match.winner
        self._cursor += 1
        self.log.book(results)

    def result(self) -> RoundRobinResult:
        standings: List[int] = sorted(self.ids, key=lambda p: (-self.wins[p], p))
        # Adjacent single-round ties defer to head-to-head where available.
        if self.repetitions == 1:
            for k in range(len(standings) - 1):
                a, b = standings[k], standings[k + 1]
                if self.wins[a] == self.wins[b]:
                    h2h = self.head_to_head.get(
                        (a, b), self.head_to_head.get((b, a))
                    )
                    if h2h == b:
                        standings[k], standings[k + 1] = b, a
        return RoundRobinResult(
            standings=tuple(standings), wins=self.wins, games=self.log.games
        )
