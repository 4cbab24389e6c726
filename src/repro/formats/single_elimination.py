"""Single elimination: lose once and you are out.

The cheapest knockout format (``n - 1`` games for ``n`` players) and the
most fragile under noise — one unlucky game eliminates the strongest player.
Included as the baseline that motivates double elimination (Sec. 3.4's
"one bad day" argument), and available as a playoff format of the unified
tournament engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.formats.scheduler import (
    RunLog,
    pair_off,
    split_round,
    validated_players,
)


@dataclass(frozen=True)
class SingleEliminationResult:
    """Winner and per-round survivors of a knockout bracket."""

    winner: int
    rounds: Tuple[Tuple[int, ...], ...]  # survivors entering each round
    games: int
    byes: int


class SingleElimination:
    """One knockout bracket over ``players``.

    Survivors pair off each round; the odd player out byes.
    """

    def __init__(self, players: Sequence[int]) -> None:
        self.alive: List[int] = validated_players(
            players, minimum=1, what="single elimination"
        )
        self.log = RunLog()
        self.byes = 0
        self._round_fields: List[Tuple[int, ...]] = []
        self._pairs: List[Tuple[int, int]] = []
        self._pending_bye: Optional[int] = None

    @property
    def done(self) -> bool:
        return len(self.alive) <= 1

    def pairings(self) -> Optional[List[List[int]]]:
        if self.done:
            return None
        self._round_fields.append(tuple(self.alive))
        self._pairs, self._pending_bye = pair_off(self.alive)
        return [list(pair) for pair in self._pairs]

    def advance(self, winners: Sequence[int]) -> None:
        won, _ = split_round(self._pairs, winners)
        survivors: List[int] = []
        if self._pending_bye is not None:
            survivors.append(self._pending_bye)  # bye for the odd one out
            self.byes += 1
            self._pending_bye = None
        survivors.extend(won)
        self.alive = survivors
        self.log.book(won)

    def result(self) -> SingleEliminationResult:
        return SingleEliminationResult(
            winner=self.alive[0],
            rounds=tuple(self._round_fields) + (tuple(self.alive),),
            games=self.log.games,
            byes=self.byes,
        )
