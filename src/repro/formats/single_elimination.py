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
    Match,
    Round,
    RunLog,
    pair_off,
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
        self._pending_bye: Optional[int] = None

    @property
    def done(self) -> bool:
        return len(self.alive) <= 1

    def pairings(self) -> Optional[Round]:
        if self.done:
            return None
        self._round_fields.append(tuple(self.alive))
        pairs, bye = pair_off(self.alive)
        self._pending_bye = bye
        return Round(
            matches=tuple(Match(pair) for pair in pairs),
            byes=(bye,) if bye is not None else (),
        )

    def advance(self, results) -> None:
        survivors: List[int] = []
        if self._pending_bye is not None:
            survivors.append(self._pending_bye)  # bye for the odd one out
            self.byes += 1
            self._pending_bye = None
        survivors.extend(match.winner for match in results)
        self.alive = survivors
        self.log.book(results)

    def result(self) -> SingleEliminationResult:
        return SingleEliminationResult(
            winner=self.alive[0],
            rounds=tuple(self._round_fields) + (tuple(self.alive),),
            games=self.log.games,
            byes=self.byes,
        )
