"""Barrage: the penultimate-round format of petanque tournaments (Sec. 3.5).

With four qualifiers seeded 1-4 by prior score:

* game 1 — seed 1 vs seed 2; the winner goes straight to the final;
* game 2 — seed 3 vs seed 4; the loser is eliminated;
* game 3 (the barrage) — loser of game 1 vs winner of game 2; the winner
  becomes the second finalist.

The loser of the top game gets one brief chance to recover, so "only the
strongest ... progress to the final round".  Generalises to larger fields
by pairing the top half among themselves and the bottom half among
themselves, then playing top-half losers against bottom-half winners; odd
halves hand their last seed a bye.  With ``repechage=False`` the barrage
games are skipped — a plain knockout where the bottom-half survivor simply
becomes the second finalist (the paper's "w/o barrage" ablation).

Games 1 and 2 (and generally all games of a barrage stage round) are
independent, so one round hands out their lineups together for parallel
execution.  The stage keeps the pairs it handed out: a pair's loser is the
seat that did not win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.formats.scheduler import (
    RunLog,
    pair_off,
    split_round,
    validated_players,
)


@dataclass(frozen=True)
class BarrageResult:
    """The two finalists of a barrage stage and the games it took."""

    finalists: Tuple[int, ...]
    eliminated: Tuple[int, ...]
    games: int


class Barrage:
    """One seeded barrage stage producing (up to) two finalists.

    ``players`` must be ordered by seeding (best first).  For two players,
    both are finalists and no game is played (the final itself decides).

    Args:
        players: the seeded entrants, best first.
        repechage: give the top-half losers their barrage second chance
            (the format's namesake); ``False`` degrades to a knockout.
    """

    _STAGE_HALVES = "halves"
    _STAGE_BARRAGE = "barrage"
    _STAGE_REDUCE_SECOND = "reduce_second"
    _STAGE_REDUCE_FIRST = "reduce_first"
    _STAGE_DONE = "done"

    def __init__(self, players: Sequence[int], repechage: bool = True) -> None:
        self.seeds = validated_players(players, minimum=2, what="barrage")
        self.repechage = repechage
        self.log = RunLog()
        self.eliminated: List[int] = []
        self.direct: List[int] = []         # final pool of the top half
        self.top_losers: List[int] = []
        self.bottom_winners: List[int] = []
        self._first: Optional[int] = None
        self._second: Optional[int] = None
        self._pool: List[int] = []
        self._pairs: List[Tuple[int, int]] = []
        self._reduce_byes: List[int] = []
        self._barrage_byes: List[int] = []
        if len(self.seeds) == 2:
            self._first, self._second = self.seeds
            self._stage = self._STAGE_DONE
        else:
            self._stage = self._STAGE_HALVES

    @property
    def done(self) -> bool:
        return self._stage == self._STAGE_DONE

    def pairings(self) -> Optional[List[List[int]]]:
        if self._stage == self._STAGE_HALVES:
            # The top half plays for direct final spots, the bottom half
            # for barrage berths — all pairs independent, one round.  The
            # odd top seed drops to the barrage; the odd bottom seed
            # advances into the barrage berths unplayed.
            half = (len(self.seeds) + 1) // 2
            top_pairs, self._top_bye = pair_off(self.seeds[:half])
            bottom_pairs, self._bottom_bye = pair_off(self.seeds[half:])
            self._top_games = len(top_pairs)
            self._pairs = top_pairs + bottom_pairs
        elif self._stage == self._STAGE_BARRAGE:
            # The barrage proper: top-half losers vs bottom-half winners.
            # Odd fields leave one berth unpaired; that player byes into
            # the survivor pool instead of silently dropping out.
            paired = min(len(self.top_losers), len(self.bottom_winners))
            self._barrage_byes = (
                self.top_losers[paired:] + self.bottom_winners[paired:]
            )
            self._pairs = list(zip(self.top_losers, self.bottom_winners))
        elif self._stage in (self._STAGE_REDUCE_SECOND, self._STAGE_REDUCE_FIRST):
            self._pairs, bye = pair_off(self._pool)
            self._reduce_byes = [bye] if bye is not None else []
        else:
            return None
        return [list(pair) for pair in self._pairs]

    def advance(self, winners: Sequence[int]) -> None:
        won, lost = split_round(self._pairs, winners)
        self.log.book(won)
        if self._stage == self._STAGE_HALVES:
            top = self._top_games
            self.direct.extend(won[:top])
            self.top_losers.extend(lost[:top])
            self.bottom_winners.extend(won[top:])
            self.eliminated.extend(lost[top:])
            if self._bottom_bye is not None:
                self.bottom_winners.append(self._bottom_bye)
            if self.repechage:
                # The odd top seed's bye drops them to the barrage games.
                if self._top_bye is not None:
                    self.top_losers.append(self._top_bye)
                self._stage = self._STAGE_BARRAGE
            else:
                # Plain knockout: no barrage games exist, so the top-half
                # *losers* are out, while an unplayed top bye advances into
                # the second-finalist pool (a bye never eliminates).
                self.eliminated.extend(self.top_losers)
                pool = self.bottom_winners + (
                    [self._top_bye] if self._top_bye is not None else []
                )
                self._begin_reduce(pool, self._STAGE_REDUCE_SECOND)
            return
        self.eliminated.extend(lost)
        if self._stage == self._STAGE_BARRAGE:
            survivors = won + self._barrage_byes
            self._barrage_byes = []
            self._begin_reduce(survivors, self._STAGE_REDUCE_SECOND)
            return
        # Reduction rounds: knock a pool down to a single player.
        pool = self._reduce_byes + won
        self._reduce_byes = []
        self._continue_reduce(pool)

    def _begin_reduce(self, pool: List[int], stage: str) -> None:
        self._stage = stage
        self._continue_reduce(pool)

    def _continue_reduce(self, pool: List[int]) -> None:
        # Legacy reduction order: byes first, then winners — preserved by
        # seeding `pool` with the bye before appending match winners.
        self._pool = pool
        if len(pool) > 1:
            return
        settled = pool[0] if pool else None
        if self._stage == self._STAGE_REDUCE_SECOND:
            self._second = settled
            self._begin_reduce(self.direct, self._STAGE_REDUCE_FIRST)
        else:
            self._first = settled
            self._stage = self._STAGE_DONE

    def result(self) -> BarrageResult:
        if not self.done:
            raise ReproError("barrage stage is still being played")
        finalists = tuple(
            p for p in (self._first, self._second) if p is not None
        )
        return BarrageResult(
            finalists=finalists,
            eliminated=tuple(self.eliminated),
            games=self.log.games,
        )
