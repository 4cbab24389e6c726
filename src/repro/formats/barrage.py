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
independent, so each :class:`Round` batches them for parallel execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.formats.scheduler import (
    Match,
    Round,
    RunLog,
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

    def pairings(self) -> Optional[Round]:
        if self._stage == self._STAGE_HALVES:
            # The top half plays for direct final spots, the bottom half
            # for barrage berths — all pairs independent, one round.  The
            # split is computed once here; advance() reads the stash.
            half = (len(self.seeds) + 1) // 2
            top, bottom = self.seeds[:half], self.seeds[half:]
            self._top_pairs = [
                (top[k], top[k + 1])
                for k in range(0, len(top) - len(top) % 2, 2)
            ]
            self._bottom_pairs = [
                (bottom[k], bottom[k + 1])
                for k in range(0, len(bottom) - len(bottom) % 2, 2)
            ]
            # Odd top seed drops to the barrage; odd bottom seed advances
            # into the barrage berths unplayed.
            self._top_bye = top[-1] if len(top) % 2 == 1 else None
            self._bottom_bye = bottom[-1] if len(bottom) % 2 == 1 else None
            byes = [b for b in (self._top_bye, self._bottom_bye)
                    if b is not None]
            return Round(
                matches=tuple(
                    Match(p) for p in self._top_pairs + self._bottom_pairs
                ),
                byes=tuple(byes),
            )
        if self._stage == self._STAGE_BARRAGE:
            # The barrage proper: top-half losers vs bottom-half winners.
            # Odd fields leave one berth unpaired; that player byes into
            # the survivor pool instead of silently dropping out.
            paired = min(len(self.top_losers), len(self.bottom_winners))
            self._barrage_byes = (
                self.top_losers[paired:] + self.bottom_winners[paired:]
            )
            return Round(
                matches=tuple(
                    Match((a, b))
                    for a, b in zip(self.top_losers, self.bottom_winners)
                ),
                byes=tuple(self._barrage_byes),
            )
        if self._stage in (self._STAGE_REDUCE_SECOND, self._STAGE_REDUCE_FIRST):
            pool = self._pool
            self._reduce_byes = [pool[-1]] if len(pool) % 2 == 1 else []
            return Round(
                matches=tuple(
                    Match((pool[k], pool[k + 1]))
                    for k in range(0, len(pool) - len(pool) % 2, 2)
                ),
                byes=tuple(self._reduce_byes),
            )
        return None

    def advance(self, results) -> None:
        self.log.book(results)
        if self._stage == self._STAGE_HALVES:
            matches = iter(results)
            for _ in self._top_pairs:
                match = next(matches)
                self.direct.append(match.winner)
                self.top_losers.append(match.loser)
            for _ in self._bottom_pairs:
                match = next(matches)
                self.bottom_winners.append(match.winner)
                self.eliminated.append(match.loser)
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
        if self._stage == self._STAGE_BARRAGE:
            survivors: List[int] = []
            for match in results:
                survivors.append(match.winner)
                self.eliminated.append(match.loser)
            survivors.extend(self._barrage_byes)
            self._barrage_byes = []
            self._begin_reduce(survivors, self._STAGE_REDUCE_SECOND)
            return
        # Reduction rounds: knock a pool down to a single player.
        pool: List[int] = list(self._reduce_byes)
        for match in results:
            pool.append(match.winner)
            self.eliminated.append(match.loser)
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
