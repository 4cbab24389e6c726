"""Double elimination: a loss sends you to the loser bracket, not home.

Players must lose twice to be eliminated: the first loss moves them from
the main (winners) bracket to the loser bracket, where they keep playing;
the loser-bracket survivor meets the main-bracket winner in the grand
final.  This is the format of DarwinGame's global phase (Sec. 3.4) — a
promising configuration is not knocked out by "one bad day".

Two schedulers share the idea, each one class built from its entrants and
its settings:

* :class:`DoubleElimination` — the textbook pairwise two-bracket knockout
  with a (resettable) grand final.
* :class:`GroupedDoubleElimination` — the paper's multi-player variant: each
  round deals the main bracket into groups (mixed across source regions for
  diversity), one game per group; group winners stay, everyone else drops
  to the loser pool, and once the main bracket holds the target number of
  players the best of the loser pool play one game for a wild-card entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError
from repro.formats.scheduler import (
    RunLog,
    pair_off,
    split_round,
    validated_players,
)


@dataclass(frozen=True)
class DoubleEliminationResult:
    """Winner and runner-up of a double-elimination run."""

    winner: int
    runner_up: int
    games: int
    grand_final_needed_reset: bool


class DoubleElimination:
    """One two-bracket knockout over ``players``.

    In the grand final the main-bracket champion has never lost; if the
    loser-bracket champion beats them, both have one loss and a deciding
    rematch ("bracket reset") settles it — the textbook rule, kept so that
    nobody is eliminated with fewer than two losses.
    """

    _STAGE_BRACKETS = "brackets"
    _STAGE_GRAND_FINAL = "grand_final"
    _STAGE_RESET = "reset"
    _STAGE_DONE = "done"

    def __init__(self, players: Sequence[int]) -> None:
        self.main: List[int] = validated_players(
            players, minimum=2, what="double elimination"
        )
        self.losers: List[int] = []
        self.log = RunLog()
        self._stage = self._STAGE_BRACKETS
        self._pending: Optional[str] = None  # which bracket the open round is
        self._pairs: List[Tuple[int, int]] = []
        self._turn = "main"  # brackets strictly alternate: main, loser, ...
        self._pending_bye: Optional[int] = None
        self._reset = False
        self._winner = -1
        self._runner_up = -1
        self._last_loser = -1

    @property
    def done(self) -> bool:
        return self._stage == self._STAGE_DONE

    @property
    def in_brackets(self) -> bool:
        """True while bracket rounds remain (the grand final not yet due)."""
        return self._stage == self._STAGE_BRACKETS and not self._brackets_settled()

    def _brackets_settled(self) -> bool:
        return len(self.main) <= 1 and len(self.losers) <= 1

    @property
    def finalists(self) -> Tuple[int, int]:
        """Main-bracket champion and loser-bracket champion (once settled)."""
        if not self._brackets_settled():
            raise ReproError("brackets are still being played")
        if not self.losers:
            raise ReproError("degenerate field: no loser-bracket champion")
        return self.main[0], self.losers[0]

    def pairings(self) -> Optional[List[List[int]]]:
        if self._stage == self._STAGE_BRACKETS:
            # Brackets strictly alternate — a main round (when two or more
            # remain), then a loser round (ditto).  Two idle turns in a row
            # mean both brackets have settled and the grand final is due.
            for _ in range(2):
                if self._turn == "main":
                    self._turn = "loser"
                    if len(self.main) > 1:
                        self._pending = "main"
                        return self._bracket_round(self.main)
                else:
                    self._turn = "main"
                    if len(self.losers) > 1:
                        self._pending = "loser"
                        return self._bracket_round(self.losers)
            return self._grand_final_round()
        if self._stage in (self._STAGE_GRAND_FINAL, self._STAGE_RESET):
            self._pairs = [(self.main[0], self.losers[0])]
            return [list(pair) for pair in self._pairs]
        return None

    def _bracket_round(self, bracket: List[int]) -> List[List[int]]:
        self._pairs, self._pending_bye = pair_off(bracket)
        return [list(pair) for pair in self._pairs]

    def _grand_final_round(self) -> Optional[List[List[int]]]:
        if not self.losers:
            # Degenerate: the single loss already decided it (unreachable
            # for n >= 2 fields, kept as a safeguard).
            self._winner = self.main[0]
            self._runner_up = self._last_loser
            self._stage = self._STAGE_DONE
            return None
        self._stage = self._STAGE_GRAND_FINAL
        return self.pairings()

    def advance(self, winners: Sequence[int]) -> None:
        won, dropped = split_round(self._pairs, winners)
        self.log.book(won)
        if self._pending == "main" or self._pending == "loser":
            survivors: List[int] = []
            if self._pending_bye is not None:
                survivors.append(self._pending_bye)
                self._pending_bye = None
            survivors.extend(won)
            if dropped:
                self._last_loser = dropped[-1]
            if self._pending == "main":
                self.main = survivors
                self.losers.extend(dropped)
            else:
                self.losers = survivors  # second loss: eliminated outright
            self._pending = None
            return

        (winner,) = won
        main_champion, loser_champion = self.main[0], self.losers[0]
        if self._stage == self._STAGE_GRAND_FINAL and winner == loser_champion:
            # Main champion's first loss: the bracket resets to a rematch.
            self._reset = True
            self._stage = self._STAGE_RESET
            return
        self._winner = winner
        self._runner_up = (
            loser_champion if winner == main_champion else main_champion
        )
        self._stage = self._STAGE_DONE

    def result(self) -> DoubleEliminationResult:
        if not self.done:
            # Driving to termination always lands on DONE (the no-loser
            # degenerate settles inside _grand_final_round); anything else
            # is a half-played bracket, not a result.
            raise ReproError("double elimination is still being played")
        return DoubleEliminationResult(
            winner=self._winner,
            runner_up=self._runner_up,
            games=self.log.games,
            grand_final_needed_reset=self._reset,
        )


@dataclass(frozen=True)
class GroupedDoubleEliminationResult:
    """Outcome of a grouped double-elimination run (DarwinGame global phase)."""

    main_bracket: Tuple[int, ...]
    wildcard: int  # -1 when the loser pool (and thus the wild card) is off
    rounds: int
    games: int
    loser_bracket_size: int

    @property
    def playoff_players(self) -> Tuple[int, ...]:
        """The main bracket plus the wild card, if one was granted."""
        players = list(self.main_bracket)
        if self.wildcard >= 0 and self.wildcard not in players:
            players.append(self.wildcard)
        return tuple(players)


def form_groups(
    players: Sequence[int],
    n_games: int,
    rng: np.random.Generator,
    *,
    group_key: Callable[[int], int],
) -> List[List[int]]:
    """Deal players into groups, spreading ``group_key`` values across groups.

    Sorting by key (source region) and dealing round-robin guarantees that
    two players with the same key land in the same group only when there
    are more of them than groups — the paper's diversity requirement.  A
    random rotation keeps the deal unbiased by key numbering.
    """
    ordered = sorted(players, key=lambda p: (group_key(p), p))
    offset = int(rng.integers(0, len(ordered))) if len(ordered) > 1 else 0
    ordered = ordered[offset:] + ordered[:offset]
    groups: List[List[int]] = [[] for _ in range(n_games)]
    for pos, player in enumerate(ordered):
        groups[pos % n_games].append(player)
    return [g for g in groups if g]


class GroupedDoubleElimination:
    """One multi-player grouped double elimination (DarwinGame's global phase).

    Group winners are decided by the *executor* (DarwinGame judges by the
    joint execution/consistency rank criterion, Fig. 7) and arrive here one
    per lineup; the scheduler owns only who meets whom.

    Args:
        entrants: the players entering the main bracket.
        rng: draws the rotation of each group deal.
        players_per_game: seats per group game.
        target: stop once the main bracket holds this many players.
        double_elimination: with ``False`` there is no loser pool and no
            wild card (the paper's "w/o double eli." ablation).
        group_key: maps a player id to its diversity key (source region);
            players sharing a key are spread across groups.
        seed_order: ranks a list of players (best first, returning positions
            into the list) — used to seat the best losers in the wild-card
            game.  Defaults to entry order.
    """

    _STAGE_GROUPS = "groups"
    _STAGE_WILDCARD = "wildcard"
    _STAGE_DONE = "done"

    def __init__(
        self,
        entrants: Sequence[int],
        rng: np.random.Generator,
        *,
        players_per_game: int,
        target: int,
        double_elimination: bool = True,
        group_key: Optional[Callable[[int], int]] = None,
        seed_order: Optional[Callable[[Sequence[int]], Sequence[int]]] = None,
    ) -> None:
        if players_per_game < 2:
            raise ReproError(
                f"players_per_game must be >= 2, got {players_per_game}"
            )
        if target < 1:
            raise ReproError(f"target must be >= 1, got {target}")
        self.main: List[int] = list(dict.fromkeys(int(p) for p in entrants))
        if not self.main:
            raise ReproError("grouped double elimination needs at least one entrant")
        self.rng = rng
        self.target = target
        self.players_per_game = players_per_game
        self.double_elimination = double_elimination
        self.group_key = group_key if group_key is not None else (lambda p: 0)
        self.seed_order = (
            seed_order if seed_order is not None
            else (lambda players: list(range(len(players))))
        )
        self.losers: List[int] = []
        self.wildcard = -1
        self.rounds = 0
        self.games = 0
        self._stage = self._STAGE_GROUPS
        self._groups: Optional[List[List[int]]] = None
        self._lineups: List[List[int]] = []
        self._wildcard_pending = False

    @property
    def done(self) -> bool:
        return self._stage == self._STAGE_DONE

    @property
    def stage(self) -> str:
        """Current stage: ``"groups"``, ``"wildcard"``, or ``"done"``."""
        return self._stage

    def pairings(self) -> Optional[List[List[int]]]:
        if self._stage == self._STAGE_GROUPS:
            if len(self.main) <= self.target:
                return self._open_wildcard()
            # Aim for at least `target` winners per round (so the bracket
            # shrinks gradually) while never exceeding the per-game player
            # cap; single-player groups are byes.
            n_games = max(
                math.ceil(len(self.main) / self.players_per_game),
                min(self.target, len(self.main) // 2),
                1,
            )
            self._groups = form_groups(
                self.main, n_games, self.rng, group_key=self.group_key
            )
            self._lineups = [g for g in self._groups if len(g) > 1]
        elif self._stage == self._STAGE_WILDCARD and self._wildcard_pending:
            unique = list(dict.fromkeys(self.losers))
            order = self.seed_order(unique)
            self._lineups = [
                [unique[int(p)] for p in order[: self.players_per_game]]
            ]
        else:
            return None
        return [list(lineup) for lineup in self._lineups]

    def _open_wildcard(self) -> Optional[List[List[int]]]:
        self._stage = self._STAGE_WILDCARD
        if self.double_elimination and self.losers:
            unique = list(dict.fromkeys(self.losers))
            # Faithful to the original accounting: the loser-pool game is
            # billed whenever more than one loser exists, and skipped (the
            # lone loser advances) otherwise.
            if len(unique) == 1:
                self.wildcard = unique[0]
                self.games += 1 if len(self.losers) > 1 else 0
                self._stage = self._STAGE_DONE
                return None
            self._wildcard_pending = True
            return self.pairings()
        if not self.double_elimination:
            self.losers = []  # losers were eliminated outright
        self._stage = self._STAGE_DONE
        return None

    def advance(self, winners: Sequence[int]) -> None:
        won, lost = split_round(self._lineups, winners)
        if self._stage == self._STAGE_GROUPS:
            assert self._groups is not None
            # A single-player group is a bye: its player advances unplayed.
            played = iter(won)
            round_winners = [
                group[0] if len(group) == 1 else next(played)
                for group in self._groups
            ]
            self.games += len(won)
            self.losers.extend(lost)
            self._groups = None
            self.rounds += 1
            if len(round_winners) >= len(self.main):
                # No reduction possible (all byes): settle with what we have.
                self._open_wildcard()
                return
            self.main = round_winners
            return
        # The wild-card game.
        (self.wildcard,) = won
        self.games += 1
        self._wildcard_pending = False
        self._stage = self._STAGE_DONE

    def result(self) -> GroupedDoubleEliminationResult:
        return GroupedDoubleEliminationResult(
            main_bracket=tuple(self.main),
            wildcard=self.wildcard,
            rounds=self.rounds,
            games=self.games,
            loser_bracket_size=len(set(self.losers)),
        )
