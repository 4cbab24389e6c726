"""The scheduler half of the tournament engine's scheduler/executor split.

A *format* (Swiss, double elimination, barrage, ...) is pure scheduling
logic: given what has happened so far, which groups of players should meet
next?  Each format is one class, built from its players and its settings,
and speaks one protocol (:class:`ScheduledRun`): ``pairings()`` hands out a
round's lineups as lists of player ids (``None`` once the format is done),
and ``advance(winners)`` takes back one winner per lineup, in lineup order:

    run = SwissSystem(players, rounds=3)
    while (lineups := run.pairings()) is not None:
        run.advance([play(lineup) for lineup in lineups])
    result = run.result()

A scheduler keeps the lineups it handed out, so a winner is all it needs
back: in a two-player game the loser is the other seat, and a group's
losers are everyone but the winner.  It never plays a game itself — *who
wins* is the executor's business.  Two executors drive the same
schedulers:

* :func:`run_schedule` plays each lineup through a
  :class:`~repro.formats.match.MatchOracle` (the tournament-design-literature
  setting used by :mod:`repro.experiments.format_power`), and
* :class:`repro.core.executor.MatchExecutor` plays a round as co-located
  cloud games through the batched ``(games, segments, players)`` tensor
  path, which is how the real DarwinGame tuner runs these exact schedulers.

No player appears in two lineups of one round, so an executor may run them
on parallel VMs and advance the simulated clock by the round's longest
game.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple

from repro.errors import ReproError
from repro.formats.match import MatchOracle


class ScheduledRun(Protocol):
    """Incremental state machine of one tournament under some format.

    ``pairings`` returns the next round's lineups (or ``None`` once the
    format has terminated); ``advance`` takes one winner per lineup of that
    round, in lineup order.  ``result()`` is format-specific.
    """

    def pairings(self) -> Optional[List[List[int]]]:
        ...  # pragma: no cover - protocol

    def advance(self, winners: Sequence[int]) -> None:
        ...  # pragma: no cover - protocol

    @property
    def done(self) -> bool:
        ...  # pragma: no cover - protocol


class PlayerPool(Protocol):
    """A region-shaped population of player ids (regions satisfy this
    natively): ``start``, ``start + stride``, ... — ``size`` of them.

    The scheduler draws offsets into the pool from its own generators and
    maps them to ids, so a whole round of pools maps its draws at once.
    """

    size: int
    start: int
    stride: int


@dataclass
class RunLog:
    """Shared bookkeeping every state machine keeps: the games played.

    Deliberately just a counter — per-game history lives with the caller
    (oracles keep their own; the cloud executor books the RecordBook).
    """

    games: int = 0

    def book(self, winners: Sequence[int]) -> None:
        self.games += len(winners)


def run_schedule(run: ScheduledRun, oracle: MatchOracle):
    """Drive a scheduled run to termination with a match oracle.

    Lineups are played sequentially in round order, then lineup order — the
    deterministic reference execution that
    :mod:`repro.experiments.format_power` charges formats by.  Returns
    ``run`` (terminated) for fluent use.
    """
    while (lineups := run.pairings()) is not None:
        run.advance([oracle.play(lineup) for lineup in lineups])
    return run


def split_round(
    lineups: Sequence[Sequence[int]], winners: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """A played round's winners and losers, lineup after lineup.

    ``winners`` holds one winner per lineup, in lineup order; everyone else
    in a lineup lost, in seat order.  A winner count that does not match
    the lineups, or a winner who did not play in its lineup, is refused.
    """
    won = [int(w) for w in winners]
    if len(won) != len(lineups):
        raise ReproError(
            f"need one winner per lineup, got {len(won)} for {len(lineups)}"
        )
    lost: List[int] = []
    for lineup, winner in zip(lineups, won):
        if winner not in lineup:
            raise ReproError(
                f"winner {winner} did not play in lineup {list(lineup)}"
            )
        lost.extend(p for p in lineup if p != winner)
    return won, lost


def validated_players(players: Sequence[int], *, minimum: int, what: str) -> List[int]:
    """Common entry validation: ints, no duplicates, minimum field size."""
    ids = [int(p) for p in players]
    if len(ids) < minimum:
        raise ReproError(
            f"{what} needs at least {minimum} player(s), got {len(ids)}"
        )
    if len(set(ids)) != len(ids):
        raise ReproError(f"duplicate players: {ids}")
    return ids


def pair_off(bracket: Sequence[int]) -> Tuple[List[Tuple[int, int]], Optional[int]]:
    """Adjacent pairs of a bracket; the odd player out (last) is the bye."""
    pairs = [
        (bracket[k], bracket[k + 1])
        for k in range(0, len(bracket) - len(bracket) % 2, 2)
    ]
    bye = bracket[-1] if len(bracket) % 2 == 1 else None
    return pairs, bye
