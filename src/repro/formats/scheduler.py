"""The scheduler half of the tournament engine's scheduler/executor split.

A *format* (Swiss, double elimination, barrage, ...) is pure scheduling
logic: given what has happened so far, which groups of players should meet
next?  Each format is one class, built from its players and its settings:
a :class:`ScheduledRun` — an incremental state machine that emits one
:class:`Round` of :class:`Match` es at a time and ingests the outcomes as
:class:`~repro.formats.match.RecordedMatch` es:

    run = SwissSystem(players, rounds=3)
    while (round_ := run.pairings()) is not None:
        results = [play(match.players) for match in round_.matches]
        run.advance(results)
    result = run.result()

Crucially the state machine never plays a game itself — *who wins* is the
executor's business.  Two executors drive the same schedulers today:

* :func:`run_schedule` plays matches through a
  :class:`~repro.formats.match.MatchOracle` (the tournament-design-literature
  setting used by :mod:`repro.experiments.format_power`), and
* :class:`repro.core.executor.MatchExecutor` plays them as co-located cloud
  games through the batched ``(games, segments, players)`` tensor path,
  which is how the real DarwinGame tuner runs these exact schedulers.

All matches of one :class:`Round` are independent — no player appears twice
in a round — so an executor may run them on parallel VMs and advance the
simulated clock by the round's longest game.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple

from repro.errors import ReproError
from repro.formats.match import MatchOracle, RecordedMatch


@dataclass(frozen=True)
class Match:
    """One scheduled game: the lineup the format wants to see meet."""

    players: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.players) < 2:
            raise ReproError(f"a match needs at least two players: {self.players}")
        if len(set(self.players)) != len(self.players):
            raise ReproError(f"duplicate players in match: {self.players}")


@dataclass(frozen=True)
class Round:
    """One batch of independent matches, playable on parallel VMs.

    ``byes`` lists players who sit this round out but advance anyway; they
    are informational (the state machine already accounts for them) so that
    executors and tests can audit the schedule.
    """

    matches: Tuple[Match, ...]
    byes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        seen: set = set()
        for match in self.matches:
            for player in match.players:
                if player in seen:
                    raise ReproError(
                        f"player {player} scheduled twice in one round"
                    )
                seen.add(player)

    @property
    def lineups(self) -> List[List[int]]:
        """The round as plain lineups (what batched executors consume)."""
        return [list(m.players) for m in self.matches]


class ScheduledRun(Protocol):
    """Incremental state machine of one tournament under some format.

    ``pairings`` returns the next :class:`Round` (or ``None`` once the
    format has terminated); ``advance`` books one result per match of that
    round, in match order.  ``result()`` is format-specific.
    """

    def pairings(self) -> Optional[Round]:
        ...  # pragma: no cover - protocol

    def advance(self, results: Sequence[RecordedMatch]) -> None:
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
    """Shared bookkeeping every state machine keeps: games and rounds.

    Deliberately just counters — per-match history lives with the caller
    (oracles keep their own; the cloud executor books the RecordBook).
    """

    games: int = 0
    rounds: int = 0

    def book(self, results: Sequence[RecordedMatch]) -> None:
        self.games += len(results)
        self.rounds += 1


def run_schedule(run: ScheduledRun, oracle: MatchOracle):
    """Drive a scheduled run to termination with a match oracle.

    Matches are played sequentially in round order, then match order — the
    deterministic reference execution that
    :mod:`repro.experiments.format_power` charges formats by.  Returns
    ``run`` (terminated) for fluent use.
    """
    while True:
        round_ = run.pairings()
        if round_ is None:
            return run
        run.advance([oracle.play(match.players) for match in round_.matches])


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
