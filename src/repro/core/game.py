"""Playing games of the tournament, one parallel round at a time.

A game co-locates several configurations on one VM (Sec. 3.2), reads back
the physics-level :class:`~repro.types.GameOutcome`, converts work fractions
into execution scores (work done relative to the fastest player, Fig. 5),
and books the result into the :class:`~repro.core.records.RecordBook`.

Games within a round run on parallel VMs, so phase drivers build all of a
round's lineups first and submit them through :func:`play_round`, which
simulates the whole round as one batched tensor computation;
:func:`play_game` is the single-game round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.model import ApplicationModel
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig
from repro.core.records import RecordBook
from repro.errors import TournamentError
from repro.types import GameOutcome


@dataclass(frozen=True)
class GameReport:
    """One played game: who took part, their scores, and the raw outcome.

    ``scores`` is the ndarray the execution scores were computed as; rankers
    use it to sort without re-building an array from the float tuple.  It is
    excluded from equality so reports still compare by value.
    """

    indices: Tuple[int, ...]
    execution_scores: Tuple[float, ...]
    winner_position: int
    outcome: GameOutcome
    scores: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    @property
    def winner_index(self) -> int:
        return self.indices[self.winner_position]

    @property
    def elapsed(self) -> float:
        return self.outcome.elapsed


def execution_scores_from_work(work: Sequence[float]) -> np.ndarray:
    """Execution score: work done relative to the fastest player (Fig. 5)."""
    arr = np.asarray(work, dtype=float)
    if arr.size == 0:
        raise TournamentError("cannot score an empty game")
    best = float(arr.max())
    if best <= 0:
        raise TournamentError("no player made progress in the game")
    return arr / best


def play_round(
    env: CloudEnvironment,
    app: ApplicationModel,
    lineups: Sequence[Sequence[int]],
    config: DarwinGameConfig,
    records: RecordBook,
    *,
    allow_early_termination: bool = True,
    label: str = "game",
    advance_clock: bool = False,
) -> List[GameReport]:
    """Run one round of co-located games (one parallel VM each), book scores.

    The whole round is simulated as a single batched tensor computation
    (:meth:`~repro.cloud.environment.CloudEnvironment.run_colocated_batch`)
    and booked, games in lineup order, with one
    :meth:`~repro.core.records.RecordBook.record_round` call.  With
    ``advance_clock`` True the clock advances by the round's longest game.

    ``allow_early_termination`` is overridden to False for playoffs and the
    final, which the paper always plays to completion.
    """
    validated: List[List[int]] = []
    for indices in lineups:
        players = [int(i) for i in indices]
        if len(players) < 1:
            raise TournamentError("a game needs at least one player")
        if len(set(players)) != len(players):
            raise TournamentError(f"duplicate players in game: {players}")
        validated.append(players)
    if not validated:
        return []

    early = allow_early_termination and config.early_termination
    outcomes = env.run_colocated_batch(
        app,
        validated,
        work_deviation=config.work_deviation if early else None,
        min_work_for_termination=config.min_work_for_termination,
        label=label,
        advance_clock=advance_clock,
    )
    scores = [execution_scores_from_work(outcome.work) for outcome in outcomes]
    winners = records.record_round(validated, scores).tolist()
    return [
        GameReport(
            indices=tuple(players),
            execution_scores=tuple(game_scores.tolist()),
            winner_position=winner_pos,
            outcome=outcome,
            scores=game_scores,
        )
        for players, outcome, game_scores, winner_pos
        in zip(validated, outcomes, scores, winners)
    ]


def play_game(
    env: CloudEnvironment,
    app: ApplicationModel,
    indices: Sequence[int],
    config: DarwinGameConfig,
    records: RecordBook,
    *,
    allow_early_termination: bool = True,
    label: str = "game",
    advance_clock: bool = False,
) -> GameReport:
    """Run one co-located game and book its scores (a one-game round).

    With ``advance_clock=False`` (default) the caller advances simulated
    time once per round, because games within a round run on parallel VMs.
    """
    return play_round(
        env,
        app,
        [indices],
        config,
        records,
        allow_early_termination=allow_early_termination,
        label=label,
        advance_clock=advance_clock,
    )[0]
