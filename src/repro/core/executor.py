"""The executor half of the tournament engine's scheduler/executor split.

Format schedulers (:mod:`repro.formats`) decide *who meets whom*; the
:class:`MatchExecutor` decides *what happens when they do*: every scheduled
round is simulated through the batched ``(games, segments, players)`` tensor
path (:func:`repro.core.game.play_round`), scores are booked into the one
:class:`~repro.core.records.RecordBook`, early termination follows the
config, and the core-hour ledger and simulated campaign clock advance in
one place — games within a round run on parallel VMs, so the clock moves by
the round's *longest* game while the ledger bills every game in full.

Phase adapters hand the executor a :class:`~repro.formats.scheduler.Round`
plus a per-phase judging rule and get back the
:class:`~repro.formats.match.RecordedMatch` es their scheduler consumes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.model import ApplicationModel
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig
from repro.core.game import GameReport, play_round
from repro.core.records import RecordBook
from repro.formats.match import RecordedMatch
from repro.formats.scheduler import Round
from repro.telemetry.events import emit_event, telemetry_enabled

#: Judging rule: (lineup, report) -> position of the game's winner.
Judge = Callable[[Sequence[int], GameReport], int]


class MatchExecutor:
    """Plays scheduler-emitted rounds as batched co-located cloud games."""

    def __init__(
        self,
        env: CloudEnvironment,
        app: ApplicationModel,
        config: DarwinGameConfig,
        records: RecordBook,
    ) -> None:
        self.env = env
        self.app = app
        self.config = config
        self.records = records

    # -- raw lineup rounds ---------------------------------------------------

    def play(
        self,
        lineups: Sequence[Sequence[int]],
        *,
        label: str,
        allow_early_termination: bool = True,
        advance_clock: bool = False,
    ) -> List[GameReport]:
        """One batched round of co-located games; scores booked per game.

        With telemetry on, each round emits a ``round.play`` span: host
        wall time as the span value, plus the round's shape (label, game
        count, early terminations, simulated seconds) as fields.  Off, the
        cost is one flag check.
        """
        if not telemetry_enabled():
            return play_round(
                self.env,
                self.app,
                lineups,
                self.config,
                self.records,
                allow_early_termination=allow_early_termination,
                label=label,
                advance_clock=advance_clock,
            )
        import time as _time

        t0 = _time.perf_counter()
        reports = play_round(
            self.env,
            self.app,
            lineups,
            self.config,
            self.records,
            allow_early_termination=allow_early_termination,
            label=label,
            advance_clock=advance_clock,
        )
        emit_event(
            "round.play",
            type="span",
            value=_time.perf_counter() - t0,
            label=label,
            games=len(reports),
            early_terminated=sum(
                1 for r in reports if r.outcome.early_terminated
            ),
            sim_seconds=round(self.round_elapsed(reports), 6),
        )
        return reports

    def duel(
        self, a: int, b: int, *, label: str, advance_clock: bool = True
    ) -> GameReport:
        """A two-player game played to completion (playoffs and the final)."""
        return self.play(
            [[a, b]],
            label=label,
            allow_early_termination=False,
            advance_clock=advance_clock,
        )[0]

    # -- scheduler rounds ----------------------------------------------------

    def play_scheduled(
        self,
        round_: Round,
        *,
        label: str,
        judge: Optional[Judge] = None,
        allow_early_termination: bool = True,
        advance_clock: bool = False,
    ) -> Tuple[List[RecordedMatch], List[GameReport]]:
        """Play one scheduler round and judge each game into a result.

        Without a ``judge`` the winner is the game's execution-score leader
        (what :class:`~repro.core.records.RecordBook` booked); phases with a
        richer criterion (the global phase's joint execution/consistency
        rank, Fig. 7) pass their own.
        """
        reports = self.play(
            round_.lineups,
            label=label,
            allow_early_termination=allow_early_termination,
            advance_clock=advance_clock,
        )
        results = []
        for match, report in zip(round_.matches, reports):
            winner_pos = (
                judge(match.players, report) if judge is not None
                else report.winner_position
            )
            results.append(self.recorded(report, winner_pos))
        return results, reports

    @staticmethod
    def recorded(report: GameReport, winner_pos: Optional[int] = None) -> RecordedMatch:
        """A game report as the finishing order schedulers consume.

        The judged winner ranks first; everyone else follows in
        execution-score order (stable, deterministic).
        """
        if winner_pos is None:
            winner_pos = report.winner_position
        # The round already computed scores as an ndarray; sorting it directly
        # skips a tuple->array re-copy on every game.
        scores = report.scores
        if scores is None:
            scores = np.asarray(report.execution_scores)
        order = np.argsort(-scores, kind="stable").tolist()
        ranking = (winner_pos,) + tuple(i for i in order if i != winner_pos)
        return RecordedMatch(players=report.indices, ranking=ranking)

    # -- accounting ----------------------------------------------------------

    def advance_clock(self, seconds: float) -> None:
        """Advance the simulated campaign clock (once per parallel round)."""
        self.env.advance(seconds)

    @staticmethod
    def round_elapsed(reports: Sequence[GameReport]) -> float:
        """A parallel round lasts as long as its longest game."""
        return max((r.elapsed for r in reports), default=0.0)
