"""The tournament engine: one executor playing every phase of Alg. 1.

Format schedulers (:mod:`repro.formats`) decide *who meets whom*; the
:class:`MatchExecutor` decides *what happens when they do*.  A game
co-locates several configurations on one VM (Sec. 3.2); every round of
games is simulated as one batched ``(games, segments, players)`` tensor
computation, work fractions become execution scores (work done relative to
the fastest player, Fig. 5), the whole round is booked into the one
:class:`~repro.core.records.RecordBook`, and early termination follows the
config.  Games within a round run on parallel VMs, so the simulated clock
moves by the round's *longest* game while the ledger bills every game in
full.

The phase methods drive the schedulers through :meth:`MatchExecutor.play`:

* :meth:`~MatchExecutor.play_regions` — Swiss regions in lockstep
  (Sec. 3.3, Fig. 6);
* :meth:`~MatchExecutor.play_global` — the grouped double elimination,
  judged on execution plus consistency rank (Sec. 3.4, Fig. 7);
* :meth:`~MatchExecutor.play_playoffs` — the recipe's playoff scheduler,
  2-player games played to completion (Sec. 3.5);
* :meth:`~MatchExecutor.play_final` — the two-player final.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.model import ApplicationModel
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig
from repro.core.records import RecordBook, index_array
from repro.errors import TournamentError
from repro.formats.barrage import Barrage
from repro.formats.double_elimination import (
    DoubleElimination,
    GroupedDoubleElimination,
    GroupedDoubleEliminationResult,
)
from repro.formats.round_robin import RoundRobin
from repro.formats.single_elimination import SingleElimination
from repro.formats.swiss import StreakSwiss
from repro.space.regions import Region
from repro.telemetry.events import emit_event, telemetry_enabled
from repro.types import GameOutcome, GameSequence, RoundOutcomes


@dataclass(frozen=True)
class GameReport:
    """One played game: who took part, their scores, and the raw outcome.

    ``winner_position`` is the seat of the top execution score (the first
    seat among equals).
    """

    indices: Tuple[int, ...]
    execution_scores: Tuple[float, ...]
    winner_position: int
    outcome: GameOutcome

    @property
    def winner_index(self) -> int:
        return self.indices[self.winner_position]

    @property
    def elapsed(self) -> float:
        return self.outcome.elapsed


class RoundReports(GameSequence):
    """A played round's :class:`GameReport` s as arrays, in lineup order.

    ``indices`` and ``execution_scores`` hold every seat, game after game;
    ``winner_positions`` holds each game's winner and ``outcomes`` the
    kernel's :class:`~repro.types.RoundOutcomes`, whose ``sizes`` are the
    games' seat counts.  A :class:`GameReport` is built only when an item
    is indexed or iterated; the regional and playoff phases read the
    arrays and build none.
    """

    __slots__ = (
        "indices", "execution_scores", "winner_positions", "outcomes",
        "_lists",
    )

    def __init__(
        self,
        *,
        indices: np.ndarray,
        execution_scores: np.ndarray,
        winner_positions: np.ndarray,
        outcomes: RoundOutcomes,
    ) -> None:
        self.indices = indices
        self.execution_scores = execution_scores
        self.winner_positions = winner_positions
        self.outcomes = outcomes
        self._lists: Optional[List[list]] = None

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def elapsed(self) -> np.ndarray:
        """Each game's simulated duration."""
        return self.outcomes.elapsed

    @property
    def winner_indices(self) -> np.ndarray:
        """Each game's execution-score winner, as a configuration index."""
        sizes = self.outcomes.sizes
        return self.indices[np.cumsum(sizes) - sizes + self.winner_positions]

    def _item(self, i: int) -> GameReport:
        if self._lists is None:
            sizes = self.outcomes.sizes
            self._lists = [
                a.tolist() for a in (
                    self.indices, self.execution_scores, self.winner_positions,
                    np.cumsum(sizes), sizes,
                )
            ]
        indices, scores, winners, ends, sizes = self._lists
        end = ends[i]
        start = end - sizes[i]
        return GameReport(
            indices=tuple(indices[start:end]),
            execution_scores=tuple(scores[start:end]),
            winner_position=winners[i],
            outcome=self.outcomes[i],
        )


def execution_scores_from_work(
    work: Sequence[float], sizes: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Execution score: work done relative to the fastest player (Fig. 5).

    ``work`` holds one game's players, or with ``sizes`` a round's games
    one after another; each game is scored against its own fastest player.
    """
    arr = np.asarray(work, dtype=float)
    if sizes is None:
        sizes = [arr.size]
    if arr.size == 0 or 0 in sizes:
        raise TournamentError("cannot score an empty game")
    starts = np.zeros(len(sizes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    best = np.maximum.reduceat(arr, starts)
    if best.min() <= 0:
        raise TournamentError("no player made progress in the game")
    return arr / np.repeat(best, sizes)


@dataclass(frozen=True)
class RegionalResult:
    """Outcome of one region's Swiss tournament (one game per round)."""

    region_id: int
    winners: tuple
    champion: int
    games: int
    elapsed: float  # simulated seconds this region's (sequential) rounds took

    def __post_init__(self) -> None:
        if self.champion not in self.winners:
            raise TournamentError("champion must be among the region winners")


@dataclass(frozen=True)
class PlayoffResult:
    """The two finalists and how many games the playoffs took."""

    finalists: Tuple[int, int]
    games: int


def _check_lineups(indices: np.ndarray, sizes: List[int]) -> None:
    """Refuse an empty game or a player seated twice in one game.

    One row sort of the round's ``(games, seats)`` table finds every
    game's repeats at once; the padding past a game's size holds distinct
    negative values, which no (non-negative) index can repeat.
    """
    if not sizes:
        return
    width = max(sizes)
    if min(sizes) < 1:
        raise TournamentError("a game needs at least one player")
    if min(sizes) == width:
        table = np.sort(indices.reshape(len(sizes), width), axis=1)
    else:
        table = np.tile(np.arange(-1, -1 - width, -1), (len(sizes), 1))
        table[np.arange(width) < np.asarray(sizes)[:, None]] = indices
        table.sort(axis=1)
    repeats = table[:, 1:] == table[:, :-1]
    if repeats.any():
        game = int(repeats.any(axis=1).argmax())
        start = sum(sizes[:game])
        players = indices[start:start + sizes[game]].tolist()
        raise TournamentError(f"duplicate players in game: {players}")


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

    # -- rounds --------------------------------------------------------------

    def play(
        self,
        lineups: Sequence[Sequence[int]],
        *,
        label: str,
        allow_early_termination: bool = True,
        advance_clock: bool = False,
    ) -> RoundReports:
        """One round of co-located games (one parallel VM each), booked.

        The round is simulated as one batched tensor computation and booked,
        games in lineup order, with one
        :meth:`~repro.core.records.RecordBook.record_round` call.  With
        ``advance_clock`` True the clock advances by the round's longest
        game.  ``allow_early_termination=False`` plays every game to
        completion, as the paper does for the playoffs and the final.

        Before anything is played, the round's seats are checked in one
        pass: every index a non-negative integer (not a float or a bool),
        every game seated and no player twice in one game.  The reports
        come back as arrays (:class:`RoundReports`), each game's
        :class:`GameReport` built when it is indexed or iterated.

        With telemetry on, each round emits a ``round.play`` span: host
        wall time as the span value, plus the round's shape (label, game
        count, early terminations, simulated seconds) as fields.  Off, the
        cost is one clock read and one flag check.
        """
        t0 = time.perf_counter()
        sizes = list(map(len, lineups))
        indices = index_array(chain.from_iterable(lineups))
        _check_lineups(indices, sizes)
        early = allow_early_termination and self.config.early_termination
        outcomes = self.env.run_colocated_batch(
            self.app,
            indices,
            sizes,
            work_deviation=self.config.work_deviation if early else None,
            min_work_for_termination=self.config.min_work_for_termination,
            label=label,
            advance_clock=advance_clock,
        )
        reports = self._book_round(indices, outcomes)
        if telemetry_enabled():
            emit_event(
                "round.play",
                type="span",
                value=time.perf_counter() - t0,
                label=label,
                games=len(reports),
                early_terminated=int(np.count_nonzero(outcomes.early)),
                sim_seconds=round(self.round_elapsed(reports), 6),
            )
        return reports

    def _book_round(
        self, indices: np.ndarray, outcomes: RoundOutcomes
    ) -> RoundReports:
        """Score and book a played round in whole-round passes.

        Scores are computed over the round's seats at once and booked with
        one :meth:`~repro.core.records.RecordBook.record_round` call, which
        also names each game's winning seat.
        """
        sizes = outcomes.sizes
        if sizes.size:
            scores = execution_scores_from_work(outcomes.work, sizes)
            winners = self.records.record_round(indices, scores, sizes)
        else:
            scores = np.zeros(0)
            winners = np.zeros(0, dtype=np.int64)
        return RoundReports(
            indices=indices,
            execution_scores=scores,
            winner_positions=winners,
            outcomes=outcomes,
        )

    def duel(self, a: int, b: int, *, label: str) -> GameReport:
        """A two-player game played to completion; the clock advances by it
        (the final and the feedback loop)."""
        return self.play(
            [[a, b]], label=label, allow_early_termination=False,
            advance_clock=True,
        )[0]

    @staticmethod
    def round_elapsed(reports: RoundReports) -> float:
        """A parallel round lasts as long as its longest game."""
        return float(reports.elapsed.max()) if len(reports) else 0.0

    # -- phase I: regions ----------------------------------------------------

    def play_regions(
        self, regions: Sequence[Region], rngs: Sequence[np.random.Generator]
    ) -> List[RegionalResult]:
        """Play every region's Swiss tournament, in lockstep.

        The playing style — score-proportional re-selection, newcomer seats,
        champion-streak termination — is the
        :class:`~repro.formats.swiss.StreakSwiss` scheduler, built from every
        region.  Regions play on parallel VMs, so round ``r`` of every
        still-open region is one batched :meth:`play`; regions drop out as
        they terminate.  A round's newcomers are booked with one region
        write before it is played, and its winners go back to the scheduler
        as one array: the round stays arrays from the scheduler's draws to
        the score book, and no :class:`GameReport` is built.  The clock is
        *not* advanced here: each result carries its region's elapsed time
        so the caller advances once by the slowest region.
        """
        if len(regions) != len(rngs):
            raise TournamentError(
                f"need one rng per region, got {len(rngs)} for {len(regions)}"
            )
        cfg = self.config
        region_ids = np.array([region.region_id for region in regions])
        run = StreakSwiss(
            regions,
            rngs,
            players_per_game=cfg.game_width(self.env.vm.vcpus),
            win_streak=cfg.regional_win_streak,
            max_rounds=cfg.max_regional_rounds,
            swiss_style=cfg.swiss_style,
            scores=self.records.mean_execution_scores,
            on_assign=lambda players, pools: self.records.assign_region(
                players, region_ids[pools]
            ),
        )
        elapsed = np.zeros(len(regions))
        while (lineups := run.pairings()) is not None:
            reports = self.play(lineups, label="regional")
            elapsed[run.playing] += reports.elapsed
            run.advance(reports.winner_indices)
        return self._regional_results(regions, run, elapsed)

    def _regional_results(
        self, regions: Sequence[Region], run: StreakSwiss, elapsed: np.ndarray
    ) -> List[RegionalResult]:
        """Every region's result; the winner bands from one score read.

        Everyone whose mean execution score is within ``d`` of the
        champion's advances, so strong regions send several winners.
        """
        unplayed = np.flatnonzero((run.champions < 0) & ~run.lone)
        if unplayed.size:
            raise TournamentError(
                f"region {regions[unplayed[0]].region_id} terminated without "
                "playing a game"
            )
        champions = run.champions.tolist()
        if self.config.one_winner_per_region:
            bands = [[champion] for champion in champions]
        else:
            played, counts = run.played()
            pool = np.repeat(np.arange(len(regions)), counts)
            scores = self.records.mean_execution_scores(played)
            is_champion = played == run.champions[pool]
            champion_score = np.zeros(len(regions))
            champion_score[pool[is_champion]] = scores[is_champion]
            threshold = (1.0 - self.config.work_deviation) * champion_score
            band = scores >= threshold[pool]
            kept = played[band].tolist()
            ends = np.cumsum(np.bincount(pool[band], minlength=len(regions)))
            bands = [
                kept[a:b] for a, b in zip([0] + ends[:-1].tolist(), ends.tolist())
            ]
        return [
            RegionalResult(
                region_id=region.region_id, winners=(region.start,),
                champion=region.start, games=0, elapsed=0.0,
            )
            if lone else RegionalResult(
                region_id=region.region_id, winners=tuple(band),
                champion=champion, games=games, elapsed=seconds,
            )
            for region, lone, band, champion, games, seconds in zip(
                regions, run.lone.tolist(), bands, champions,
                run.games.tolist(), elapsed.tolist(),
            )
        ]

    # -- phase II: the global bracket ----------------------------------------

    def play_global(
        self, entrants: Sequence[int], rng: np.random.Generator
    ) -> GroupedDoubleEliminationResult:
        """Play the global phase and return its bracket outcome.

        The :class:`~repro.formats.double_elimination.GroupedDoubleElimination`
        scheduler deals region-diverse groups, keeps the loser pool and
        seats the wild-card game.  Group rounds play on parallel VMs and the
        clock advances by the slowest game; the wild-card game advances it
        inline.  Each game is decided by :meth:`judge_game`.
        """
        entrants = list(entrants)
        if not entrants:
            raise TournamentError("global phase needs at least one entrant")
        cfg = self.config
        # Regions are assigned in the regional phase only, so one gather
        # serves every grouping of this phase.
        region_id_of = dict(
            zip(entrants, self.records.region_ids(entrants).tolist())
        ).__getitem__
        run = GroupedDoubleElimination(
            entrants,
            rng,
            players_per_game=cfg.game_width(self.env.vm.vcpus),
            target=cfg.main_bracket_target,
            double_elimination=cfg.double_elimination,
            group_key=region_id_of,
            seed_order=lambda players: self.records.combined_rank_order(
                players,
                use_execution=cfg.use_execution_score,
                use_consistency=cfg.use_consistency_score,
            ),
        )
        while (lineups := run.pairings()) is not None:
            in_groups = run.stage == "groups"
            reports = self.play(
                lineups, label="global", advance_clock=not in_groups
            )
            run.advance([
                r.indices[self.judge_game(r.indices, r.execution_scores)]
                for r in reports
            ])
            if in_groups:
                self.env.advance(self.round_elapsed(reports))
        return run.result()

    def judge_game(self, lineup: Sequence[int], game_scores: Sequence[float]) -> int:
        """Winner = lowest sum of execution-score rank and consistency rank.

        Ranks within the game use the *current game's* execution scores and
        the accumulated consistency scores, per Fig. 7; the ablation flags
        drop one of the two criteria.
        """
        from repro.analysis.stats import rank_with_ties

        cfg = self.config
        total = np.zeros(len(lineup), dtype=float)
        if cfg.use_execution_score:
            total += rank_with_ties(np.asarray(game_scores), descending=True)
        if cfg.use_consistency_score:
            total += rank_with_ties(
                self.records.consistency_scores(list(lineup)), descending=True
            )
        best = int(np.argmin(total))
        # Deterministic tie-break on the game's execution score.
        ties = np.nonzero(total == total[best])[0]
        if ties.size > 1:
            best = int(ties[np.argmax(np.asarray(game_scores)[ties])])
        return best

    # -- phases III and IV: playoffs and the final ---------------------------

    def play_playoffs(self, players: Sequence[int]) -> PlayoffResult:
        """Determine the two finalists among the playoff qualifiers.

        Players are seeded by average execution score.  The scheduler is the
        config recipe's ``playoffs`` choice: ``barrage`` (the paper's; with
        the repechage off it is the "w/o barrage" knockout),
        ``single_elimination``, ``double_elimination`` or ``round_robin``,
        each driven until two finalists remain.
        """
        pool = list(dict.fromkeys(int(p) for p in players))
        if len(pool) < 2:
            raise TournamentError(
                f"playoffs need at least two distinct players, got {pool}"
            )
        # Seed by average execution score, highest first (Sec. 3.5).
        order = self.records.combined_rank_order(
            pool, use_execution=True, use_consistency=False
        )
        seeded: List[int] = [pool[int(p)] for p in order]
        if len(seeded) == 2:
            return PlayoffResult(finalists=(seeded[0], seeded[1]), games=0)

        play = self._playoff_round
        fmt = self.config.recipe().playoffs
        if fmt == "barrage":
            # The paper's playoffs seat at most four qualifiers (Sec. 3.5).
            run = Barrage(seeded[:4], repechage=self.config.barrage_playoffs)
            while (lineups := run.pairings()) is not None:
                run.advance(play(lineups))
            finalists = run.result().finalists
        elif fmt == "single_elimination":
            run = SingleElimination(seeded)
            while len(run.alive) > 2:
                run.advance(play(run.pairings()))
            finalists = tuple(run.alive)
        elif fmt == "double_elimination":
            run = DoubleElimination(seeded)
            while run.in_brackets:
                run.advance(play(run.pairings()))
            finalists = run.finalists
        elif fmt == "round_robin":
            run = RoundRobin(seeded)
            while (lineups := run.pairings()) is not None:
                run.advance(play(lineups))
            finalists = run.result().standings[:2]
        else:  # pragma: no cover - recipes validate at registration
            raise TournamentError(f"unknown playoff format {fmt!r}")

        if len(finalists) < 2:
            raise TournamentError(
                f"playoff format {fmt!r} produced {len(finalists)} finalist(s)"
            )
        return PlayoffResult(
            finalists=(int(finalists[0]), int(finalists[1])),
            games=run.log.games,
        )

    def _playoff_round(self, lineups: List[List[int]]) -> List[int]:
        """One playoff round: parallel VMs, full games, clock by the slowest;
        each game's execution-score winner."""
        return self.play(
            lineups,
            label="playoffs",
            allow_early_termination=False,
            advance_clock=True,
        ).winner_indices.tolist()

    def play_final(self, finalists: Tuple[int, int]) -> GameReport:
        """Play the final; the faster configuration wins the tournament."""
        a, b = finalists
        return self.duel(a, b, label="final")
