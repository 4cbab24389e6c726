"""Phase II: the global phase, played in double elimination style (Sec. 3.4).

The bracket mechanics — dealing mixed-region groups, the loser pool, the
wild-card game — are the :class:`repro.formats.double_elimination.
GroupedDoubleElimination` scheduler; this module is the thin adapter that
binds them to the cloud.  Each scheduled round is played as one batched
simulation through the :class:`~repro.core.executor.MatchExecutor` (groups
play on parallel VMs, the clock advances by the slowest game), and each
group is judged by the *sum* of its execution-score rank and consistency
rank — the joint criterion that selects configurations that are both fast
and stable under noise (Fig. 7).  Group winners stay in the main bracket;
everyone else moves to the loser bracket instead of being eliminated, and
once the main bracket holds the target number of players the best
loser-bracket players play one game whose winner receives a wild-card entry
into the playoffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.model import ApplicationModel
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig
from repro.core.executor import MatchExecutor
from repro.core.game import GameReport
from repro.core.records import RecordBook
from repro.errors import TournamentError
from repro.formats.double_elimination import GroupedDoubleElimination, form_groups


@dataclass(frozen=True)
class GlobalResult:
    """Outcome of the global phase."""

    main_bracket: Tuple[int, ...]
    wildcard: int  # -1 when double elimination (and thus the wild card) is off
    rounds: int
    games: int
    loser_bracket_size: int

    @property
    def playoff_players(self) -> Tuple[int, ...]:
        players = list(self.main_bracket)
        if self.wildcard >= 0 and self.wildcard not in players:
            players.append(self.wildcard)
        return tuple(players)


class DoubleEliminationGlobalPhase:
    """Runs the global phase over the regional winners."""

    def __init__(
        self,
        env: CloudEnvironment,
        app: ApplicationModel,
        config: DarwinGameConfig,
        records: RecordBook,
        executor: Optional[MatchExecutor] = None,
    ) -> None:
        self.env = env
        self.app = app
        self.config = config
        self.records = records
        self.executor = executor or MatchExecutor(env, app, config, records)

    # -- scheduling hooks ----------------------------------------------------

    def _players_per_game(self) -> int:
        cfg = self.config
        if cfg.two_player_games_only:
            return 2
        configured = cfg.players_per_game or min(32, self.env.vm.vcpus)
        return max(2, min(configured, self.env.vm.vcpus))

    def _region_of(self, players: Sequence[int]) -> Callable[[int], int]:
        """Source-region lookup for ``players``, read from the book at once.

        Regions are assigned in the regional phase only, so one gather
        serves every grouping of this phase.
        """
        players = list(players)
        return dict(zip(players, self.records.region_ids(players).tolist())).__getitem__

    def _form_groups(
        self, players: Sequence[int], n_games: int, rng: np.random.Generator
    ) -> List[List[int]]:
        """Deal players into region-diverse groups (the scheduler's rule)."""
        return form_groups(
            players, n_games, rng, group_key=self._region_of(players)
        )

    def _format(self, entrants: Sequence[int]) -> GroupedDoubleElimination:
        cfg = self.config
        return GroupedDoubleElimination(
            players_per_game=self._players_per_game(),
            target=cfg.main_bracket_target,
            double_elimination=cfg.double_elimination,
            group_key=self._region_of(entrants),
            seed_order=lambda players: self.records.combined_rank_order(
                players,
                use_execution=cfg.use_execution_score,
                use_consistency=cfg.use_consistency_score,
            ),
        )

    def _judge_game(self, lineup: Sequence[int], game_scores: Sequence[float]) -> int:
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

    def _judge(self, lineup: Sequence[int], report: GameReport) -> int:
        return self._judge_game(lineup, report.execution_scores)

    # -- the phase ---------------------------------------------------------

    def run(self, entrants: Sequence[int], rng: np.random.Generator) -> GlobalResult:
        """Play the global phase and return the playoff qualifiers."""
        if not list(entrants):
            raise TournamentError("global phase needs at least one entrant")
        run = self._format(entrants).schedule(entrants, rng)
        while (round_ := run.pairings()) is not None:
            in_groups = run.stage == "groups"
            results, reports = self.executor.play_scheduled(
                round_,
                label="global",
                judge=self._judge,
                # The wild-card game advances the clock inline (a one-game
                # round); group rounds advance once by the slowest game.
                advance_clock=not in_groups,
            )
            run.advance(results)
            if in_groups:
                self.executor.advance_clock(
                    self.executor.round_elapsed(reports)
                )
        outcome = run.result()
        return GlobalResult(
            main_bracket=outcome.main_bracket,
            wildcard=outcome.wildcard,
            rounds=outcome.rounds,
            games=outcome.games,
            loser_bracket_size=outcome.loser_bracket_size,
        )
