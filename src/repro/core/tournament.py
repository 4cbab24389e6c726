"""The DarwinGame tuner: the four-phase tournament orchestrator (Alg. 1).

Phases: regional (Swiss) -> global (double elimination) -> playoffs
(barrage) -> final.  Games within a phase round execute on parallel VMs, so
the simulated campaign clock advances by the *longest* game of a round, while
the core-hour ledger bills every game in full — matching how the paper
reports tuning time versus tuning cost.

One :class:`~repro.core.executor.MatchExecutor` plays every phase: its
phase methods drive the :mod:`repro.formats` schedulers, and the config's
:class:`~repro.formats.recipes.TournamentRecipe` (``tournament_format``)
selects which ones — the paper's Alg. 1 is the default ``darwin`` recipe,
alternates swap the playoff bracket or drop the loser bracket.
"""

from __future__ import annotations

import logging
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.model import ApplicationModel
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig, auto_regions
from repro.core.executor import MatchExecutor
from repro.core.records import RecordBook
from repro.errors import TournamentError
from repro.rng import child, ensure_rng, spawn
from repro.space.regions import Region, partition_range
from repro.types import TuningResult

logger = logging.getLogger(__name__)


class DarwinGame:
    """Tournament-based tuner for shared, interference-prone environments.

    Usage::

        app = make_application("redis")
        env = CloudEnvironment(VMSpec.preset("m5.8xlarge"), seed=7)
        result = DarwinGame(DarwinGameConfig(seed=1)).tune(app, env)
        print(result.best_values, result.core_hours)
    """

    name = "DarwinGame"

    def __init__(self, config: Optional[DarwinGameConfig] = None) -> None:
        # Fold the named recipe's phase choices into the flags up front, so
        # every phase below sees one consistent config (a no-op for the
        # default ``darwin`` format).
        self.config = (config or DarwinGameConfig()).apply_recipe()

    # -- phases --------------------------------------------------------------

    def _regional_phase(
        self,
        executor: MatchExecutor,
        rng: np.random.Generator,
        details: dict,
        index_range: Tuple[int, int],
    ) -> List[int]:
        cfg = self.config
        env = executor.env
        start, stop = index_range
        # Nominal width: region sizing ignores the "all 2-player games"
        # ablation (see DarwinGameConfig.game_width).
        game_width = cfg.game_width(env.vm.vcpus, nominal=True)
        n_regions = max(1, cfg.n_regions or auto_regions(stop - start, game_width))
        regions = partition_range(
            start, stop, n_regions, interleaved=cfg.interleaved_regions
        )
        # Regions advance in lockstep: round r of every open region is
        # simulated as one batch (regions play on parallel VMs).
        results = executor.play_regions(regions, spawn(rng, len(regions)))
        entrants = list(dict.fromkeys(w for r in results for w in r.winners))
        durations = [r.elapsed for r in results]
        games = sum(r.games for r in results)
        # Regions play in parallel on separate VMs (unbounded fleet); the
        # per-region durations are exposed so users can re-schedule the
        # phase onto a finite fleet with repro.cloud.fleet.
        env.advance(max(durations) if durations else 0.0)
        details["regional"] = {
            "regions": len(regions),
            "games": games,
            "rounds": games,  # a Swiss region plays one game per round
            "winners": len(entrants),
            "region_durations": durations,
        }
        logger.info(
            "regional phase: %d regions, %d games -> %d winners",
            len(regions), games, len(entrants),
        )
        return entrants

    def _direct_entrants(
        self,
        app: ApplicationModel,
        records: RecordBook,
        rng: np.random.Generator,
        details: dict,
        index_range: Tuple[int, int],
    ) -> List[int]:
        """Ablation "w/o regional": sample players straight into the global phase."""
        start, stop = index_range
        n = min(stop - start, self.config.no_regional_entrant_cap)
        block = Region(0, start, stop)
        entrants = [int(i) for i in block.sample(n, child(rng), replace=False)]
        records.assign_region(entrants, -1)  # entered from no region
        details["regional"] = {"regions": 0, "games": 0, "rounds": 0, "winners": n}
        return entrants

    def _global_phase(
        self,
        executor: MatchExecutor,
        entrants: Sequence[int],
        rng: np.random.Generator,
        details: dict,
    ) -> List[int]:
        cfg = self.config
        if cfg.global_phase:
            result = executor.play_global(entrants, child(rng))
            details["global"] = {
                "entrants": len(entrants),
                "rounds": result.rounds,
                "games": result.games,
                "main_bracket": list(result.main_bracket),
                "wildcard": result.wildcard,
                "loser_bracket_size": result.loser_bracket_size,
            }
            logger.info(
                "global phase: %d entrants -> main bracket %s, wildcard %s",
                len(entrants), list(result.main_bracket), result.wildcard,
            )
            return list(result.playoff_players)

        # Ablation "w/o global": one game among the best regional winners
        # picks the playoff players directly.
        per_game = cfg.game_width(executor.env.vm.vcpus)
        pool = list(dict.fromkeys(int(p) for p in entrants))
        if len(pool) > per_game:
            order = executor.records.combined_rank_order(
                pool, use_execution=True, use_consistency=False
            )
            pool = [pool[int(p)] for p in order[:per_game]]
        if len(pool) < 2:
            details["global"] = {"entrants": len(entrants), "games": 0}
            return pool
        report = executor.play([pool], label="global", advance_clock=True)[0]
        order = np.argsort(-np.asarray(report.execution_scores), kind="stable")
        qualifiers = [pool[int(p)] for p in order[: cfg.main_bracket_target + 1]]
        details["global"] = {"entrants": len(entrants), "games": 1}
        return qualifiers

    # -- the public API -----------------------------------------------------

    def tune(
        self,
        app: ApplicationModel,
        env: CloudEnvironment,
        *,
        index_range: Optional[Tuple[int, int]] = None,
    ) -> TuningResult:
        """Run the full tournament and return the winning configuration.

        ``index_range`` restricts the tournament to a contiguous slice of the
        search space — how the Sec. 3.6 integration plays a full tournament
        inside each subspace an existing tuner selects.
        """
        cfg = self.config
        rng = ensure_rng(cfg.seed)
        records = RecordBook()
        # One executor runs every phase: one batched play path, one score
        # book, one clock/core-hour accounting point.
        executor = MatchExecutor(env, app, cfg, records)
        details: dict = {}
        if cfg.tournament_format != "darwin":
            details["format"] = cfg.tournament_format
        hours_before = env.ledger.snapshot()
        time_before = env.now
        span = index_range or (0, app.space.size)
        if not 0 <= span[0] < span[1] <= app.space.size:
            raise TournamentError(f"invalid index range {span}")

        if cfg.regional_phase:
            entrants = self._regional_phase(executor, rng, details, span)
        else:
            entrants = self._direct_entrants(app, records, rng, details, span)
        if not entrants:
            raise TournamentError("the regional phase produced no winners")

        if len(entrants) == 1:
            winner = entrants[0]
            details["playoffs"] = {"games": 0}
        else:
            playoff_players = self._global_phase(
                executor, entrants, rng, details
            )
            if len(playoff_players) == 1:
                winner = playoff_players[0]
                details["playoffs"] = {"games": 0}
            else:
                playoffs = executor.play_playoffs(playoff_players)
                final = executor.play_final(playoffs.finalists)
                winner = final.winner_index
                details["playoffs"] = {
                    "players": list(playoff_players),
                    "games": playoffs.games,
                    "finalists": list(playoffs.finalists),
                    "runner_up": final.indices[1 - final.winner_position],
                }

        details["phase_core_hours"] = env.ledger.core_hours_by_label()
        logger.info(
            "tournament winner: %d (%d evaluations, %.0f core-hours)",
            int(winner), records.total_evaluations,
            env.ledger.snapshot() - hours_before,
        )
        return TuningResult(
            tuner_name=self.name,
            best_index=int(winner),
            best_values=app.space.values_of(int(winner)),
            evaluations=records.total_evaluations,
            core_hours=env.ledger.snapshot() - hours_before,
            tuning_seconds=env.now - time_before,
            details=details,
        )
