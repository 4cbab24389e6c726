"""Phase I: the regional phase, played in Swiss style (Sec. 3.3, Fig. 6).

The playing style itself — score-proportional re-selection, newcomer seats,
champion-streak termination — is the :class:`repro.formats.swiss.StreakSwiss`
scheduler; this module is the thin adapter binding it to the cloud: each
region is a drawable player pool, scores come from the shared
:class:`~repro.core.records.RecordBook`, and every lockstep round is played
through the batched :class:`~repro.core.executor.MatchExecutor`.

A region terminates when one player has won consecutively "more than one
time" (the champion), when the pool of new players is exhausted, or when the
round cap is hit.  Everyone whose mean execution score is within the work
deviation ``d`` of the champion's advances — so regions with several strong
candidates send several winners to the global phase.

Regions play on parallel VMs, so :meth:`SwissRegionalPhase.run_all` advances
*all* regions in lockstep: each iteration collects one lineup per still-open
region and submits the whole round as a single batched simulation.
:meth:`SwissRegionalPhase.run_region` runs one region to termination on its
own (the sequential special case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.apps.model import ApplicationModel
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig
from repro.core.executor import MatchExecutor
from repro.core.records import RecordBook
from repro.errors import TournamentError
from repro.formats.swiss import StreakSwiss, StreakSwissRun
from repro.space.regions import Region


@dataclass(frozen=True)
class RegionalResult:
    """Outcome of one region's Swiss tournament."""

    region_id: int
    winners: tuple
    champion: int
    rounds: int
    games: int
    elapsed: float  # simulated seconds this region's (sequential) rounds took

    def __post_init__(self) -> None:
        if self.champion not in self.winners:
            raise TournamentError("champion must be among the region winners")


class _RegionDrive:
    """One region's scheduler run plus the adapter-side accounting."""

    def __init__(
        self, phase: "SwissRegionalPhase", region: Region, rng: np.random.Generator
    ) -> None:
        self.region = region
        self.elapsed = 0.0
        self.run: StreakSwissRun = phase._format_for(region).schedule(
            region,
            rng,
            scores=phase.records.mean_execution_scores,
            on_assign=lambda new: phase.records.assign_region(
                new, region.region_id
            ),
        )

    @property
    def done(self) -> bool:
        return self.run.done

    def result(self, phase: "SwissRegionalPhase") -> RegionalResult:
        run = self.run
        region = self.region
        if run.lone is not None:
            return RegionalResult(
                region_id=region.region_id, winners=(run.lone,),
                champion=run.lone, rounds=0, games=0, elapsed=0.0,
            )
        if run.champion < 0:
            raise TournamentError(
                f"region {region.region_id} terminated without playing a game"
            )
        winners = phase._winner_band(run.played_players, run.champion)
        swiss = phase.config.swiss_style
        return RegionalResult(
            region_id=region.region_id,
            winners=tuple(winners),
            champion=run.champion,
            rounds=run.games if not swiss else min(run.max_rounds, run.games),
            games=run.games,
            elapsed=self.elapsed,
        )


class SwissRegionalPhase:
    """Runs the Swiss-style tournaments of the regions."""

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

    # -- the phase ---------------------------------------------------------

    def run_region(self, region: Region, rng: np.random.Generator) -> RegionalResult:
        """Play the Swiss tournament of one region to termination.

        The one-region lockstep: identical drive protocol (and RNG
        consumption) to :meth:`run_all`, because a one-game round is exactly
        a single game.
        """
        return self.run_all([region], [rng])[0]

    def run_all(
        self, regions: Sequence[Region], rngs: Sequence[np.random.Generator]
    ) -> List[RegionalResult]:
        """Play all regions in lockstep, one batched round per iteration.

        Regions run on parallel VMs, so round ``r`` of every still-open
        region forms one batch played through the executor; regions drop out
        of the lockstep as they terminate.  The simulated clock is *not*
        advanced here — per-region elapsed times are reported in the results
        so the caller advances once by the slowest region, as before.
        """
        if len(regions) != len(rngs):
            raise TournamentError(
                f"need one rng per region, got {len(rngs)} for {len(regions)}"
            )
        drives = [_RegionDrive(self, r, g) for r, g in zip(regions, rngs)]
        open_drives = [d for d in drives if not d.done]
        while open_drives:
            pending = []
            lineups = []
            for drive in open_drives:
                lineup = drive.run.next_lineup()
                if lineup is not None:
                    pending.append(drive)
                    lineups.append(lineup)
            if not pending:
                break
            reports = self.executor.play(
                lineups, label="regional", advance_clock=False
            )
            for drive, report in zip(pending, reports):
                drive.elapsed += report.elapsed
                drive.run.advance([self.executor.recorded(report)])
            open_drives = [d for d in pending if not d.done]
        return [d.result(self) for d in drives]

    # -- helpers -----------------------------------------------------------

    def _format_for(self, region: Region) -> StreakSwiss:
        """The regional playing style, sized to the VM (the scheduler clamps
        seats to the region itself)."""
        cfg = self.config
        return StreakSwiss(
            players_per_game=self._players_per_game(region),
            win_streak=cfg.regional_win_streak,
            max_rounds=cfg.max_regional_rounds,
            swiss_style=cfg.swiss_style,
        )

    def _players_per_game(self, region: Region) -> int:
        cfg = self.config
        if cfg.two_player_games_only:
            return 2
        configured = cfg.players_per_game or min(32, self.env.vm.vcpus)
        return max(2, min(configured, self.env.vm.vcpus, region.size))

    def _winner_band(self, played: List[int], champion: int) -> List[int]:
        """All players within deviation ``d`` of the champion's mean score."""
        if self.config.one_winner_per_region:
            return [champion]
        champ_score = self.records.mean_execution_scores([champion])[0]
        threshold = (1.0 - self.config.work_deviation) * champ_score
        scores = self.records.mean_execution_scores(played)
        band = [p for p, s in zip(played, scores) if s >= threshold]
        if champion not in band:
            band.insert(0, champion)
        return band
