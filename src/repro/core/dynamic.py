"""Dynamic-parameter feedback extension (Sec. 5 discussion).

The paper notes DarwinGame *could* tune dynamically adjustable parameters
(e.g. thread counts) "by tweaking the tournament structure to introduce
feedback loops in later phases ..., where the system dynamically re-ranks
configurations based on their performance after adjustments during
application execution" — but reports that doing so raised tuning time and
resources by over 10% for less than 5% improvement, so the shipped system
leaves it off.

:class:`DynamicFeedbackDarwinGame` implements that extension so the trade-off
can be measured: after the regular tournament picks a winner, a feedback
loop perturbs the designated *dynamic* parameters of the winner one level at
a time and re-ranks winner-vs-adjustment in head-to-head games played to
completion.  Whenever an adjustment wins consistently, it becomes the new
incumbent and the loop continues from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.model import ApplicationModel
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig
from repro.core.executor import MatchExecutor
from repro.core.records import RecordBook
from repro.core.tournament import DarwinGame
from repro.errors import TournamentError
from repro.types import TuningResult


@dataclass(frozen=True)
class FeedbackConfig:
    """Knobs of the dynamic feedback loop.

    The loop applies to *every* configuration that reached the playoffs
    ("feedback loops in the global, playoffs, and final phases"), so its
    cost scales with the late-phase field, not just the single winner —
    which is exactly why the paper measured it at over 10% extra tuning
    resources.

    Attributes:
        dynamic_dims: indices of the parameters treated as dynamically
            adjustable (``None`` = the trailing four dimensions, where the
            systems-level knobs live).
        rounds: maximum feedback rounds per late-phase player.
        duels_per_adjustment: head-to-head games an adjustment must win
            to replace the incumbent (re-ranking under different noise).
        radius: how many levels away from the incumbent each dynamic
            parameter may be adjusted per round.
    """

    dynamic_dims: Optional[Tuple[int, ...]] = None
    rounds: int = 3
    duels_per_adjustment: int = 3
    radius: int = 2

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise TournamentError(f"rounds must be >= 1, got {self.rounds}")
        if self.duels_per_adjustment < 1:
            raise TournamentError(
                f"duels_per_adjustment must be >= 1, got {self.duels_per_adjustment}"
            )
        if self.radius < 1:
            raise TournamentError(f"radius must be >= 1, got {self.radius}")


class DynamicFeedbackDarwinGame:
    """DarwinGame plus a post-tournament dynamic re-ranking loop."""

    name = "DarwinGame+feedback"

    def __init__(
        self,
        config: Optional[DarwinGameConfig] = None,
        feedback: Optional[FeedbackConfig] = None,
    ) -> None:
        self.config = config or DarwinGameConfig()
        self.feedback = feedback or FeedbackConfig()

    def _dynamic_dims(self, app: ApplicationModel) -> Tuple[int, ...]:
        dims = self.feedback.dynamic_dims
        if dims is None:
            dims = tuple(range(max(0, app.space.dimension - 4), app.space.dimension))
        for d in dims:
            if not 0 <= d < app.space.dimension:
                raise TournamentError(f"dynamic dimension {d} out of range")
        return dims

    def _adjustments(
        self, app: ApplicationModel, index: int, dims: Sequence[int]
    ) -> List[int]:
        """Nearby moves of the incumbent along the dynamic dimensions."""
        levels = np.array(app.space.levels_of(index), dtype=np.int64)
        cards = app.space.cardinalities
        out: List[int] = []
        radius = self.feedback.radius
        for dim in dims:
            for delta in range(-radius, radius + 1):
                if delta == 0:
                    continue
                new = int(levels[dim]) + delta
                if 0 <= new < int(cards[dim]):
                    moved = levels.copy()
                    moved[dim] = new
                    out.append(int(app.space.indices_of_levels_matrix(moved[None, :])[0]))
        return out

    def _feedback_loop(
        self,
        executor: MatchExecutor,
        start: int,
        dims: Sequence[int],
        stats: dict,
    ) -> int:
        """Re-rank one late-phase player against its dynamic adjustments."""
        incumbent = int(start)
        for _ in range(self.feedback.rounds):
            improved = False
            for candidate in self._adjustments(executor.app, incumbent, dims):
                wins = 0
                for _duel in range(self.feedback.duels_per_adjustment):
                    report = executor.duel(
                        incumbent, candidate, label="feedback"
                    )
                    stats["games"] += 1
                    wins += report.winner_index == candidate
                if wins == self.feedback.duels_per_adjustment:
                    incumbent = candidate
                    stats["replacements"] += 1
                    improved = True
            if not improved:
                break
        return incumbent

    def tune(self, app: ApplicationModel, env: CloudEnvironment) -> TuningResult:
        """Run the tournament, then feedback loops over the late-phase field."""
        hours_before = env.ledger.snapshot()
        time_before = env.now
        base = DarwinGame(self.config).tune(app, env)
        dims = self._dynamic_dims(app)
        records = RecordBook()
        executor = MatchExecutor(env, app, self.config, records)

        # Every configuration that survived into the playoffs is re-ranked
        # through its own feedback loop; the tournament winner always takes
        # part even when the playoffs were skipped (degenerate small spaces).
        field = list(
            dict.fromkeys(
                [int(p) for p in base.details.get("playoffs", {}).get("players", [])]
                + [int(base.best_index)]
            )
        )
        stats = {"games": 0, "replacements": 0}
        incumbents = list(
            dict.fromkeys(
                self._feedback_loop(executor, p, dims, stats)
                for p in field
            )
        )

        # Knockout among the adjusted incumbents (2-player games played to
        # completion, like the playoffs) decides the final dynamic winner.
        pool = incumbents
        while len(pool) > 1:
            nxt: List[int] = []
            if len(pool) % 2 == 1:
                nxt.append(pool[-1])
            for k in range(0, len(pool) - len(pool) % 2, 2):
                report = executor.duel(pool[k], pool[k + 1], label="feedback")
                stats["games"] += 1
                nxt.append(report.winner_index)
            pool = nxt
        winner = pool[0]

        details = dict(base.details)
        details["feedback"] = {
            "dynamic_dims": list(dims),
            "field": field,
            "games": stats["games"],
            "replacements": stats["replacements"],
            "tournament_winner": base.best_index,
        }
        return TuningResult(
            tuner_name=self.name,
            best_index=int(winner),
            best_values=app.space.values_of(int(winner)),
            evaluations=base.evaluations + records.total_evaluations,
            # Both include the base tournament and every feedback duel.
            core_hours=env.ledger.snapshot() - hours_before,
            tuning_seconds=env.now - time_before,
            details=details,
        )
