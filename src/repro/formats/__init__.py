"""Tournament formats: the scheduler half of the unified tournament engine.

DarwinGame's phases (Sec. 3) are built from three classic playing styles —
Swiss, double elimination, and barrage — and the paper grounds its choices
in the tournament-design literature (its refs. [26, 35, 44, 58, 64]).  This
package provides those formats as *schedulers* over abstract player ids.
Each format is one class, built from its players (or its region pools) and
its settings: a pure state machine with no opinion about how a game is
decided.  All seven (:class:`SwissSystem`, :class:`StreakSwiss`,
:class:`SingleElimination`, :class:`DoubleElimination`,
:class:`GroupedDoubleElimination`, :class:`RoundRobin` and
:class:`Barrage`) speak one protocol
(:class:`~repro.formats.scheduler.ScheduledRun`): ``pairings()`` hands out
a round's lineups as lists of player ids, or ``None`` once the format is
done, and ``advance(winners)`` takes back one winner per lineup, in lineup
order.

One set of schedulers serves every consumer:

* the tournament core in :mod:`repro.core` composes them with its batched
  :class:`~repro.core.executor.MatchExecutor` — real co-located cloud games,
  scores, early termination, and core-hour accounting — to run the actual
  tuner, under any registered :class:`~repro.formats.recipes.TournamentRecipe`;
* :mod:`repro.experiments.format_power` drives the very same state machines
  with a noisy-strength :class:`~repro.formats.match.MatchOracle` through
  :func:`~repro.formats.scheduler.run_schedule` —
  ``run_schedule(SwissSystem(players), oracle).result()`` — to measure each
  format's predictive power, reproducing the style of analysis the paper
  cites when motivating its phase structure.

There is no separate clean-room implementation anywhere: what the studies
measure is what the tuner plays.
"""

from repro.formats.barrage import Barrage, BarrageResult
from repro.formats.double_elimination import (
    DoubleElimination,
    DoubleEliminationResult,
    GroupedDoubleElimination,
    GroupedDoubleEliminationResult,
    form_groups,
)
from repro.formats.match import MatchOracle, NoisyStrengthOracle
from repro.formats.recipes import (
    DEFAULT_FORMAT,
    PLAYOFF_FORMATS,
    TOURNAMENT_FORMAT_NAMES,
    TournamentRecipe,
    register_tournament_format,
    tournament_format,
    tournament_format_names,
)
from repro.formats.round_robin import RoundRobin, RoundRobinResult
from repro.formats.scheduler import PlayerPool, ScheduledRun, run_schedule
from repro.formats.single_elimination import (
    SingleElimination,
    SingleEliminationResult,
)
from repro.formats.swiss import StreakSwiss, SwissResult, SwissSystem

__all__ = [
    "Barrage",
    "BarrageResult",
    "DEFAULT_FORMAT",
    "DoubleElimination",
    "DoubleEliminationResult",
    "GroupedDoubleElimination",
    "GroupedDoubleEliminationResult",
    "MatchOracle",
    "NoisyStrengthOracle",
    "PLAYOFF_FORMATS",
    "PlayerPool",
    "RoundRobin",
    "RoundRobinResult",
    "ScheduledRun",
    "SingleElimination",
    "SingleEliminationResult",
    "StreakSwiss",
    "SwissResult",
    "SwissSystem",
    "TOURNAMENT_FORMAT_NAMES",
    "TournamentRecipe",
    "form_groups",
    "register_tournament_format",
    "run_schedule",
    "tournament_format",
    "tournament_format_names",
]
