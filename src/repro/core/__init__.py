"""DarwinGame's tournament core: games, phases, orchestration."""

from repro.core.barrage import BarragePlayoffs, FinalResult, PlayoffResult
from repro.core.config import ABLATION_NAMES, DarwinGameConfig, auto_regions
from repro.core.double_elimination import DoubleEliminationGlobalPhase, GlobalResult
from repro.core.dynamic import DynamicFeedbackDarwinGame, FeedbackConfig
from repro.core.executor import MatchExecutor
from repro.core.game import (
    GameReport,
    execution_scores_from_work,
    play_game,
    play_round,
)
from repro.core.records import RecordBook
from repro.core.swiss import RegionalResult, SwissRegionalPhase
from repro.core.tournament import DarwinGame
from repro.core.trace import format_tournament_report

__all__ = [
    "ABLATION_NAMES",
    "BarragePlayoffs",
    "DarwinGame",
    "DarwinGameConfig",
    "DynamicFeedbackDarwinGame",
    "FeedbackConfig",
    "format_tournament_report",
    "DoubleEliminationGlobalPhase",
    "FinalResult",
    "GameReport",
    "GlobalResult",
    "MatchExecutor",
    "PlayoffResult",
    "RecordBook",
    "RegionalResult",
    "SwissRegionalPhase",
    "auto_regions",
    "execution_scores_from_work",
    "play_game",
    "play_round",
]
