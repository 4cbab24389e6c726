"""DarwinGame's tournament core: the executor, the score book, orchestration."""

from repro.core.config import ABLATION_NAMES, DarwinGameConfig, auto_regions
from repro.core.dynamic import DynamicFeedbackDarwinGame, FeedbackConfig
from repro.core.executor import (
    GameReport,
    MatchExecutor,
    PlayoffResult,
    RegionalResult,
    RoundReports,
    execution_scores_from_work,
)
from repro.core.records import RecordBook
from repro.core.tournament import DarwinGame
from repro.core.trace import format_tournament_report

__all__ = [
    "ABLATION_NAMES",
    "DarwinGame",
    "DarwinGameConfig",
    "DynamicFeedbackDarwinGame",
    "FeedbackConfig",
    "format_tournament_report",
    "GameReport",
    "MatchExecutor",
    "PlayoffResult",
    "RecordBook",
    "RegionalResult",
    "RoundReports",
    "auto_regions",
    "execution_scores_from_work",
]
