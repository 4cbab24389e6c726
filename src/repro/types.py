"""Shared value types used across the library.

These are intentionally small, immutable records; all behaviour lives in the
subsystem packages (:mod:`repro.space`, :mod:`repro.cloud`, :mod:`repro.core`,
:mod:`repro.tuners`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

ConfigValues = Tuple[Any, ...]


@dataclass
class TuningResult:
    """Outcome of one tuning campaign.

    Attributes:
        tuner_name: human-readable name of the strategy that produced this.
        best_index: configuration index the tuner selected.
        best_values: decoded parameter values of ``best_index``.
        evaluations: number of application executions the tuner paid for
            (a co-located game with ``k`` players counts ``k`` executions).
        core_hours: simulated core-hours booked while tuning.
        tuning_seconds: simulated wall-clock seconds of the campaign,
            accounting for games played in parallel.
        details: free-form per-strategy diagnostics (phase sizes, rounds, ...).
    """

    tuner_name: str
    best_index: int
    best_values: ConfigValues
    evaluations: int
    core_hours: float
    tuning_seconds: float
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ChoiceEvaluation:
    """Post-hoc quality of a chosen configuration (the paper's metrics).

    The paper reports, for a tuner's chosen configuration: the mean execution
    time over 100 cloud runs spread over time, and the coefficient of
    variation of those runs (Figs. 10 and 11).
    """

    index: int
    mean_time: float
    cov_percent: float
    min_time: float
    max_time: float
    true_time: float
    sensitivity: float
    runs: int

    @property
    def range_seconds(self) -> float:
        """Spread between the slowest and fastest of the evaluation runs."""
        return self.max_time - self.min_time


@dataclass(frozen=True)
class GameOutcome:
    """Physics-level outcome of one co-located game (see ``repro.cloud``).

    ``work`` holds, per player, the fraction of total work completed when the
    game ended (1.0 for the player that finished, if any finished).
    """

    elapsed: float
    work: tuple
    finished: tuple
    early_terminated: bool
    start_time: float
    mean_interference: float

    @property
    def num_players(self) -> int:
        return len(self.work)

    @property
    def winner(self) -> int:
        """Position (not config index) of the player with the most work done."""
        best = 0
        for i in range(1, len(self.work)):
            if self.work[i] > self.work[best]:
                best = i
        return best


@dataclass(frozen=True)
class SoloOutcome:
    """Physics-level outcome of one solo (non-co-located) run."""

    observed_time: float
    start_time: float
    mean_interference: float
