"""Shared value types used across the library.

These are intentionally small, immutable records; all behaviour lives in the
subsystem packages (:mod:`repro.space`, :mod:`repro.cloud`, :mod:`repro.core`,
:mod:`repro.tuners`).
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import numpy as np

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


class GameSequence(Sequence):
    """A round's per-game records held as arrays, built one per access.

    A subclass keeps a round's games as flat arrays and implements
    ``__len__`` and ``_item(i)``; indexing (negative positions too) and
    iteration build the records on demand, so a caller that reads the
    arrays builds none.  Equality compares game by game with any sequence,
    a list of records included.
    """

    __slots__ = ()

    def _item(self, i: int):  # pragma: no cover - every subclass overrides
        raise NotImplementedError

    def __getitem__(self, index: int):
        n = len(self)
        i = operator.index(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"game {index} of a round of {n}")
        return self._item(i)

    def __iter__(self):
        return map(self._item, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class RoundOutcomes(GameSequence):
    """A round's :class:`GameOutcome` s as arrays, in game order.

    ``elapsed``, ``early`` (the early-termination flags) and
    ``mean_interference`` hold one entry per game; ``work`` (capped at 1.0)
    and ``finished`` one per seat, game after game; ``sizes`` each game's
    seat count.  Every game started at ``start_time``.  A
    :class:`GameOutcome` is built only when an item is indexed or iterated.
    """

    __slots__ = (
        "elapsed", "work", "finished", "early", "mean_interference", "sizes",
        "start_time", "_lists",
    )

    def __init__(
        self,
        *,
        elapsed: np.ndarray,
        work: np.ndarray,
        finished: np.ndarray,
        early: np.ndarray,
        mean_interference: np.ndarray,
        sizes: np.ndarray,
        start_time: float,
    ) -> None:
        self.elapsed = elapsed
        self.work = work
        self.finished = finished
        self.early = early
        self.mean_interference = mean_interference
        self.sizes = sizes
        self.start_time = start_time
        self._lists: Optional[List[list]] = None

    @classmethod
    def empty(cls, start_time: float) -> "RoundOutcomes":
        """The outcomes of a round without games."""
        none = np.zeros(0)
        return cls(
            elapsed=none, work=none, finished=none.astype(bool),
            early=none.astype(bool), mean_interference=none,
            sizes=np.zeros(0, dtype=np.int64), start_time=start_time,
        )

    def __len__(self) -> int:
        return len(self.sizes)

    def _item(self, i: int) -> GameOutcome:
        if self._lists is None:
            self._lists = [
                a.tolist() for a in (
                    self.elapsed, self.work, self.finished, self.early,
                    self.mean_interference, np.cumsum(self.sizes), self.sizes,
                )
            ]
        elapsed, work, finished, early, level, ends, sizes = self._lists
        end = ends[i]
        start = end - sizes[i]
        return GameOutcome(
            elapsed=elapsed[i],
            work=tuple(work[start:end]),
            finished=tuple(finished[start:end]),
            early_terminated=early[i],
            start_time=self.start_time,
            mean_interference=level[i],
        )


@dataclass(frozen=True)
class SoloOutcome:
    """Physics-level outcome of one solo (non-co-located) run."""

    observed_time: float
    start_time: float
    mean_interference: float
