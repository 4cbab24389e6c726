"""Core-hour accounting (the paper's tuning-cost metric, Fig. 12).

Every tuning activity books ``vcpus * seconds`` against a label; the ledger
turns those into core-hours.  Keeping this in one place means DarwinGame and
every baseline are billed identically.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Dict, Union

import numpy as np

from repro.errors import CloudError


@dataclass
class CoreHourLedger:
    """Accumulates core-seconds per activity label."""

    _core_seconds: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    _wall_seconds: float = 0.0

    def book(
        self, *, vcpus: int, seconds: Union[float, np.ndarray], label: str = "tuning"
    ) -> None:
        """Record ``vcpus`` busy for ``seconds`` under ``label``.

        ``seconds`` is one run's duration or an array of runs' durations;
        the label's total adds the runs one at a time, in order, so a round
        booked at once totals bit for bit what one call per run gives.
        """
        if vcpus <= 0:
            raise CloudError(f"vcpus must be positive, got {vcpus}")
        runs = np.asarray(seconds, dtype=np.float64).ravel()
        negative = runs < 0
        if negative.any():
            raise CloudError(f"cannot book negative time: {runs[negative][0]}")
        # A left fold: ``sum`` may compensate on newer Pythons, and numpy's
        # sums are pairwise.
        self._core_seconds[label] = reduce(
            add, (vcpus * runs).tolist(), self._core_seconds[label]
        )

    def advance_wall(self, seconds: float) -> None:
        """Record simulated wall-clock time of the campaign."""
        if seconds < 0:
            raise CloudError(f"cannot advance wall clock by {seconds}")
        self._wall_seconds += seconds

    @property
    def core_hours(self) -> float:
        """Total core-hours across all labels."""
        return sum(self._core_seconds.values()) / 3600.0

    @property
    def wall_hours(self) -> float:
        return self._wall_seconds / 3600.0

    def core_hours_by_label(self) -> Dict[str, float]:
        """Core-hours per label, for per-phase cost breakdowns."""
        return {k: v / 3600.0 for k, v in self._core_seconds.items()}

    def snapshot(self) -> float:
        """Current total, convenient for measuring a section's cost delta."""
        return self.core_hours

    def reset(self) -> None:
        self._core_seconds.clear()
        self._wall_seconds = 0.0
