"""The application abstraction every tuner works against.

An :class:`ApplicationModel` bundles a search space with a performance
surface and exposes exactly what a real tuning harness can see:

* ``true_time(indices)`` — interference-free execution time (the simulator's
  ground truth; in the paper this is measurable only on dedicated hardware),
* ``sensitivity(indices)`` — how interference inflates a run (never visible
  to tuners directly, only through noisy observations), and
* oracle helpers (:meth:`optimal`, :meth:`best_robust`) computed by scanning
  the full space — the "practically infeasible" comparison points of Sec. 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional

import numpy as np

from repro.apps.surfaces import PerformanceSurface
from repro.errors import ReproError
from repro.space.space import SearchSpace


@dataclass(frozen=True)
class OraclePoint:
    """A ground-truth reference configuration (index + dedicated-env time)."""

    index: int
    true_time: float
    sensitivity: float


# Spaces up to this size get a lazy full-array memo of the two surface
# quantities (two float64 arrays, ≤ 64 MB at the limit).  Tournament rounds
# re-evaluate the same lineups game after game, so the memo turns repeated
# surface evaluations into array gathers.  Larger spaces fall back to direct
# evaluation — their tuners touch a vanishing fraction of the space anyway.
_FULL_MEMO_LIMIT = 4_194_304


def _memoised(
    memo: np.ndarray, seen: np.ndarray, idx: np.ndarray, compute
) -> np.ndarray:
    """Gather ``idx`` from ``memo``, computing not-yet-seen entries once.

    Seen-ness is an explicit boolean mask, not a NaN sentinel: an entry whose
    *computed value* is non-finite would match a NaN sentinel forever and be
    recomputed on every gather.
    """
    missing = ~seen[idx]
    if missing.any():
        fill = np.unique(idx[missing])
        memo[fill] = compute(fill)
        seen[fill] = True
    return memo[idx]


class ApplicationModel:
    """A tunable application: search space + performance surface + metadata.

    Attributes:
        name: application name (``"redis"``, ``"gromacs"``, ...).
        space: the tuning search space (Table 1 parameters).
        surface: the synthetic performance surface.
        work_metric: human-readable description of the progress counter used
            for early termination (Sec. 4: requests served, frames encoded,
            fraction of output produced).
    """

    def __init__(
        self,
        name: str,
        space: SearchSpace,
        surface: PerformanceSurface,
        *,
        work_metric: str = "fraction of work completed",
        scale: str = "custom",
    ) -> None:
        self.name = name
        self.space = space
        self.surface = surface
        self.work_metric = work_metric
        self.scale = scale
        self._time_memo: Optional[np.ndarray] = None
        self._time_seen: Optional[np.ndarray] = None
        self._sens_memo: Optional[np.ndarray] = None
        self._sens_seen: Optional[np.ndarray] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ApplicationModel({self.name!r}, size={self.space.size}, "
            f"scale={self.scale!r})"
        )

    # -- the two physical quantities -------------------------------------

    def _compute_true_time(self, idx: np.ndarray) -> np.ndarray:
        return self.surface.times_of_levels(self.space.levels_matrix(idx))

    def _compute_sensitivity(self, idx: np.ndarray) -> np.ndarray:
        return self.surface.sensitivities(idx)

    def _can_memo(self, idx: np.ndarray) -> bool:
        """Memoise in-range lookups of small spaces; let the direct path
        raise naturally on out-of-range indices."""
        return (
            self.space.size <= _FULL_MEMO_LIMIT
            and idx.ndim == 1
            and idx.size > 0
            and bool(np.all((idx >= 0) & (idx < self.space.size)))
        )

    def _ensure_memos(self) -> None:
        """Allocate the memo arrays (all entries unseen) on first use."""
        if self._time_memo is not None:
            return
        self._time_memo = np.empty(self.space.size)
        self._time_seen = np.zeros(self.space.size, dtype=bool)
        self._sens_memo = np.empty(self.space.size)
        self._sens_seen = np.zeros(self.space.size, dtype=bool)

    def true_time(self, indices) -> np.ndarray:
        """Interference-free execution time (seconds) of each configuration."""
        idx = np.asarray(indices, dtype=np.int64)
        if not self._can_memo(idx):
            return self._compute_true_time(idx)
        self._ensure_memos()
        return _memoised(
            self._time_memo, self._time_seen, idx, self._compute_true_time
        )

    def sensitivity(self, indices) -> np.ndarray:
        """Noise sensitivity of each configuration (0 = immune)."""
        idx = np.asarray(indices, dtype=np.int64)
        if not self._can_memo(idx):
            return self._compute_sensitivity(idx)
        self._ensure_memos()
        return _memoised(
            self._sens_memo, self._sens_seen, idx, self._compute_sensitivity
        )

    # -- full surface tables ----------------------------------------------

    @property
    def memoisable(self) -> bool:
        """Whether the space is small enough for full surface tables."""
        return self.space.size <= _FULL_MEMO_LIMIT

    def export_surfaces(self) -> Dict[str, np.ndarray]:
        """Complete and return the full-space surface tables.

        Computes any not-yet-seen entries (chunked, so peak memory stays
        bounded) and returns ``{"true_time", "sensitivity"}`` arrays of
        length ``space.size``.  perfbench's set-up calls it to time a
        complete surface build.
        """
        if not self.memoisable:
            raise ReproError(
                f"{self.name}({self.scale}) space of {self.space.size} points "
                f"exceeds the {_FULL_MEMO_LIMIT}-point surface-table limit"
            )
        for chunk in self.space.iter_chunks():
            self.true_time(chunk)
            self.sensitivity(chunk)
        return {
            "true_time": self._time_memo.copy(),
            "sensitivity": self._sens_memo.copy(),
        }

    def is_robust(self, indices) -> np.ndarray:
        """Whether each configuration belongs to the interference-immune subset."""
        return self.surface.robust_mask(np.asarray(indices, dtype=np.int64))

    # -- oracle scans ------------------------------------------------------

    def _scan(self, mask_robust: bool) -> OraclePoint:
        best_idx: Optional[int] = None
        best_time = np.inf
        for chunk in self.space.iter_chunks():
            # Route through true_time so the scan both benefits from and
            # (on small spaces) populates the memoised surface tables.
            times = self.true_time(chunk)
            if mask_robust:
                robust = self.surface.robust_mask(chunk)
                times = np.where(robust, times, np.inf)
            pos = int(np.argmin(times))
            if times[pos] < best_time:
                best_time = float(times[pos])
                best_idx = int(chunk[pos])
        assert best_idx is not None
        sens = float(self.sensitivity(np.array([best_idx]))[0])
        return OraclePoint(index=best_idx, true_time=best_time, sensitivity=sens)

    @cached_property
    def optimal(self) -> OraclePoint:
        """The paper's *optimal configuration*: global minimum true time.

        Determined by exhaustive scan of the space in a dedicated (noise-free)
        environment — exactly the infeasible-in-practice procedure Sec. 2
        describes for establishing the comparison point.
        """
        return self._scan(mask_robust=False)

    @cached_property
    def best_robust(self) -> OraclePoint:
        """Fastest configuration among the low-variation (robust) subset.

        This is the kind of configuration a desirable tuner should return
        (Takeaway II); DarwinGame's output is expected to land at or near it.
        """
        return self._scan(mask_robust=True)

    def optimality_gap_percent(self, index: int) -> float:
        """How far (in % of true time) a configuration is from the optimum."""
        t = float(self.true_time(np.array([index]))[0])
        return 100.0 * (t - self.optimal.true_time) / self.optimal.true_time
