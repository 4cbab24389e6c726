"""Sec. 3.2 study: statistical noise-handling methods vs DarwinGame.

The paper claims that "statistical methods like quantile regression and
Thompson sampling, which are often used to handle variability, are also
unable to account for unpredictable cloud interference (resulting in
significantly less effective results compared to DarwinGame)".  This runner
quantifies that sentence: it tunes each application with the quantile
regression and Thompson-sampling baselines alongside DarwinGame (and BLISS
as the strongest conventional tuner), using the same evaluation protocol as
the headline figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.campaigns.runner import (
    CampaignRunner,
    SweepOptions,
    cached_application,
)
from repro.campaigns.spec import repeat_specs, vm_to_field
from repro.campaigns.store import CampaignRecord
from repro.cloud.vm import DEFAULT_VM, VMSpec

#: Strategy order of the Sec. 3.2 comparison.
STATISTICAL_STRATEGIES = (
    "Optimal",
    "DarwinGame",
    "QuantileRegression",
    "ThompsonSampling",
    "BLISS",
)

_CACHE: Dict[tuple, "StatisticalResult"] = {}


@dataclass(frozen=True)
class StatisticalRow:
    """Aggregate of one (application, strategy) pair."""

    app_name: str
    strategy: str
    mean_time: float
    cov_percent: float
    gap_vs_optimal_percent: float
    core_hours: float
    repeats: int


@dataclass(frozen=True)
class StatisticalResult:
    """The full Sec. 3.2 comparison grid."""

    rows: List[StatisticalRow]
    repeats: int
    scale: str

    def row(self, app_name: str, strategy: str) -> StatisticalRow:
        for r in self.rows:
            if r.app_name == app_name and r.strategy == strategy:
                return r
        raise KeyError((app_name, strategy))

    def apps(self) -> List[str]:
        return list(dict.fromkeys(r.app_name for r in self.rows))


def _aggregate(
    app_name: str,
    strategy: str,
    runs: List[CampaignRecord],
    optimal_time: float,
) -> StatisticalRow:
    times = np.array([r.mean_time for r in runs])
    covs = np.array([r.cov_percent for r in runs])
    hours = float(np.mean([r.core_hours for r in runs]))
    mean_time = float(times.mean())
    gap = 100.0 * (mean_time - optimal_time) / optimal_time
    return StatisticalRow(
        app_name=app_name,
        strategy=strategy,
        mean_time=mean_time,
        cov_percent=float(covs.mean()),
        gap_vs_optimal_percent=gap,
        core_hours=hours,
        repeats=len(runs),
    )


def run_statistical_comparison(
    app_names: Tuple[str, ...] = ("redis", "lammps"),
    *,
    scale: str = "bench",
    repeats: int = 3,
    vm: VMSpec = DEFAULT_VM,
    seed: int = 0,
    jobs: int = 1,
) -> StatisticalResult:
    """Tune with every Sec. 3.2 strategy and aggregate the quality metrics.

    The (application x strategy x repeat) grid runs through the campaign
    runner; ``jobs > 1`` parallelises it without changing any result, so
    the cache key ignores ``jobs``.
    """
    key = (tuple(app_names), scale, repeats, vm.name, seed)
    if key in _CACHE:
        return _CACHE[key]

    specs = []
    for app_name in app_names:
        for strategy in STATISTICAL_STRATEGIES:
            n = 1 if strategy == "Optimal" else repeats
            specs.extend(
                repeat_specs(
                    app_name, strategy, repeats=n, scale=scale,
                    vm=vm_to_field(vm), seed=seed,
                )
            )
    runner = CampaignRunner(SweepOptions(jobs=jobs))
    records = runner.run(specs).raise_on_failure().records
    runs_by_cell: Dict[tuple, List[CampaignRecord]] = {}
    for record in records:
        cell = (record.spec.app, record.spec.strategy)
        runs_by_cell.setdefault(cell, []).append(record)

    rows: List[StatisticalRow] = []
    for app_name in app_names:
        optimal_time = cached_application(app_name, scale).optimal.true_time
        for strategy in STATISTICAL_STRATEGIES:
            rows.append(
                _aggregate(
                    app_name, strategy,
                    runs_by_cell[(app_name, strategy)], optimal_time,
                )
            )
    result = StatisticalResult(rows=rows, repeats=repeats, scale=scale)
    _CACHE[key] = result
    return result
