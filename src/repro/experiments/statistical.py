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
from typing import List, Optional, Tuple

from repro.campaigns.runner import CampaignRunner
from repro.cloud.vm import DEFAULT_VM, VMSpec
from repro.experiments.headline import run_headline

#: Strategy order of the Sec. 3.2 comparison.
STATISTICAL_STRATEGIES = (
    "Optimal",
    "DarwinGame",
    "QuantileRegression",
    "ThompsonSampling",
    "BLISS",
)


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


def run_statistical_comparison(
    app_names: Tuple[str, ...] = ("redis", "lammps"),
    *,
    scale: str = "bench",
    repeats: int = 3,
    vm: VMSpec = DEFAULT_VM,
    seed: int = 0,
    runner: Optional[CampaignRunner] = None,
) -> StatisticalResult:
    """Tune with every Sec. 3.2 strategy and aggregate the quality metrics.

    The comparison is the headline grid (:func:`~repro.experiments.
    headline.run_headline`, through ``runner``) over
    :data:`STATISTICAL_STRATEGIES`; each row's gap is taken against the
    grid's ``Optimal`` row, whose mean time is the oracle's true time.
    """
    grid = run_headline(
        tuple(app_names), scale=scale, repeats=repeats, vm=vm, seed=seed,
        strategies=STATISTICAL_STRATEGIES, runner=runner,
    )
    rows: List[StatisticalRow] = []
    for app_name in app_names:
        optimal_time = grid.row(app_name, "Optimal").mean_time
        for strategy in STATISTICAL_STRATEGIES:
            cell = grid.row(app_name, strategy)
            rows.append(
                StatisticalRow(
                    app_name=app_name,
                    strategy=strategy,
                    mean_time=cell.mean_time,
                    cov_percent=cell.cov_percent,
                    gap_vs_optimal_percent=(
                        100.0 * (cell.mean_time - optimal_time) / optimal_time
                    ),
                    core_hours=cell.core_hours,
                    repeats=cell.repeats,
                )
            )
    return StatisticalResult(rows=rows, repeats=repeats, scale=scale)
