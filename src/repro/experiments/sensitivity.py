"""Sec. 3.2/3.3 hyper-parameter robustness claims.

* Varying the work-done deviation ``d`` between 5% and 15% changes
  DarwinGame's execution-time outcome by less than 2.7%.
* Varying the region count ``n_r`` between 0.5x and 1.5x the default changes
  the outcome by less than 3.7%.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Tuple

from repro.campaigns.runner import cached_application, parallel_map
from repro.cloud.environment import CloudEnvironment
from repro.cloud.vm import DEFAULT_VM, VMSpec
from repro.core.config import DarwinGameConfig, auto_regions
from repro.core.tournament import DarwinGame


@dataclass(frozen=True)
class SweepPoint:
    parameter: str
    value: float
    mean_time: float


@dataclass(frozen=True)
class SensitivityResult:
    app_name: str
    points: List[SweepPoint]

    def max_spread_percent(self, parameter: str) -> float:
        """Largest relative outcome difference across the swept values."""
        times = [p.mean_time for p in self.points if p.parameter == parameter]
        if not times:
            raise KeyError(parameter)
        return 100.0 * (max(times) - min(times)) / min(times)


def _outcome(task: Tuple[str, object, VMSpec, DarwinGameConfig, int]) -> float:
    """Tune ``(app_name, scale, vm, config, seed)`` once and measure the
    pick; one picklable task of :func:`run_sensitivity`."""
    app_name, scale, vm, config, seed = task
    app = cached_application(app_name, scale)
    env = CloudEnvironment(vm, seed=seed)
    result = DarwinGame(dataclasses.replace(config, seed=seed)).tune(app, env)
    return env.measure_choice(app, result.best_index).mean_time


def run_sensitivity(
    app_name: str = "redis",
    *,
    scale: str = "bench",
    vm: VMSpec = DEFAULT_VM,
    seed: int = 0,
    deviations: Tuple[float, ...] = (0.05, 0.10, 0.15),
    region_factors: Tuple[float, ...] = (0.5, 1.0, 1.5),
    jobs: int = 1,
) -> SensitivityResult:
    """Sweep ``d`` and ``n_r`` around their defaults.

    Each swept value is one independent tune, run on up to ``jobs`` worker
    processes (:func:`~repro.campaigns.runner.parallel_map`); the points
    do not depend on ``jobs``.
    """
    space_size = cached_application(app_name, scale).space.size
    sweep: List[Tuple[str, float, DarwinGameConfig]] = [
        ("work_deviation", d, DarwinGameConfig(work_deviation=d))
        for d in deviations
    ]
    for factor in region_factors:
        n_regions = max(4, int(auto_regions(space_size) * factor))
        sweep.append(
            ("n_regions", float(n_regions), DarwinGameConfig(n_regions=n_regions))
        )
    times = parallel_map(
        _outcome,
        [(app_name, scale, vm, config, seed) for _, _, config in sweep],
        jobs=jobs,
    )
    return SensitivityResult(
        app_name=app_name,
        points=[
            SweepPoint(parameter, value, mean_time)
            for (parameter, value, _), mean_time in zip(sweep, times)
        ],
    )
