"""Fig. 16: how each element of the tournament design contributes.

Every ablation flips one :class:`DarwinGameConfig` flag and re-runs the full
tournament; we report the percentage increase — relative to full DarwinGame —
in (a) the chosen configuration's execution time, (b) its CoV across cloud
executions, and (c) tuning core-hours.  Positive numbers mean the ablated
variant is worse, i.e. the design element earns its keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.campaigns.runner import cached_application
from repro.cloud.environment import CloudEnvironment
from repro.cloud.vm import DEFAULT_VM, VMSpec
from repro.core.config import ABLATION_NAMES, DarwinGameConfig
from repro.core.tournament import DarwinGame


@dataclass(frozen=True)
class AblationRow:
    app_name: str
    ablation: str
    time_increase_percent: float
    cov_increase_percent: float
    core_hours_increase_percent: float


@dataclass(frozen=True)
class AblationResult:
    rows: List[AblationRow]

    def row(self, app_name: str, ablation: str) -> AblationRow:
        for r in self.rows:
            if r.app_name == app_name and r.ablation == ablation:
                return r
        raise KeyError((app_name, ablation))


def _run_variant(
    app, vm: VMSpec, config: DarwinGameConfig, seed: int, repeats: int
) -> Tuple[float, float, float]:
    """Mean (exec time, CoV, core-hours) of a DarwinGame variant."""
    times, covs, hours = [], [], []
    rng = np.random.default_rng(seed)
    for k in range(repeats):
        run_seed = int(rng.integers(0, 2**31))
        env = CloudEnvironment(vm, seed=run_seed, start_time=k * 86400.0 * 3.0)
        import dataclasses

        result = DarwinGame(dataclasses.replace(config, seed=run_seed)).tune(app, env)
        evaluation = env.measure_choice(app, result.best_index)
        times.append(evaluation.mean_time)
        covs.append(evaluation.cov_percent)
        hours.append(result.core_hours)
    return float(np.mean(times)), float(np.mean(covs)), float(np.mean(hours))


def run_ablations(
    app_names: Tuple[str, ...] = ("redis", "gromacs", "ffmpeg", "lammps"),
    *,
    scale: str = "bench",
    repeats: int = 1,
    vm: VMSpec = DEFAULT_VM,
    seed: int = 0,
    ablations: Tuple[str, ...] = ABLATION_NAMES,
) -> AblationResult:
    """Produce the Fig. 16 grid."""
    rows: List[AblationRow] = []
    base_config = DarwinGameConfig()
    for app_name in app_names:
        app = cached_application(app_name, scale)
        full = _run_variant(app, vm, base_config, seed, repeats)
        for name in ablations:
            variant = _run_variant(
                app, vm, base_config.with_ablation(name), seed, repeats
            )
            rows.append(
                AblationRow(
                    app_name=app_name,
                    ablation=name,
                    time_increase_percent=100.0 * (variant[0] - full[0]) / full[0],
                    cov_increase_percent=100.0 * (variant[1] - full[1]) / max(full[1], 1e-9),
                    core_hours_increase_percent=100.0 * (variant[2] - full[2]) / full[2],
                )
            )
    return AblationResult(rows=rows)
