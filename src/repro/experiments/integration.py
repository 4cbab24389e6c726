"""Figs. 13 and 14: integrating DarwinGame with existing tuners (Sec. 3.6).

For ActiveHarmony and BLISS we compare the tuner as-is against the tuner
steering DarwinGame tournaments across subspaces (:class:`HybridTuner`):
execution time of the chosen configuration (Fig. 13) and tuning core-hours
as a percentage of exhaustive search (Fig. 14).  OpenTuner is excluded, as
in the paper, because its bandit-over-techniques search has no notion of a
persistent region to hand to DarwinGame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.campaigns.runner import cached_application
from repro.cloud.environment import CloudEnvironment
from repro.cloud.vm import DEFAULT_VM, VMSpec
from repro.core.config import DarwinGameConfig
from repro.tuners.active_harmony import ActiveHarmonyLike
from repro.tuners.bliss import BlissLike
from repro.tuners.integration import HybridTuner

INTEGRATION_BASES = ("ActiveHarmony", "BLISS")


@dataclass(frozen=True)
class IntegrationRow:
    """One (application, tuner-variant) aggregate."""

    app_name: str
    tuner: str            # e.g. "BLISS" or "BLISS+DarwinGame"
    mean_time: float
    cov_percent: float
    core_hours: float
    core_hours_pct_of_exhaustive: float
    repeats: int


@dataclass(frozen=True)
class IntegrationResult:
    rows: List[IntegrationRow]

    def row(self, app_name: str, tuner: str) -> IntegrationRow:
        for r in self.rows:
            if r.app_name == app_name and r.tuner == tuner:
                return r
        raise KeyError((app_name, tuner))

    def improvement_percent(self, app_name: str, base: str) -> float:
        """Execution-time improvement of base+DarwinGame over base alone."""
        alone = self.row(app_name, base).mean_time
        hybrid = self.row(app_name, f"{base}+DarwinGame").mean_time
        return 100.0 * (alone - hybrid) / alone


def _base_tuner(name: str, seed: int):
    if name == "ActiveHarmony":
        return ActiveHarmonyLike(seed=seed)
    if name == "BLISS":
        return BlissLike(seed=seed)
    raise ValueError(f"unknown integration base {name!r}")


def _exhaustive_core_hours(app, vm: VMSpec) -> float:
    """Analytic cost of exhaustively sampling the space once on this VM."""
    total_seconds = 0.0
    mean_level = vm.interference.mean_level
    for chunk in app.space.iter_chunks():
        t = app.true_time(chunk)
        s = app.sensitivity(chunk)
        total_seconds += float((t * (1.0 + s * mean_level)).sum())
    return vm.vcpus * total_seconds / 3600.0


def run_integration(
    app_names: Tuple[str, ...] = ("redis", "gromacs", "ffmpeg", "lammps"),
    *,
    scale: str = "bench",
    repeats: int = 3,
    vm: VMSpec = DEFAULT_VM,
    seed: int = 0,
    bases: Tuple[str, ...] = INTEGRATION_BASES,
) -> IntegrationResult:
    """Produce the Figs. 13/14 grid."""
    rows: List[IntegrationRow] = []
    rng = np.random.default_rng(seed)
    for app_name in app_names:
        app = cached_application(app_name, scale)
        exhaustive_hours = _exhaustive_core_hours(app, vm)
        for base_name in bases:
            variants: Dict[str, list] = {base_name: [], f"{base_name}+DarwinGame": []}
            for k in range(repeats):
                run_seed = int(rng.integers(0, 2**31))
                start = float(k) * 86400.0 * 3.0

                env = CloudEnvironment(vm, seed=run_seed, start_time=start)
                base = _base_tuner(base_name, run_seed)
                result = base.tune(app, env)
                evaluation = env.measure_choice(app, result.best_index)
                variants[base_name].append(
                    (evaluation.mean_time, evaluation.cov_percent, result.core_hours)
                )

                env = CloudEnvironment(vm, seed=run_seed, start_time=start)
                hybrid = HybridTuner(
                    _base_tuner(base_name, run_seed),
                    DarwinGameConfig(seed=run_seed),
                    seed=run_seed,
                )
                result = hybrid.tune(app, env)
                evaluation = env.measure_choice(app, result.best_index)
                variants[hybrid.name].append(
                    (evaluation.mean_time, evaluation.cov_percent, result.core_hours)
                )

            for tuner_name, samples in variants.items():
                times, covs, hours = (np.array([s[i] for s in samples]) for i in range(3))
                rows.append(
                    IntegrationRow(
                        app_name=app_name,
                        tuner=tuner_name,
                        mean_time=float(times.mean()),
                        cov_percent=float(covs.mean()),
                        core_hours=float(hours.mean()),
                        core_hours_pct_of_exhaustive=100.0 * float(hours.mean()) / exhaustive_hours,
                        repeats=repeats,
                    )
                )
    return IntegrationResult(rows=rows)
