"""Headline evaluation: Figs. 10, 11 and 12, plus the pick-stability claim.

One *headline run* tunes every application with every strategy several times
(fresh interference realisation and campaign start per repeat) and collects,
per (application, strategy):

* Fig. 10 — mean execution time of the chosen configuration (and its range
  across repeats, the error bars);
* Fig. 11 — coefficient of variation of the chosen configuration across 100
  cloud executions;
* Fig. 12 — core-hours spent tuning, as a percentage of exhaustive search.

The Sec. 5 stability claim (DarwinGame picks the same configuration 93/100
repeats while the next-best tuner picks 42 different ones) is computed from
the same repeats.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.campaigns.runner import CampaignRunner, SweepOptions
from repro.campaigns.spec import repeat_specs, vm_to_field
from repro.campaigns.store import CampaignRecord
from repro.cloud.vm import DEFAULT_VM, VMSpec

#: Strategies, in the order the paper's figures list them.
STRATEGY_NAMES = (
    "Optimal",
    "DarwinGame",
    "Exhaustive",
    "BLISS",
    "OpenTuner",
    "ActiveHarmony",
)

_CACHE: Dict[tuple, "HeadlineResult"] = {}


@dataclass(frozen=True)
class HeadlineRow:
    """One (application, strategy) aggregate."""

    app_name: str
    strategy: str
    mean_time: float
    time_low: float       # error-bar bottom across repeats
    time_high: float      # error-bar top across repeats
    cov_percent: float    # mean CoV across repeats
    core_hours: float
    core_hours_pct_of_exhaustive: float
    distinct_picks: int
    modal_pick_fraction: float
    repeats: int


@dataclass(frozen=True)
class HeadlineResult:
    rows: List[HeadlineRow]
    scale: str
    repeats: int

    def row(self, app_name: str, strategy: str) -> HeadlineRow:
        for r in self.rows:
            if r.app_name == app_name and r.strategy == strategy:
                return r
        raise KeyError((app_name, strategy))

    def apps(self) -> List[str]:
        return list(dict.fromkeys(r.app_name for r in self.rows))


def _aggregate(
    app_name: str,
    strategy: str,
    runs: Sequence[CampaignRecord],
    exhaustive_core_hours: float,
) -> HeadlineRow:
    times = np.array([r.mean_time for r in runs])
    covs = np.array([r.cov_percent for r in runs])
    hours = float(np.mean([r.core_hours for r in runs]))
    picks = Counter(r.best_index for r in runs)
    modal = picks.most_common(1)[0][1] / len(runs)
    pct = 100.0 * hours / exhaustive_core_hours if exhaustive_core_hours else 0.0
    return HeadlineRow(
        app_name=app_name,
        strategy=strategy,
        mean_time=float(times.mean()),
        time_low=float(times.min()),
        time_high=float(times.max()),
        cov_percent=float(covs.mean()),
        core_hours=hours,
        core_hours_pct_of_exhaustive=pct,
        distinct_picks=len(picks),
        modal_pick_fraction=float(modal),
        repeats=len(runs),
    )


def run_headline(
    app_names: Tuple[str, ...] = ("redis", "gromacs", "ffmpeg", "lammps"),
    *,
    scale: str = "bench",
    repeats: int = 3,
    vm: VMSpec = DEFAULT_VM,
    seed: int = 0,
    strategies: Tuple[str, ...] = STRATEGY_NAMES,
    jobs: int = 1,
) -> HeadlineResult:
    """Produce the Figs. 10-12 grid (cached: the three figures share it).

    The grid — every (application, strategy, repeat) cell — is enumerated
    declaratively and submitted to the campaign runner, so ``jobs > 1``
    spreads it over worker processes while reproducing serial results
    exactly (the cache key therefore ignores ``jobs``).
    """
    key = (tuple(app_names), scale, repeats, vm.name, seed, tuple(strategies))
    if key in _CACHE:
        return _CACHE[key]

    specs = []
    for app_name in app_names:
        for strategy in strategies:
            # Optimal is the noise-free oracle; one run suffices.  Exhaustive
            # is deterministic *given* a realisation but its pick varies
            # across realisations, so it is repeated like every tuner.
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

    rows: List[HeadlineRow] = []
    for app_name in app_names:
        exhaustive_hours = (
            runs_by_cell[(app_name, "Exhaustive")][0].core_hours
            if (app_name, "Exhaustive") in runs_by_cell
            else 0.0
        )
        for strategy in strategies:
            rows.append(
                _aggregate(
                    app_name,
                    strategy,
                    runs_by_cell[(app_name, strategy)],
                    exhaustive_hours,
                )
            )
    result = HeadlineResult(rows=rows, scale=scale, repeats=repeats)
    _CACHE[key] = result
    return result


@dataclass(frozen=True)
class StabilityResult:
    """Sec. 5: how often a tuner picks the same configuration across repeats."""

    app_name: str
    strategy: str
    repeats: int
    distinct_picks: int
    modal_pick_fraction: float


def run_stability(
    app_name: str = "redis",
    *,
    strategy: str = "DarwinGame",
    scale: str = "bench",
    repeats: int = 10,
    vm: VMSpec = DEFAULT_VM,
    seed: int = 0,
    jobs: int = 1,
) -> StabilityResult:
    """Repeat one tuner many times; report pick agreement.

    The tuner's internal seed is held fixed across repeats while the
    environment's interference realisation and the campaign start time vary
    — the paper's "tuning repeated at different periods of time in the
    cloud" (the same tool re-run, under different noise).
    """
    specs = repeat_specs(
        app_name, strategy, repeats=repeats, scale=scale, vm=vm_to_field(vm),
        seed=seed, vary_tuner_seed=False,
    )
    runner = CampaignRunner(SweepOptions(jobs=jobs))
    records = runner.run(specs).raise_on_failure().records
    picks = Counter(r.best_index for r in records)
    return StabilityResult(
        app_name=app_name,
        strategy=strategy,
        repeats=repeats,
        distinct_picks=len(picks),
        modal_pick_fraction=picks.most_common(1)[0][1] / repeats,
    )
