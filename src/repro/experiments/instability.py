"""Fig. 3: existing tuners are suboptimal *and* inconsistent over time.

The same tuner is run at three different times (T1, T2, T3 — different
phases of the cloud's interference realisation).  Each campaign returns a
configuration; we record the execution time of that configuration and check
(a) how far each lands from the optimal configuration's dedicated-environment
time and (b) whether the three campaigns even agree with each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.campaigns.runner import CampaignRunner, cached_application
from repro.campaigns.spec import CampaignSpec, vm_to_field
from repro.cloud.vm import DEFAULT_VM, VMSpec

#: Campaign start times: day 0, day 20, day 40 of the realisation.
DEFAULT_EPOCHS: Tuple[float, float, float] = (0.0, 20 * 86400.0, 40 * 86400.0)

#: The tuners Fig. 3 shows (plus the two reference strategies).
FIG3_STRATEGIES = ("Optimal", "Exhaustive", "BLISS", "OpenTuner", "ActiveHarmony")


@dataclass(frozen=True)
class InstabilityCell:
    """One tuner at one campaign epoch."""

    strategy: str
    epoch_label: str
    mean_time: float
    best_index: int


@dataclass(frozen=True)
class InstabilityResult:
    app_name: str
    cells: List[InstabilityCell]
    #: strategy -> number of distinct configurations chosen across epochs
    distinct_choices: Dict[str, int]
    optimal_time: float

    def times_of(self, strategy: str) -> List[float]:
        return [c.mean_time for c in self.cells if c.strategy == strategy]


def run_fig3(
    app_name: str = "redis",
    *,
    scale: str = "bench",
    vm: VMSpec = DEFAULT_VM,
    seed: int = 0,
    epochs: Tuple[float, ...] = DEFAULT_EPOCHS,
    strategies: Tuple[str, ...] = FIG3_STRATEGIES,
) -> InstabilityResult:
    """Run every strategy once per epoch and collect the Fig. 3 grid.

    The k-th epoch's campaigns (k from 1) start at its time under
    environment seed ``seed + k``; the (epoch x strategy) grid runs
    through the campaign runner.
    """
    plan = [
        (
            f"T{e_num}",
            CampaignSpec(
                app=app_name, strategy=strategy, vm=vm_to_field(vm),
                scale=scale, seed=seed + e_num, start_time=start,
            ),
        )
        for e_num, start in enumerate(epochs, start=1)
        for strategy in strategies
    ]
    report = CampaignRunner().run(spec for _, spec in plan)
    cells: List[InstabilityCell] = []
    choices: Dict[str, set] = {s: set() for s in strategies}
    for (label, spec), record in zip(plan, report.raise_on_failure().records):
        cells.append(
            InstabilityCell(
                strategy=spec.strategy,
                epoch_label=label,
                mean_time=record.mean_time,
                best_index=record.best_index,
            )
        )
        choices[spec.strategy].add(record.best_index)
    app = cached_application(app_name, scale)
    return InstabilityResult(
        app_name=app.name,
        cells=cells,
        distinct_choices={s: len(v) for s, v in choices.items()},
        optimal_time=app.optimal.true_time,
    )
