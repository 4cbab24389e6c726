"""Scenario-robustness experiment: tuners under dynamic cloud conditions.

The paper's central claim — tournament tuning is robust where noisy
single-measurement tuners are not — is evaluated under *stationary*
interference only.  This experiment stresses it: the same (app, strategy,
seed) grid is tuned under every requested scenario pack (diurnal swings,
noisy-neighbour storms, spot preemptions, drifting baselines,
heterogeneous fleets) and aggregated per scenario, reporting each
strategy's mean execution time, CoV, and gap versus DarwinGame under
identical conditions.

Like every grid experiment this enumerates a
:class:`~repro.campaigns.spec.CampaignGrid` and submits it through the
campaign runner, so it parallelises with ``jobs=`` and reproduces serial
results bit for bit.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.campaigns.report import AxisSummary, summarise_by
from repro.campaigns.runner import CampaignRunner, SweepOptions
from repro.campaigns.spec import CampaignGrid
from repro.errors import ReproError
from repro.scenarios import get_scenario

#: The default strategy panel: the tournament versus the paper's strongest
#: search-based baselines (the oracle is meaningless under dynamic noise —
#: its dedicated environment has no interference to modify).
DEFAULT_STRATEGIES: Tuple[str, ...] = ("DarwinGame", "BLISS", "ActiveHarmony")

#: The default scenario panel: the stationary control plus one pack per
#: dynamic archetype.
DEFAULT_SCENARIOS: Tuple[str, ...] = (
    "steady", "diurnal", "bursty", "preemptible", "drift", "mixed-fleet",
)


def run_scenario_robustness(
    *,
    apps: Sequence[str] = ("redis",),
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    scenarios: Sequence[str] = DEFAULT_SCENARIOS,
    seeds: Sequence[int] = (0, 1, 2),
    scale: str = "bench",
    vm: str = "m5.8xlarge",
    eval_runs: int = 100,
    jobs: int = 1,
) -> AxisSummary:
    """Tune every strategy under every scenario and aggregate per scenario
    (:func:`~repro.campaigns.report.summarise_by` along ``"scenario"``)."""
    if not seeds:
        raise ReproError("scenario robustness needs at least one seed")
    for name in scenarios:
        get_scenario(name)  # fail fast on typos, before any campaign runs
    grid = CampaignGrid(
        apps=tuple(apps),
        strategies=tuple(strategies),
        vms=(vm,),
        seeds=tuple(int(s) for s in seeds),
        scale=scale,
        eval_runs=eval_runs,
        scenarios=tuple(scenarios),
    )
    runner = CampaignRunner(SweepOptions(jobs=jobs))
    report = runner.run(grid.specs()).raise_on_failure()
    return summarise_by(report.records, "scenario")
