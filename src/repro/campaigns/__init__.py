"""Campaign runner: fleets of tuning campaigns as a managed workload.

The paper's evaluation is not one tuning run but thousands — every
(application x VM x tuner x seed) cell of Figs. 10-12 and Table 1 is an
independent campaign.  This subsystem executes such fleets: declare them
with :class:`CampaignSpec` / :class:`CampaignGrid`, run them with
:class:`CampaignRunner` (worker pool, failure isolation, deterministic
parallelism), and checkpoint them in a :class:`ResultStore` backend —
single-file JSONL (:class:`CampaignStore`, the default) or SQLite
(:class:`SqliteStore`) — so an interrupted sweep resumes instead of
restarting.  :func:`open_store`
picks the backend from what is on disk (or a path suffix);
:func:`migrate_store` converts between them losslessly.

Quickstart::

    from repro.campaigns import CampaignGrid, CampaignRunner, open_store

    grid = CampaignGrid(apps=("redis", "lammps"), seeds=(0, 1, 2), scale="test")
    runner = CampaignRunner(jobs=4, store=open_store("sweep.jsonl"))
    report = runner.run(grid.specs())       # re-run: finished cells skipped

or from the shell: ``python -m repro sweep --apps redis,lammps --seeds 0,1,2
--scale test --jobs 4 --store sweep.jsonl``.
"""

from repro.campaigns.dispatch import Dispatcher, TaskLedger
from repro.campaigns.report import (
    FailureRow,
    FailureSummary,
    FormatRow,
    FormatSummary,
    ScenarioRow,
    ScenarioSummary,
    SweepRow,
    SweepSummary,
    failure_table,
    format_table,
    scenario_table,
    summarise,
    summarise_by_format,
    summarise_by_scenario,
    summarise_failures,
    summary_table,
)
from repro.campaigns.runner import (
    CampaignRunner,
    SweepReport,
    cached_application,
    default_jobs,
    execute_campaign,
    parallel_map,
)
from repro.campaigns.spec import CampaignGrid, CampaignSpec, repeat_specs
from repro.campaigns.store import (
    CampaignRecord,
    CampaignStore,
    ResultStore,
    SqliteStore,
    StoreLock,
    migrate_store,
    open_store,
    sniff_backend,
)

__all__ = [
    "CampaignGrid",
    "CampaignRecord",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStore",
    "Dispatcher",
    "FailureRow",
    "FailureSummary",
    "FormatRow",
    "FormatSummary",
    "ResultStore",
    "ScenarioRow",
    "ScenarioSummary",
    "SqliteStore",
    "StoreLock",
    "SweepReport",
    "SweepRow",
    "SweepSummary",
    "TaskLedger",
    "cached_application",
    "default_jobs",
    "execute_campaign",
    "failure_table",
    "format_table",
    "migrate_store",
    "open_store",
    "parallel_map",
    "repeat_specs",
    "scenario_table",
    "sniff_backend",
    "summarise",
    "summarise_by_format",
    "summarise_by_scenario",
    "summarise_failures",
    "summary_table",
]
