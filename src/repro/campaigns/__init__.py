"""Campaign runner: fleets of tuning campaigns as a managed workload.

The paper's evaluation is not one tuning run but thousands — every
(application x VM x tuner x seed) cell of Figs. 10-12 and Table 1 is an
independent campaign.  This subsystem executes such fleets: declare them
with :class:`CampaignSpec` / :class:`CampaignGrid`, run them with
:class:`CampaignRunner` (worker pool, failure isolation, deterministic
parallelism) under one :class:`SweepOptions` value, and checkpoint them in
a :class:`CampaignStore` — one append-only JSONL file, opened with
:func:`open_store` — so an interrupted sweep resumes instead of
restarting.  Read a sweep back through its report views —
:func:`summarise` (per cell), :func:`summarise_by` (along the scenario or
format axis) and :func:`summarise_failures` — each of which renders
itself with ``table()``.

Quickstart::

    from repro.campaigns import (
        CampaignGrid, CampaignRunner, SweepOptions, open_store, summarise,
    )

    grid = CampaignGrid(apps=("redis", "lammps"), seeds=(0, 1, 2), scale="test")
    runner = CampaignRunner(SweepOptions(jobs=4), store=open_store("sweep.jsonl"))
    report = runner.run(grid.specs())       # re-run: finished cells skipped
    print(summarise(report.records).table())

or from the shell: ``python -m repro sweep --apps redis,lammps --seeds 0,1,2
--scale test --jobs 4 --store sweep.jsonl``.
"""

from repro.campaigns.dispatch import Dispatcher, TaskLedger
from repro.campaigns.report import (
    AxisRow,
    AxisSummary,
    FailureRow,
    FailureSummary,
    SweepRow,
    SweepSummary,
    summarise,
    summarise_by,
    summarise_failures,
)
from repro.campaigns.runner import (
    CampaignRunner,
    SweepOptions,
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
    StoreLock,
    open_store,
)

__all__ = [
    "AxisRow",
    "AxisSummary",
    "CampaignGrid",
    "CampaignRecord",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStore",
    "Dispatcher",
    "FailureRow",
    "FailureSummary",
    "StoreLock",
    "SweepOptions",
    "SweepReport",
    "SweepRow",
    "SweepSummary",
    "TaskLedger",
    "cached_application",
    "default_jobs",
    "execute_campaign",
    "open_store",
    "parallel_map",
    "repeat_specs",
    "summarise",
    "summarise_by",
    "summarise_failures",
]
