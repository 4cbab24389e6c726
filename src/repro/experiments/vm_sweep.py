"""Fig. 15: DarwinGame's effectiveness across VM classes and sizes.

Redis is tuned and executed on every evaluated instance type; DarwinGame's
chosen configuration should stay within ~10% of the Oracle (dedicated-
environment optimum) everywhere, with a CoV below ~0.5%, even though smaller
VMs suffer much heavier interference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.campaigns.runner import (
    CampaignRunner,
    SweepOptions,
    cached_application,
)
from repro.campaigns.spec import CampaignSpec
from repro.cloud.vm import PRESETS, VMSpec

#: The paper's Fig. 15 x-axis, in order.
FIG15_VMS: Tuple[str, ...] = (
    "m5.large",
    "m5.2xlarge",
    "m5.8xlarge",
    "m5.16xlarge",
    "m5.24xlarge",
    "c5.9xlarge",
    "r5.8xlarge",
    "i3.8xlarge",
)


@dataclass(frozen=True)
class VMSweepRow:
    vm_name: str
    vcpus: int
    oracle_time: float
    darwin_time: float
    gap_percent: float
    cov_percent: float
    core_hours: float


@dataclass(frozen=True)
class VMSweepResult:
    app_name: str
    rows: List[VMSweepRow]

    @property
    def worst_gap_percent(self) -> float:
        return max(r.gap_percent for r in self.rows)

    @property
    def worst_cov_percent(self) -> float:
        return max(r.cov_percent for r in self.rows)


def run_vm_sweep(
    app_name: str = "redis",
    *,
    scale: str = "bench",
    seed: int = 0,
    vm_names: Tuple[str, ...] = FIG15_VMS,
    jobs: int = 1,
) -> VMSweepResult:
    """Tune with DarwinGame on each VM type; compare to the Oracle.

    One campaign per VM preset, submitted through the campaign runner;
    ``jobs > 1`` sweeps instance types in parallel with identical results.
    """
    oracle = cached_application(app_name, scale).optimal.true_time
    specs = [
        CampaignSpec(
            app=app_name, strategy="DarwinGame", vm=vm_name,
            scale=scale, seed=seed,
        )
        for vm_name in vm_names
    ]
    runner = CampaignRunner(SweepOptions(jobs=jobs))
    records = runner.run(specs).raise_on_failure().records
    rows: List[VMSweepRow] = []
    for vm_name, record in zip(vm_names, records):
        vm: VMSpec = PRESETS[vm_name]
        gap = 100.0 * (record.mean_time - oracle) / oracle
        rows.append(
            VMSweepRow(
                vm_name=vm_name,
                vcpus=vm.vcpus,
                oracle_time=oracle,
                darwin_time=record.mean_time,
                gap_percent=gap,
                cov_percent=record.cov_percent,
                core_hours=record.core_hours,
            )
        )
    return VMSweepResult(app_name=app_name, rows=rows)
