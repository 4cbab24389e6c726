"""Interference distribution shift: does the tuned pick survive louder noise?

Sec. 5 notes that "while cloud interference distribution shifts are
possible, several design components of DarwinGame aim to make it resilient
to such varying levels of interference".  The mechanism is simple: because
DarwinGame selects configurations with low noise *sensitivity*, its pick's
execution time barely moves when the background level rises; a conventional
tuner's pick — fast but fragile — inflates with the noise.

The study tunes each strategy under the nominal environment, then evaluates
the chosen configuration under progressively shifted interference (the mean
level raised by a delta), reporting the degradation curve per strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import List, Optional, Tuple

import numpy as np

from repro.campaigns.runner import CampaignRunner, cached_application
from repro.campaigns.spec import CampaignSpec, vm_to_field
from repro.cloud.environment import CloudEnvironment
from repro.cloud.vm import DEFAULT_VM, VMSpec
from repro.errors import ReproError


@dataclass(frozen=True)
class ShiftRow:
    """One (strategy, shift) cell: pick quality under shifted interference."""

    strategy: str
    shift: float                  # added to the profile's mean level
    mean_time: float              # cloud mean time under the shifted profile
    degradation_percent: float    # vs the same pick under the nominal profile


@dataclass(frozen=True)
class ShiftStudyResult:
    """Degradation curves of every strategy's pick under rising interference."""

    app_name: str
    rows: List[ShiftRow]
    shifts: Tuple[float, ...]

    def row(self, strategy: str, shift: float) -> ShiftRow:
        for r in self.rows:
            if r.strategy == strategy and abs(r.shift - shift) < 1e-12:
                return r
        raise KeyError((strategy, shift))

    def strategies(self) -> List[str]:
        return list(dict.fromkeys(r.strategy for r in self.rows))


def _shifted_vm(vm: VMSpec, shift: float) -> VMSpec:
    """A VM whose interference profile's mean level is raised by ``shift``.

    ``VMSpec`` derives its profile from size and family, so we wrap it in a
    small subclass carrying an explicit profile override.
    """

    profile = dc_replace(
        vm.interference,
        mean_level=vm.interference.mean_level + shift,
        diurnal_amplitude=vm.interference.diurnal_amplitude,
    )

    class _ShiftedVM(VMSpec):
        @property
        def interference(self):  # type: ignore[override]
            return profile

    return _ShiftedVM(name=f"{vm.name}+{shift:.2f}", vcpus=vm.vcpus, family=vm.family)


def run_shift_study(
    app_name: str = "redis",
    *,
    strategies: Tuple[str, ...] = ("DarwinGame", "BLISS", "OpenTuner"),
    shifts: Tuple[float, ...] = (0.0, 0.25, 0.5, 1.0),
    scale: str = "bench",
    vm: VMSpec = DEFAULT_VM,
    seed: int = 0,
    eval_runs: int = 100,
    runner: Optional[CampaignRunner] = None,
) -> ShiftStudyResult:
    """Tune under the nominal profile; evaluate picks under shifted profiles.

    Each strategy tunes in one campaign through ``runner`` (``None`` is
    ``CampaignRunner()``); its pick is then re-measured on VMs whose mean
    interference level is raised by each shift.
    """
    if not shifts or shifts[0] != 0.0:
        raise ReproError("shifts must start at 0.0 (the nominal baseline)")

    specs = [
        CampaignSpec(
            app=app_name, strategy=strategy, vm=vm_to_field(vm), scale=scale,
            seed=seed, eval_runs=eval_runs,
        )
        for strategy in strategies
    ]
    records = (runner or CampaignRunner()).run(specs).raise_on_failure().records
    app = cached_application(app_name, scale)
    rows: List[ShiftRow] = []
    for strategy, tuned in zip(strategies, records):
        pick = tuned.best_index
        baseline = None
        for shift in shifts:
            shifted_vm = _shifted_vm(vm, shift) if shift else vm
            eval_env = CloudEnvironment(shifted_vm, seed=seed + 99_991)
            evaluation = eval_env.measure_choice(app, pick, runs=eval_runs)
            if baseline is None:
                baseline = evaluation.mean_time
            rows.append(
                ShiftRow(
                    strategy=strategy,
                    shift=shift,
                    mean_time=evaluation.mean_time,
                    degradation_percent=100.0
                    * (evaluation.mean_time - baseline)
                    / baseline,
                )
            )
    return ShiftStudyResult(app_name=app_name, rows=rows, shifts=shifts)
