"""Experiment runners: one per figure/table of the paper's evaluation."""

from repro.experiments.ablations import AblationResult, run_ablations
from repro.experiments.colocation_study import (
    ColocationStudyResult,
    run_colocation_study,
)
from repro.experiments.format_power import (
    FORMAT_NAMES,
    FormatPowerResult,
    FormatPowerRow,
    run_format_power,
)
from repro.experiments.headline import (
    STRATEGY_NAMES,
    HeadlineResult,
    HeadlineRow,
    StabilityResult,
    run_headline,
    run_stability,
)
from repro.experiments.instability import InstabilityResult, run_fig3
from repro.experiments.integration import IntegrationResult, run_integration
from repro.experiments.motivation import (
    Fig1Left,
    Fig1Right,
    Fig2Scatter,
    run_fig1_left,
    run_fig1_right,
    run_fig2,
)
from repro.experiments.reporting import paper_vs_measured, render_table
from repro.experiments.scenario_robustness import (
    DEFAULT_SCENARIOS,
    run_scenario_robustness,
)
from repro.experiments.sensitivity import SensitivityResult, run_sensitivity
from repro.experiments.shift_study import (
    ShiftRow,
    ShiftStudyResult,
    run_shift_study,
)
from repro.experiments.statistical import (
    STATISTICAL_STRATEGIES,
    StatisticalResult,
    StatisticalRow,
    run_statistical_comparison,
)
from repro.experiments.table1 import Table1Row, run_table1, table1_grid
from repro.experiments.vm_sweep import FIG15_VMS, VMSweepResult, run_vm_sweep

__all__ = [
    "AblationResult",
    "ColocationStudyResult",
    "DEFAULT_SCENARIOS",
    "FIG15_VMS",
    "FORMAT_NAMES",
    "FormatPowerResult",
    "FormatPowerRow",
    "Fig1Left",
    "Fig1Right",
    "Fig2Scatter",
    "HeadlineResult",
    "HeadlineRow",
    "InstabilityResult",
    "IntegrationResult",
    "STATISTICAL_STRATEGIES",
    "STRATEGY_NAMES",
    "SensitivityResult",
    "ShiftRow",
    "ShiftStudyResult",
    "StabilityResult",
    "StatisticalResult",
    "StatisticalRow",
    "Table1Row",
    "VMSweepResult",
    "paper_vs_measured",
    "render_table",
    "run_ablations",
    "run_colocation_study",
    "run_fig1_left",
    "run_format_power",
    "run_fig1_right",
    "run_fig2",
    "run_fig3",
    "run_headline",
    "run_integration",
    "run_scenario_robustness",
    "run_sensitivity",
    "run_shift_study",
    "run_stability",
    "run_statistical_comparison",
    "run_table1",
    "run_vm_sweep",
    "table1_grid",
]
