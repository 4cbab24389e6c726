"""Table 1: tunable parameters and search-space sizes per application.

Also home of :func:`table1_grid` — the canonical campaign grid over the
Table 1 applications that ``python -m repro sweep`` runs by default and the
campaign subsystem's acceptance tests execute at test scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.apps.registry import APPLICATION_NAMES
from repro.campaigns.runner import cached_application
from repro.campaigns.spec import CampaignGrid, Scale

#: The sizes Table 1 reports (paper rounds to 0.1 million).
PAPER_SIZES = {
    "redis": 7.8e6,
    "gromacs": 3.8e6,
    "ffmpeg": 6.1e6,
    "lammps": 4.4e6,
}


@dataclass(frozen=True)
class Table1Row:
    app_name: str
    app_parameters: Tuple[str, ...]
    system_parameters: Tuple[str, ...]
    space_size: int
    paper_size: float

    @property
    def size_ratio(self) -> float:
        """Measured / paper size (1.0 = exact match)."""
        return self.space_size / self.paper_size


def _build_row(name: str) -> Table1Row:
    app = cached_application(name, "full")
    app_params = tuple(
        p.name for p in app.space.parameters if p.kind == "app"
    )
    sys_params = tuple(
        p.name for p in app.space.parameters if p.kind == "system"
    )
    return Table1Row(
        app_name=name,
        app_parameters=app_params,
        system_parameters=sys_params,
        space_size=app.space.size,
        paper_size=PAPER_SIZES[name],
    )


def run_table1() -> List[Table1Row]:
    """Build every application at full scale and report its Table 1 row."""
    return [_build_row(name) for name in APPLICATION_NAMES]


def table1_grid(
    *,
    scale: Scale = "test",
    strategies: Tuple[str, ...] = ("DarwinGame",),
    vms: Tuple[str, ...] = ("m5.8xlarge",),
    seeds: Tuple[int, ...] = (0,),
    eval_runs: int = 100,
) -> CampaignGrid:
    """The Table 1 fleet: every evaluated application, one cell per seed.

    At ``scale="test"`` this is the campaign runner's acceptance workload —
    small enough for CI, wide enough to exercise every application surface.
    """
    return CampaignGrid(
        apps=APPLICATION_NAMES,
        strategies=strategies,
        vms=vms,
        seeds=seeds,
        scale=scale,
        eval_runs=eval_runs,
    )
