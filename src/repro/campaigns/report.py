"""Aggregation of stored campaigns into a sweep's report views.

``python -m repro sweep`` and ``report`` both end here.  Each view is a
frozen dataclass with ``to_payload()``/``to_json()`` (plain, deterministically
ordered JSON, which the resume-determinism tests byte-compare) and
``table()`` (the text ``repro report`` prints):

* :func:`summarise` — a :class:`SweepSummary`, one row per (application,
  VM, strategy) cell, aggregated the way the headline experiment does:
  mean/min/max execution time across seeds, mean CoV, mean tuning
  core-hours;
* :func:`summarise_by` — an :class:`AxisSummary`, the sweep along its
  ``scenario`` or ``format`` axis, with each strategy's gap to a reference
  cell;
* :func:`summarise_failures` — a :class:`FailureSummary` of the failed and
  retried campaigns.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.campaigns.spec import vm_display_name
from repro.campaigns.store import CampaignRecord


@dataclass(frozen=True)
class SweepRow:
    """Aggregate of one (application, VM, strategy) cell of a sweep."""

    app: str
    vm: str
    strategy: str
    campaigns: int
    failures: int
    mean_time: float
    time_low: float
    time_high: float
    cov_percent: float
    core_hours: float


@dataclass(frozen=True)
class SweepSummary:
    """The whole sweep, one row per grid cell plus totals."""

    rows: List[SweepRow]
    total: int
    done: int
    failed: int

    def row(self, app: str, vm: str, strategy: str) -> SweepRow:
        for r in self.rows:
            if (r.app, r.vm, r.strategy) == (app, vm, strategy):
                return r
        raise KeyError((app, vm, strategy))

    def to_payload(self) -> dict:
        """Deterministic plain-JSON form (rows sorted by cell key)."""
        return {
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "rows": [asdict(r) for r in self.rows],
        }

    def to_json(self) -> str:
        """Canonical serialisation used by determinism checks."""
        return json.dumps(self.to_payload(), sort_keys=True)

    def table(self, *, title: str = "sweep") -> str:
        """Render the summary with the shared experiment table formatter."""
        from repro.experiments.reporting import render_table

        rows = [
            (
                r.app,
                r.vm,
                r.strategy,
                r.campaigns,
                r.failures,
                r.mean_time,
                r.cov_percent,
                r.core_hours,
            )
            for r in self.rows
        ]
        footer = (
            f"{self.done}/{self.total} campaigns done"
            + (f", {self.failed} FAILED" if self.failed else "")
        )
        return (
            render_table(
                ["app", "VM", "strategy", "n", "fail", "exec time (s)",
                 "CoV %", "core-hours"],
                rows,
                title=title,
            )
            + "\n"
            + footer
        )


def _mean_of(metric: str, done: Sequence[CampaignRecord]) -> float:
    """The mean of ``metric`` over finished records; NaN when none finished."""
    if not done:
        return float("nan")
    return float(np.mean([getattr(r, metric) for r in done]))


def summarise(records: Sequence[CampaignRecord]) -> SweepSummary:
    """Aggregate campaign records per (app, vm, strategy), sorted by key.

    Records inside a cell are sorted by campaign ID before aggregating:
    float reductions are evaluation-order sensitive in the last ulp, and a
    parallel sweep's store is written in completion order, so without the
    sort the same campaigns could summarise to different bytes.
    """
    groups: Dict[Tuple[str, str, str], List[CampaignRecord]] = {}
    for record in records:
        key = (
            record.spec.app,
            vm_display_name(record.spec.vm),
            record.spec.strategy,
        )
        groups.setdefault(key, []).append(record)

    rows: List[SweepRow] = []
    for key in sorted(groups):
        cell = sorted(groups[key], key=lambda r: r.campaign_id)
        done = [r for r in cell if r.ok]
        times = [r.mean_time for r in done]
        rows.append(
            SweepRow(
                app=key[0],
                vm=key[1],
                strategy=key[2],
                campaigns=len(cell),
                failures=len(cell) - len(done),
                mean_time=_mean_of("mean_time", done),
                time_low=float(np.min(times)) if done else float("nan"),
                time_high=float(np.max(times)) if done else float("nan"),
                cov_percent=_mean_of("cov_percent", done),
                core_hours=_mean_of("core_hours", done),
            )
        )
    n_done = sum(1 for r in records if r.ok)
    return SweepSummary(
        rows=rows,
        total=len(records),
        failed=len(records) - n_done,
        done=n_done,
    )


@dataclass(frozen=True)
class AxisRow:
    """Aggregate of one (axis value, strategy) cell of a sweep.

    ``gap_percent`` is the view's headline: the cell's mean execution time
    relative to its reference cell (see :func:`summarise_by`), averaged
    over matching cells so applications with very different absolute
    times weigh equally.  Positive means slower than the reference.
    """

    value: str
    strategy: str
    campaigns: int
    failures: int
    mean_time: float
    cov_percent: float
    core_hours: float
    gap_percent: float


class _Axis(NamedTuple):
    """How the view along one axis matches cells and names its gap.

    ``other`` is the axis a cell is matched on besides (app, VM);
    ``reference`` maps a row's (value, strategy) to its reference cell's;
    ``gap_key`` and ``gap_header`` name the gap in payloads and tables.
    """

    other: str
    reference: Callable[[str, str], Tuple[str, str]]
    gap_key: str
    gap_header: str


#: The axes a sweep is viewed along.  Along ``scenario`` a cell's reference
#: is DarwinGame under the same scenario, matched per (app, VM, format), so
#: mixed-format sweeps compare like-for-like tournament shapes; along
#: ``format`` it is the paper's ``darwin`` recipe for the same strategy,
#: matched per (app, VM, scenario).
_AXES: Dict[str, _Axis] = {
    "scenario": _Axis(
        "format", lambda value, strategy: (value, "DarwinGame"),
        "vs_darwin_percent", "vs DarwinGame %",
    ),
    "format": _Axis(
        "scenario", lambda value, strategy: ("darwin", strategy),
        "vs_default_percent", "vs darwin %",
    ),
}


@dataclass(frozen=True)
class AxisSummary:
    """The sweep viewed along one axis, ``"scenario"`` or ``"format"``."""

    axis: str
    rows: List[AxisRow]
    values: List[str]
    total: int
    done: int
    failed: int

    def row(self, value: str, strategy: str) -> AxisRow:
        for r in self.rows:
            if (r.value, r.strategy) == (value, strategy):
                return r
        raise KeyError((value, strategy))

    def to_payload(self) -> dict:
        """Deterministic plain-JSON form (rows sorted by cell key).

        Keyed by the axis: the value list is ``scenarios`` or ``formats``,
        and each row names its ``scenario`` or ``format`` and carries its
        gap as ``vs_darwin_percent`` or ``vs_default_percent``.
        """
        gap_key = _AXES[self.axis].gap_key

        def keyed(row: AxisRow) -> dict:
            payload = asdict(row)
            payload[self.axis] = payload.pop("value")
            payload[gap_key] = payload.pop("gap_percent")
            return payload

        return {
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            f"{self.axis}s": list(self.values),
            "rows": [keyed(r) for r in self.rows],
        }

    def to_json(self) -> str:
        """Canonical serialisation used by determinism checks."""
        return json.dumps(self.to_payload(), sort_keys=True)

    def table(self, *, title: Optional[str] = None) -> str:
        """Render the view with the shared table formatter (titled
        ``by <axis>`` unless ``title`` is given)."""
        from repro.experiments.reporting import render_table

        rows = [
            (
                r.value,
                r.strategy,
                r.campaigns,
                r.failures,
                r.mean_time,
                r.cov_percent,
                r.gap_percent,
                r.core_hours,
            )
            for r in self.rows
        ]
        footer = (
            f"{self.done}/{self.total} campaigns done across "
            f"{len(self.values)} {self.axis}(s)"
            + (f", {self.failed} FAILED" if self.failed else "")
        )
        return (
            render_table(
                [self.axis, "strategy", "n", "fail", "exec time (s)", "CoV %",
                 _AXES[self.axis].gap_header, "core-hours"],
                rows,
                title=f"by {self.axis}" if title is None else title,
            )
            + "\n"
            + footer
        )


def summarise_by(records: Sequence[CampaignRecord], axis: str) -> AxisSummary:
    """Aggregate campaign records per (``axis`` value, strategy).

    ``axis`` is ``"scenario"`` — the robustness view: how does each tuner
    hold up as the cloud's conditions change? — or ``"format"`` — the
    tournament-shape view: which format picks the best configurations, at
    what cost?  Each row's gap is the mean of its cells' gaps against their
    reference cells (see :data:`_AXES`); cells are matched per (app, VM,
    other axis), never across applications.  Records inside every cell are
    sorted by campaign ID before reducing, so the same campaigns summarise
    to the same bytes regardless of the store's (parallel) append order.
    """
    other, reference, _, _ = _AXES[axis]
    groups: Dict[Tuple[str, str], List[CampaignRecord]] = {}
    cells: Dict[tuple, List[CampaignRecord]] = {}
    for record in records:
        spec = record.spec
        value = getattr(spec, axis)
        groups.setdefault((value, spec.strategy), []).append(record)
        cells.setdefault(
            (value, spec.strategy, spec.app, vm_display_name(spec.vm),
             getattr(spec, other)),
            [],
        ).append(record)

    cell_means = {
        key: _mean_of(
            "mean_time",
            [r for r in sorted(members, key=lambda r: r.campaign_id) if r.ok],
        )
        for key, members in cells.items()
    }
    rows: List[AxisRow] = []
    for value, strategy in sorted(groups):
        cell = sorted(groups[(value, strategy)], key=lambda r: r.campaign_id)
        done = [r for r in cell if r.ok]
        gaps = []
        for key in sorted(cells):
            if key[:2] != (value, strategy):
                continue
            mine = cell_means[key]
            theirs = cell_means.get(
                reference(value, strategy) + key[2:], float("nan")
            )
            if np.isfinite(mine) and np.isfinite(theirs) and theirs > 0:
                gaps.append(100.0 * (mine - theirs) / theirs)
        rows.append(
            AxisRow(
                value=value,
                strategy=strategy,
                campaigns=len(cell),
                failures=len(cell) - len(done),
                mean_time=_mean_of("mean_time", done),
                cov_percent=_mean_of("cov_percent", done),
                core_hours=_mean_of("core_hours", done),
                gap_percent=float(np.mean(gaps)) if gaps else float("nan"),
            )
        )
    n_done = sum(1 for r in records if r.ok)
    return AxisSummary(
        axis=axis,
        rows=rows,
        values=sorted({value for value, _ in groups}),
        total=len(records),
        failed=len(records) - n_done,
        done=n_done,
    )


@dataclass(frozen=True)
class FailureRow:
    """One failed campaign, as the debugging view shows it.

    ``retries`` is the re-executions the dispatcher granted before giving
    up; ``quarantined`` marks campaigns that burned their whole retry
    budget (errors prefixed ``RetryExhausted:``) rather than failing once
    under ``max_retries=0``-style policies.
    """

    campaign_id: str
    app: str
    vm: str
    strategy: str
    attempts: int
    retries: int
    quarantined: bool
    error: str
    traceback: str


@dataclass(frozen=True)
class FailureSummary:
    """The sweep's failure/retry view — what went wrong and how hard.

    ``total_retries`` counts re-executions across *all* records, including
    campaigns that recovered and finished ``"done"`` — a chaos run with
    every campaign recovered shows zero failures but non-zero retries.
    """

    rows: List[FailureRow]
    total: int
    done: int
    failed: int
    retried: int
    total_retries: int

    def to_payload(self) -> dict:
        """Deterministic plain-JSON form (rows sorted by campaign ID)."""
        return {
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "retried": self.retried,
            "total_retries": self.total_retries,
            "rows": [asdict(r) for r in self.rows],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    def table(self, *, title: str = "failures") -> str:
        """Render the failure/retry view with the shared table formatter.

        Tracebacks are too wide for a table; the last stored frame of each
        is appended below it so the table stays scannable while the error
        stays debuggable (full tracebacks live in the store).
        """
        from repro.experiments.reporting import render_table

        rows = [
            (
                r.campaign_id,
                r.app,
                r.vm,
                r.strategy,
                r.attempts,
                "yes" if r.quarantined else "no",
                r.error if len(r.error) <= 72 else r.error[:69] + "...",
            )
            for r in self.rows
        ]
        footer = (
            f"{self.failed}/{self.total} campaigns failed, "
            f"{self.retried} retried ({self.total_retries} total retries)"
        )
        tails = []
        for r in self.rows:
            lines = [ln for ln in r.traceback.strip().splitlines() if ln.strip()]
            if lines:
                tails.append(f"{r.campaign_id}: {lines[-1].strip()}")
        rendered = render_table(
            ["campaign", "app", "VM", "strategy", "attempts", "quarantined",
             "error"],
            rows,
            title=title,
        )
        if tails:
            rendered += "\n" + "\n".join(tails)
        return rendered + "\n" + footer


def summarise_failures(records: Sequence[CampaignRecord]) -> FailureSummary:
    """The failure/retry view: one row per failed campaign, sorted by ID.

    The companion to :func:`summarise` for debugging a degraded sweep —
    which campaigns were quarantined, with what error, after how many
    attempts, plus sweep-wide retry counts that include campaigns that
    recovered.
    """
    from repro.errors import RetryExhausted

    prefix = f"{RetryExhausted.__name__}:"
    rows = [
        FailureRow(
            campaign_id=r.campaign_id,
            app=r.spec.app,
            vm=vm_display_name(r.spec.vm),
            strategy=r.spec.strategy,
            attempts=r.attempts,
            retries=max(0, r.attempts - 1),
            quarantined=r.error.startswith(prefix),
            error=r.error,
            traceback=r.traceback,
        )
        for r in sorted(records, key=lambda r: r.campaign_id)
        if not r.ok
    ]
    n_done = sum(1 for r in records if r.ok)
    return FailureSummary(
        rows=rows,
        total=len(records),
        done=n_done,
        failed=len(records) - n_done,
        retried=sum(1 for r in records if r.attempts > 1),
        total_retries=sum(max(0, r.attempts - 1) for r in records),
    )
