"""Live sweep status: fuse store + ledger + telemetry into one view.

``repro status <store>`` answers the question the launch line leaves open
for hours: *how is my sweep doing?* — without touching the sweep itself.
Everything here is read-only over the three journals a sweep maintains:

* the **store** (``<store>``) — authoritative terminal outcomes;
* the **ledger** (``<store>.ledger``) — lease states: what is running
  right now, what was requeued, what was quarantined, and when each
  campaign finished (every sweep journals one, serial or parallel);
* the **telemetry sidecar** (``<store>.telemetry``) — the event stream,
  used here for its event count and the age of its last event.

The ETA is EWMA-based: inter-completion intervals are smoothed with an
exponentially weighted moving average, so the estimate tracks the fleet's
*current* pace (late-sweep stragglers, backoff storms) instead of the
whole-run mean.  All readers are truncation-tolerant, so ``status`` is
safe to run — and re-run, via ``--watch`` — while the sweep is mid-write
in another process.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, TextIO, Union

from repro.errors import ReproError
from repro.telemetry.events import iter_jsonl_payloads

PathLike = Union[str, Path]

#: EWMA smoothing factor for inter-completion intervals; 0.3 weights the
#: last ~6 completions, enough to track pace changes without jitter.
EWMA_ALPHA = 0.3

#: Leases silent longer than this are reported as stalled rather than
#: running — a crashed sweep should not claim live workers forever.
STALE_LEASE_SECONDS = 120.0


def ewma_interval(walls: List[float], alpha: float = EWMA_ALPHA) -> Optional[float]:
    """EWMA of the gaps between successive completion timestamps.

    ``None`` until two completions exist — no pace, no estimate.  Zero
    gaps (two campaigns finishing inside one wall tick) are folded in as
    observed; the EWMA keeps the result positive as long as any gap was.
    """
    if len(walls) < 2:
        return None
    ordered = sorted(walls)
    estimate: Optional[float] = None
    for earlier, later in zip(ordered, ordered[1:]):
        gap = max(0.0, later - earlier)
        estimate = gap if estimate is None else (
            alpha * gap + (1.0 - alpha) * estimate
        )
    return estimate


@dataclass(frozen=True)
class StatusSnapshot:
    """One moment of a sweep, fused from its three journals."""

    store: str
    total: int
    done: int
    failed: int
    running: int
    queued: int
    stalled: int
    retries: int
    workers: int
    campaigns_per_minute: float
    eta_seconds: Optional[float]
    last_event_age: Optional[float]
    telemetry_events: int
    running_ids: List[str] = field(default_factory=list)

    @property
    def finished(self) -> int:
        return self.done + self.failed

    @property
    def complete(self) -> bool:
        return self.total > 0 and self.finished >= self.total

    def to_payload(self) -> dict:
        """Plain-JSON form (``repro status --json``)."""
        return {
            "store": self.store,
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "running": self.running,
            "queued": self.queued,
            "stalled": self.stalled,
            "retries": self.retries,
            "workers": self.workers,
            "campaigns_per_minute": round(self.campaigns_per_minute, 2),
            "eta_seconds": (
                round(self.eta_seconds, 1)
                if self.eta_seconds is not None else None
            ),
            "last_event_age": (
                round(self.last_event_age, 1)
                if self.last_event_age is not None else None
            ),
            "telemetry_events": self.telemetry_events,
        }


def snapshot(store_path: PathLike, *, now: Optional[float] = None) -> StatusSnapshot:
    """Fuse a store and its sidecars into one :class:`StatusSnapshot`.

    Works on any store — mid-sweep (live counts and an ETA), finished
    (everything done, ETA gone), quarantine-heavy (failures front and
    centre), or telemetry-less (ledger and store still carry the counts).
    """
    from repro.campaigns.dispatch import TaskLedger
    from repro.campaigns.store import (
        SIDECAR_LEDGER,
        SIDECAR_TELEMETRY,
        open_store,
    )

    now = time.time() if now is None else now
    store = open_store(store_path)
    grid, records = store.load()

    done_ids = {r.campaign_id for r in records if r.ok}
    failed_ids = {r.campaign_id for r in records if not r.ok}
    total = grid.size if grid is not None else len(records)
    retries = sum(max(0, r.attempts - 1) for r in records)

    # Replay the lease journal: the last event per campaign is its state.
    lease_events = TaskLedger.read_events(store.sidecar_path(SIDECAR_LEDGER))
    last_lease: Dict[str, dict] = {}
    completion_walls: List[float] = []
    workers_running: Dict[int, str] = {}
    last_wall: Optional[float] = None
    for event in lease_events:
        campaign = str(event.get("id", ""))
        if campaign:
            last_lease[campaign] = event
        wall = event.get("wall")
        if isinstance(wall, (int, float)):
            last_wall = wall if last_wall is None else max(last_wall, wall)
            if event.get("event") in ("completed", "quarantined"):
                completion_walls.append(float(wall))
    # Ledger retries (attempt > 1 on any event) cover campaigns that are
    # still mid-retry and therefore have no stored record yet.
    ledger_retries = sum(
        max(0, int(e.get("attempt") or 1) - 1)
        for e in last_lease.values()
    )
    retries = max(retries, ledger_retries)

    running_ids: List[str] = []
    stalled = 0
    for campaign, event in last_lease.items():
        if campaign in done_ids or campaign in failed_ids:
            continue
        if event.get("status") != "leased":
            continue
        wall = event.get("wall")
        if isinstance(wall, (int, float)) and now - wall > STALE_LEASE_SECONDS:
            stalled += 1
            continue
        running_ids.append(campaign)
        worker = event.get("worker")
        if worker is not None:
            workers_running[int(worker)] = campaign

    telemetry_events = 0
    for payload in iter_jsonl_payloads(store.sidecar_path(SIDECAR_TELEMETRY)):
        if payload.get("kind") != "telemetry":
            continue
        telemetry_events += 1
        wall = payload.get("wall")
        if isinstance(wall, (int, float)):
            last_wall = wall if last_wall is None else max(last_wall, wall)

    done = len(done_ids)
    failed = len(failed_ids)
    running = len(running_ids)
    queued = max(0, total - done - failed - running - stalled)

    interval = ewma_interval(completion_walls)
    remaining = queued + running + stalled
    if interval is not None and interval > 0:
        rate = 60.0 / interval
        eta = remaining * interval if remaining else None
    else:
        rate = 0.0
        eta = None

    return StatusSnapshot(
        store=str(store.path),
        total=total,
        done=done,
        failed=failed,
        running=running,
        queued=queued,
        stalled=stalled,
        retries=retries,
        workers=len(workers_running),
        campaigns_per_minute=rate,
        eta_seconds=eta,
        last_event_age=(now - last_wall) if last_wall is not None else None,
        telemetry_events=telemetry_events,
        running_ids=sorted(running_ids),
    )


# -- rendering ----------------------------------------------------------


def _bar(fraction: float, width: int = 32) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def _duration(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def render_status(snap: StatusSnapshot) -> str:
    """The snapshot as the multi-line block ``repro status`` prints."""
    fraction = snap.finished / snap.total if snap.total else 0.0
    lines = [
        f"sweep {snap.store} — {snap.done}/{snap.total} done, "
        f"{snap.failed} failed, {snap.running} running, "
        f"{snap.queued} queued"
        + (f", {snap.stalled} stalled" if snap.stalled else ""),
        f"[{_bar(fraction)}] {100.0 * fraction:5.1f}%",
    ]
    pace = (
        f"throughput {snap.campaigns_per_minute:.1f} campaigns/min (EWMA)"
        if snap.campaigns_per_minute > 0
        else "throughput n/a (fewer than two completions on record)"
    )
    if snap.complete:
        lines.append(pace + "   finished")
    elif snap.eta_seconds is not None:
        lines.append(pace + f"   ETA {_duration(snap.eta_seconds)}")
    else:
        lines.append(pace)
    detail = f"retries {snap.retries}, workers {snap.workers}"
    if snap.last_event_age is not None:
        detail += f", last event {_duration(snap.last_event_age)} ago"
    detail += f", telemetry events {snap.telemetry_events}"
    lines.append(detail)
    if snap.running_ids:
        shown = ", ".join(snap.running_ids[:4])
        if len(snap.running_ids) > 4:
            shown += f", +{len(snap.running_ids) - 4} more"
        lines.append(f"running: {shown}")
    return "\n".join(lines)


def watch(
    store_path: PathLike,
    *,
    interval: float = 2.0,
    iterations: Optional[int] = None,
    stream: Optional[TextIO] = None,
) -> StatusSnapshot:
    """Render the status block in place until the sweep finishes.

    Refreshes every ``interval`` seconds, rewriting the block with ANSI
    cursor movement when the stream is a TTY (plain re-prints otherwise,
    so logs stay readable).  ``iterations`` bounds the loop for tests; the
    loop also ends on its own once the sweep is complete.  Returns the
    last snapshot taken.  ``interval`` must be finite and above 0: a zero
    period would re-read the store in a busy loop, and ``time.sleep``
    cannot wait an infinite one.
    """
    if not (interval > 0 and math.isfinite(interval)):
        raise ReproError(
            f"--watch interval must be a finite number above 0 seconds, "
            f"got {interval} (fix --interval)"
        )
    stream = sys.stdout if stream is None else stream
    is_tty = bool(getattr(stream, "isatty", lambda: False)())
    previous_lines = 0
    count = 0
    while True:
        snap = snapshot(store_path)
        block = render_status(snap)
        if is_tty and previous_lines:
            # Move to the top of the previous block and clear downwards.
            stream.write(f"\x1b[{previous_lines}F\x1b[J")
        stream.write(block + "\n")
        stream.flush()
        previous_lines = block.count("\n") + 1
        count += 1
        if snap.complete:
            return snap
        if iterations is not None and count >= iterations:
            return snap
        time.sleep(interval)


# -- in-process live progress (sweep --progress) ------------------------


class LiveProgress:
    """A one-line, in-place progress meter for a running sweep.

    Plugs into :class:`repro.campaigns.runner.CampaignRunner`'s progress
    callback: each completed campaign updates an EWMA of inter-completion
    intervals and rewrites a single ``\\r`` status line — done/failed
    counts, throughput, ETA — instead of scrolling one line per campaign.
    """

    def __init__(self, stream: Optional[TextIO] = None):
        self.stream = sys.stdout if stream is None else stream
        self.failed = 0
        self._last_finish: Optional[float] = None
        self._interval: Optional[float] = None

    def __call__(self, finished: int, total: int, record) -> None:
        now = time.perf_counter()
        if self._last_finish is not None:
            gap = max(0.0, now - self._last_finish)
            self._interval = gap if self._interval is None else (
                EWMA_ALPHA * gap + (1.0 - EWMA_ALPHA) * self._interval
            )
        self._last_finish = now
        if not record.ok:
            self.failed += 1
        remaining = max(0, total - finished)
        parts = [
            f"[{_bar(finished / total if total else 0.0, 24)}]",
            f"{finished}/{total}",
        ]
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self._interval and self._interval > 0:
            parts.append(f"{60.0 / self._interval:.1f}/min")
            if remaining:
                parts.append(f"ETA {_duration(remaining * self._interval)}")
        line = " ".join(parts)
        # Pad over any longer previous line before the carriage return.
        self.stream.write("\r" + line.ljust(78))
        self.stream.flush()

    def close(self) -> None:
        """Finish the in-place line so following output starts clean."""
        self.stream.write("\n")
        self.stream.flush()


# -- sidecar replay (the convergence check) -----------------------------


def sidecar_counts(telemetry_path: PathLike) -> dict:
    """Replay a telemetry sidecar into terminal campaign counts.

    The acceptance check for the observability layer: the sidecar's
    ``campaign.done`` / ``campaign.failed`` events — last write per
    campaign wins, exactly like the store — must reproduce the same
    done/failed/retry totals as ``repro report --failures`` computes from
    the records themselves.
    """
    last: Dict[str, dict] = {}
    for payload in iter_jsonl_payloads(telemetry_path):
        if payload.get("kind") != "telemetry":
            continue
        name = payload.get("name")
        if name not in ("campaign.done", "campaign.failed"):
            continue
        campaign = payload.get("campaign")
        if campaign:
            last[str(campaign)] = payload
    done = sum(1 for p in last.values() if p["name"] == "campaign.done")
    attempts = {
        campaign: int(p.get("attempt") or 1) for campaign, p in last.items()
    }
    return {
        "done": done,
        "failed": len(last) - done,
        "retried": sum(1 for a in attempts.values() if a > 1),
        "total_retries": sum(max(0, a - 1) for a in attempts.values()),
    }
