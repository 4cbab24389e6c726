"""The campaign store: one append-only JSONL file per sweep.

Each completed campaign is appended as one JSON line the moment it
finishes, so an interrupted sweep loses at most the campaigns that were in
flight.  The file holds an optional ``kind="campaign_grid"`` header line,
then ``kind="campaign_record"`` lines.  Every sweep-facing consumer —
:class:`repro.campaigns.runner.CampaignRunner` (checkpoint + skip-done
resume), ``repro status`` (ledger/telemetry fusion), ``repro report``
(aggregation) — reads and writes through :class:`CampaignStore`, which
keeps this contract:

* **append-only, last write wins** — appending a record for an ID that is
  already stored supersedes it on read (e.g. a failed campaign retried on
  resume); nothing is ever rewritten in place.
* **keep-first grid header** — the grid a sweep was launched with is
  recorded once; later :meth:`~CampaignStore.write_grid` calls on a
  non-empty store are no-ops (the resume contract is per-campaign IDs,
  not the header).
* **torn writes are tolerated** — a crash mid-append loses at most the
  line being written; every complete line still loads.
* **one writer, many readers** — :meth:`~CampaignStore.exclusive` hands
  out the sweep-level advisory lock; plain readers are never blocked.

Reads are memoised: :meth:`~CampaignStore.load` parses the file once and
caches the indexed snapshot keyed by the file's size and mtime, so
resume/status/report — ``completed_ids()`` then ``lookup()`` then
``__len__`` — cost one pass however many views are taken, while an append
(ours or another process's) still invalidates the snapshot.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.campaigns.spec import CampaignGrid, CampaignSpec
from repro.campaigns.store.base import PathLike, StoreLock, flocked
from repro.campaigns.store.record import (
    FORMAT_VERSION,
    KIND_GRID,
    KIND_RECORD,
    CampaignRecord,
)
from repro.telemetry.events import iter_jsonl_payloads


class CampaignStore:
    """Append-only single-file JSONL store of one sweep's campaigns."""

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._snapshot: Optional[
            Tuple[Optional[CampaignGrid], Dict[str, CampaignRecord]]
        ] = None
        self._snapshot_token: Optional[tuple] = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self.path)!r})"

    def exists(self) -> bool:
        """Whether the store file exists at :attr:`path`."""
        return self.path.exists()

    # -- locking and sidecars -------------------------------------------

    def exclusive(self) -> StoreLock:
        """An (unacquired) sweep-level writer lock; use as a context manager.

        :class:`repro.campaigns.runner.CampaignRunner` holds it for the
        duration of a sweep so a second concurrent sweep on the same store
        fails fast instead of silently interleaving appends.
        """
        return StoreLock(self.path)

    def sidecar_path(self, kind: str) -> Path:
        """Where this store's ``kind`` sidecar lives (see ``SIDECAR_*``)."""
        return self.path.with_name(f"{self.path.name}.{kind}")

    # -- writing --------------------------------------------------------

    def write_grid(self, grid: CampaignGrid) -> None:
        """Record the sweep's grid as the store's header line.

        Only meaningful on a fresh store; an existing store keeps its
        original header (the resume contract is per-campaign IDs, not the
        header, so appending with a different grid is allowed — `resume`
        simply re-enumerates the original one).  The emptiness check and
        the header write happen under one append lock on the store file,
        so two near-simultaneous sweep starts cannot both see an empty
        store and write duplicate headers.
        """
        header = {"kind": KIND_GRID, "version": FORMAT_VERSION, "grid": grid.to_dict()}
        line = json.dumps(header, sort_keys=True)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle, flocked(handle):
            if os.fstat(handle.fileno()).st_size > 0:
                return
            handle.write(line + "\n")
            handle.flush()
        self.invalidate()

    def append(self, record: CampaignRecord) -> None:
        """Durably append one finished campaign (the checkpoint step)."""
        self._append_line(record.to_payload())

    def _append_line(self, payload: dict) -> None:
        # Payloads are already plain JSON (to_payload / grid asdict).
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(payload, sort_keys=True)
        with self.path.open("a", encoding="utf-8") as handle, flocked(handle):
            handle.write(line + "\n")
            handle.flush()
        self.invalidate()

    # -- memoised reads -------------------------------------------------

    def invalidate(self) -> None:
        """Drop the cached snapshot (appends call this automatically)."""
        self._snapshot = None
        self._snapshot_token = None

    def _freshness(self) -> tuple:
        """Snapshot cache key: the file's ``(size, mtime_ns)``.

        Every append grows the file, so the key cannot miss a write even
        inside one mtime tick.
        """
        try:
            stat = self.path.stat()
        except OSError:
            return (None,)
        return (stat.st_size, stat.st_mtime_ns)

    def _load_uncached(
        self,
    ) -> Tuple[Optional[CampaignGrid], Dict[str, CampaignRecord]]:
        """One full pass over the file: ``(grid_or_None, records_by_id)``.

        Records are de-duplicated by campaign ID, last write winning.
        """
        grid: Optional[CampaignGrid] = None
        by_id: Dict[str, CampaignRecord] = {}
        for payload in iter_jsonl_payloads(self.path):
            kind = payload.get("kind")
            if kind == KIND_GRID and grid is None:
                grid = CampaignGrid.from_dict(payload["grid"])
            elif kind == KIND_RECORD:
                record = CampaignRecord.from_payload(payload)
                by_id[record.campaign_id] = record
        return grid, by_id

    def _indexed(self) -> Tuple[Optional[CampaignGrid], Dict[str, CampaignRecord]]:
        """The memoised ``(grid, records_by_id)`` snapshot, refreshed on change."""
        token = self._freshness()
        if self._snapshot is None or token != self._snapshot_token:
            self._snapshot = self._load_uncached()
            self._snapshot_token = token
        return self._snapshot

    def load(self) -> tuple:
        """One (cached) pass over the file: ``(grid_or_None, records)``.

        Records are de-duplicated by campaign ID (last write wins — e.g. a
        failed campaign retried on resume).
        """
        grid, by_id = self._indexed()
        return grid, list(by_id.values())

    def read_grid(self) -> Optional[CampaignGrid]:
        """The grid this sweep was launched with, if one was recorded.

        Served from the memoised snapshot when one is warm; on a cold
        store it stops at the first header line instead of reconstructing
        the (possibly thousands of) campaign records behind it.
        """
        if self._snapshot is not None:
            return self._indexed()[0]
        for payload in iter_jsonl_payloads(self.path):
            if payload.get("kind") == KIND_GRID:
                return CampaignGrid.from_dict(payload["grid"])
        return None

    def records(self) -> List[CampaignRecord]:
        """Every stored campaign record, de-duplicated (last write wins)."""
        return self.load()[1]

    def completed_ids(self) -> Set[str]:
        """IDs a resumed sweep may skip: campaigns stored as done.

        Failed campaigns are *not* listed — resume retries them.
        """
        _, by_id = self._indexed()
        return {cid for cid, record in by_id.items() if record.ok}

    def lookup(self, specs: Iterable[CampaignSpec]) -> Dict[str, CampaignRecord]:
        """Stored records for the given specs, keyed by campaign ID."""
        _, by_id = self._indexed()
        wanted = {spec.campaign_id for spec in specs}
        return {cid: by_id[cid] for cid in wanted if cid in by_id}

    def __len__(self) -> int:
        return len(self._indexed()[1])
