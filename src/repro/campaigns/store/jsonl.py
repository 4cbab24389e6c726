"""The single-file JSONL backend — the default, byte-compatible store.

Each completed campaign is appended as one JSON line the moment it
finishes, so an interrupted sweep loses at most the campaigns that were in
flight.  The on-disk format is unchanged from the pre-backend
``CampaignStore``: an optional ``kind="campaign_grid"`` header line, then
``kind="campaign_record"`` lines — every store written before the backend
split loads unmodified, and every store written here is readable by the
old code.

The file is the simplest possible store and the right default for
single-host sweeps up to a few thousand campaigns; beyond that the full
reparse on first read starts to cost, which is what the SQLite backend
exists for (see :mod:`repro.campaigns.store.factory`).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Tuple

from repro.campaigns.spec import CampaignGrid
from repro.campaigns.store.base import (
    PathLike,
    ResultStore,
    flocked,
    grid_header_payload,
    stat_token,
)
from repro.campaigns.store.record import KIND_GRID, KIND_RECORD, CampaignRecord
from repro.telemetry.events import iter_jsonl_payloads


class CampaignStore(ResultStore):
    """Append-only single-file JSONL store (the default backend)."""

    backend = "jsonl"

    def __init__(self, path: PathLike):
        super().__init__(path)

    def exists(self) -> bool:
        return self.path.exists()

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
        line = json.dumps(grid_header_payload(grid), sort_keys=True)
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

    # -- reading --------------------------------------------------------

    def _freshness_token(self) -> Optional[tuple]:
        return stat_token(self.path)

    def _load_uncached(
        self,
    ) -> Tuple[Optional[CampaignGrid], Dict[str, CampaignRecord]]:
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

    def read_grid(self) -> Optional[CampaignGrid]:
        """The grid this sweep was launched with, if one was recorded.

        Served from the memoised snapshot when one is warm; on a cold
        store it stops at the first header line instead of reconstructing
        the (possibly thousands of) campaign records behind it.
        """
        if self._snapshot is not None:
            return super().read_grid()
        for payload in iter_jsonl_payloads(self.path):
            if payload.get("kind") == KIND_GRID:
                return CampaignGrid.from_dict(payload["grid"])
        return None
