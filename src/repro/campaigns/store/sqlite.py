"""The SQLite backend — indexed reads for stores too big to reparse.

One table keyed by campaign ID turns the JSONL backend's full-file parse
into point and index lookups: ``completed_ids()`` is an indexed scan that
never touches a payload, ``lookup()`` is a keyed select, ``len()`` is
``COUNT(*)``.  The contract is identical to the line-oriented backend —
append-only with last-write-wins per ID (an upsert), a keep-first grid
header (an ``INSERT OR IGNORE`` row), crash-tolerant appends (a torn
transaction rolls back instead of leaving a torn line) — and WAL journal
mode lets ``repro status``/``report`` read concurrently while a sweep
writes.

The payloads stored are byte-identical JSON to what the JSONL backend
writes per line, so ``repro store migrate`` between the two backends is a
plain copy.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.campaigns.spec import CampaignGrid, CampaignSpec
from repro.campaigns.store.base import PathLike, ResultStore, grid_header_payload
from repro.campaigns.store.record import (
    KIND_GRID,
    STATUS_DONE,
    CampaignRecord,
)
from repro.errors import ReproError

#: Seconds a writer waits on SQLite's own file lock before erroring; the
#: sweep-level StoreLock means real contention is brief (status readers in
#: WAL mode never block writers at all).
_BUSY_TIMEOUT = 30.0

#: Upper bound on SQL variables per statement (SQLite's historical limit
#: is 999); keyed lookups chunk to stay under it.
_MAX_VARS = 500

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaign_records (
    campaign_id TEXT PRIMARY KEY,
    status      TEXT NOT NULL,
    payload     TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS campaign_records_status
    ON campaign_records(status);
"""


class SqliteStore(ResultStore):
    """Single-table SQLite store (``--store-backend sqlite``)."""

    backend = "sqlite"

    def __init__(self, path: PathLike):
        super().__init__(path)
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None

    def exists(self) -> bool:
        return self.path.exists()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
            self._conn_pid = None

    def _connect(self) -> sqlite3.Connection:
        """The store's connection, re-opened after a fork.

        Connections must not cross ``fork()`` (SQLite file locks are
        per-process state), so the cache is keyed by PID; in practice only
        the sweep parent ever writes.
        """
        if self._conn is not None and self._conn_pid == os.getpid():
            return self._conn
        self.close()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            conn = sqlite3.connect(str(self.path), timeout=_BUSY_TIMEOUT)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
        except sqlite3.DatabaseError as exc:
            raise ReproError(
                f"{self.path} is not a usable SQLite campaign store: {exc}"
            ) from exc
        self._conn = conn
        self._conn_pid = os.getpid()
        return conn

    # -- writing --------------------------------------------------------

    def write_grid(self, grid: CampaignGrid) -> None:
        """Record the grid header, keep-first.

        ``INSERT OR IGNORE`` on the meta table's primary key is the
        race-free form of "write only if absent": two racing sweep starts
        cannot both insert, whatever their interleaving.
        """
        conn = self._connect()
        value = json.dumps(grid_header_payload(grid), sort_keys=True)
        with conn:
            conn.execute(
                "INSERT OR IGNORE INTO store_meta(key, value) VALUES (?, ?)",
                (KIND_GRID, value),
            )

    def append(self, record: CampaignRecord) -> None:
        """Upsert one finished campaign (last write per ID wins on read)."""
        conn = self._connect()
        payload = record.to_payload()
        with conn:
            conn.execute(
                "INSERT INTO campaign_records(campaign_id, status, payload) "
                "VALUES (?, ?, ?) "
                "ON CONFLICT(campaign_id) DO UPDATE SET "
                "status = excluded.status, payload = excluded.payload",
                (
                    record.campaign_id,
                    record.status,
                    json.dumps(payload, sort_keys=True),
                ),
            )

    # -- reading --------------------------------------------------------

    def _freshness_token(self) -> Optional[tuple]:
        # Reads are direct indexed queries; memoising parsed snapshots on
        # top of them would only add a staleness window.
        return None

    def _load_uncached(
        self,
    ) -> Tuple[Optional[CampaignGrid], Dict[str, CampaignRecord]]:
        if not self.exists():
            return None, {}
        conn = self._connect()
        by_id: Dict[str, CampaignRecord] = {}
        # rowid order = first-insert order per ID (an upsert keeps the
        # original rowid), matching the JSONL backends' dict order.
        for (payload,) in conn.execute(
            "SELECT payload FROM campaign_records ORDER BY rowid"
        ):
            record = CampaignRecord.from_payload(json.loads(payload))
            by_id[record.campaign_id] = record
        return self._grid_from_meta(conn), by_id

    def _grid_from_meta(self, conn: sqlite3.Connection) -> Optional[CampaignGrid]:
        row = conn.execute(
            "SELECT value FROM store_meta WHERE key = ?", (KIND_GRID,)
        ).fetchone()
        if row is None:
            return None
        return CampaignGrid.from_dict(json.loads(row[0])["grid"])

    def read_grid(self) -> Optional[CampaignGrid]:
        if not self.exists():
            return None
        return self._grid_from_meta(self._connect())

    def completed_ids(self) -> Set[str]:
        """Indexed: an ID-only scan of the done rows, no payload parsing."""
        if not self.exists():
            return set()
        conn = self._connect()
        return {
            campaign_id
            for (campaign_id,) in conn.execute(
                "SELECT campaign_id FROM campaign_records WHERE status = ?",
                (STATUS_DONE,),
            )
        }

    def lookup(self, specs: Iterable[CampaignSpec]) -> Dict[str, CampaignRecord]:
        """Keyed select for exactly the requested IDs, chunked."""
        if not self.exists():
            return {}
        conn = self._connect()
        wanted: List[str] = sorted({spec.campaign_id for spec in specs})
        found: Dict[str, CampaignRecord] = {}
        for start in range(0, len(wanted), _MAX_VARS):
            chunk = wanted[start : start + _MAX_VARS]
            marks = ",".join("?" * len(chunk))
            for (payload,) in conn.execute(
                f"SELECT payload FROM campaign_records "
                f"WHERE campaign_id IN ({marks})",
                chunk,
            ):
                record = CampaignRecord.from_payload(json.loads(payload))
                found[record.campaign_id] = record
        return found

    def __len__(self) -> int:
        if not self.exists():
            return 0
        conn = self._connect()
        return int(conn.execute("SELECT COUNT(*) FROM campaign_records").fetchone()[0])
