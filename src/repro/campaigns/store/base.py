"""The ``ResultStore`` protocol: one persistence contract, many backends.

Every sweep-facing consumer — :class:`repro.campaigns.runner.CampaignRunner`
(checkpoint + skip-done resume), ``repro status`` (ledger/telemetry
fusion), ``repro report`` (aggregation) — programs against the abstract
:class:`ResultStore` here, never against a concrete backend.  A backend
decides *where* grid headers and campaign records live; the contract every
backend must honour is fixed:

* **append-only, last write wins** — appending a record for an ID that is
  already stored supersedes it on read (e.g. a failed campaign retried on
  resume); nothing is ever rewritten in place.
* **keep-first grid header** — the grid a sweep was launched with is
  recorded once; later :meth:`~ResultStore.write_grid` calls on a
  non-empty store are no-ops (the resume contract is per-campaign IDs,
  not the header).
* **torn writes are tolerated** — a crash mid-append loses at most the
  entry being written; every complete entry still loads.
* **one writer, many readers** — :meth:`~ResultStore.exclusive` hands out
  the sweep-level advisory lock; plain readers are never blocked.

Reads are memoised: :meth:`~ResultStore.load` parses the underlying
storage once and caches the indexed snapshot keyed by a backend-provided
freshness token (file stats for the JSONL backend), so the former
quadratic resume/status/report pattern — ``completed_ids()`` then
``lookup()`` then ``__len__``, each a full reparse — now costs one pass
however many views are taken, while an append (ours or another
process's) still invalidates the snapshot.
"""

from __future__ import annotations

import contextlib
import os
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.campaigns.spec import CampaignGrid, CampaignSpec
from repro.campaigns.store.record import (
    FORMAT_VERSION,
    KIND_GRID,
    KIND_RECORD,
    CampaignRecord,
)
from repro.errors import ReproError

PathLike = Union[str, Path]

#: The sidecar kinds a store resolves for its consumers: the dispatcher's
#: lease journal, the telemetry event journal, and the cProfile dump
#: directory.  They live next to the store file (``sweep.jsonl.ledger``).
SIDECAR_LEDGER = "ledger"
SIDECAR_TELEMETRY = "telemetry"
SIDECAR_PROFILES = "profiles"


def grid_header_payload(grid: CampaignGrid) -> dict:
    """The keep-first header entry every backend records a sweep's grid as."""
    return {
        "kind": KIND_GRID,
        "version": FORMAT_VERSION,
        "grid": grid.to_dict(),
    }


@contextlib.contextmanager
def flocked(handle):
    """Hold an exclusive ``flock`` on an open file for one write.

    The fine-grained append lock (distinct from the sweep-level
    :class:`StoreLock`, which lives on a sidecar and is held for a whole
    sweep): concurrent writers to one file serialise their appends and
    header checks here.
    """
    if fcntl is not None:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
    try:
        yield handle
    finally:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def stat_token(*paths: Path) -> tuple:
    """A freshness token over files: changes whenever any of them does.

    Built from ``(size, mtime_ns)`` pairs — every append grows a JSONL
    file, so the token cannot miss a write even inside one mtime tick.
    """
    token = []
    for path in paths:
        try:
            stat = path.stat()
        except OSError:
            token.append((str(path), None))
        else:
            token.append((str(path), stat.st_size, stat.st_mtime_ns))
    return tuple(token)


class StoreLock:
    """Advisory exclusive lock guarding a store against concurrent sweeps.

    Two sweeps appending to the same store would interleave silently —
    each would skip-done against a snapshot the other is growing.  The lock
    turns that into a clear :class:`ReproError` up front.  It is ``flock``
    on a ``<store>.lock`` sidecar file, so it is advisory (plain readers
    like ``repro report`` are never blocked) and the kernel releases it if
    the holding process dies — a stale lock *file* on disk is harmless.
    """

    def __init__(self, store_path: PathLike):
        self.store_path = Path(store_path)
        self.path = self.store_path.with_name(self.store_path.name + ".lock")
        self._handle = None

    @property
    def held(self) -> bool:
        return self._handle is not None

    def acquire(self) -> "StoreLock":
        if self.held:
            raise ReproError(f"store lock {self.path} is already held")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(self.path, "a+", encoding="utf-8")
        if fcntl is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.seek(0)  # "a+" opens positioned at EOF
                holder = handle.read().strip() or "unknown pid"
                handle.close()
                raise ReproError(
                    f"campaign store {self.store_path} is locked by another "
                    f"running sweep ({holder}); concurrent sweeps on one "
                    f"store would corrupt it — wait for the other sweep or "
                    f"point it at a different --store"
                ) from None
        # Diagnostics only; the lock itself is the flock, not the content.
        handle.seek(0)
        handle.truncate()
        handle.write(f"pid {os.getpid()}\n")
        handle.flush()
        self._handle = handle
        return self

    def release(self) -> None:
        if self._handle is None:
            return
        if fcntl is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "StoreLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


class ResultStore(ABC):
    """Abstract persistence contract every sweep consumer programs against.

    Subclasses implement the four storage primitives (:meth:`exists`,
    :meth:`write_grid`, :meth:`append`, :meth:`_load_uncached`) plus a
    freshness token; the shared read API (:meth:`load`, :meth:`records`,
    :meth:`read_grid`, :meth:`completed_ids`, :meth:`lookup`,
    :meth:`__len__`) is derived here on top of one memoised snapshot.
    Backends with native indexes (SQLite) override the derived reads with
    direct queries.
    """

    #: Registry name of this backend (``"jsonl"``/``"sqlite"``).
    backend: str = "abstract"

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._snapshot: Optional[
            Tuple[Optional[CampaignGrid], Dict[str, CampaignRecord]]
        ] = None
        self._snapshot_token: Optional[tuple] = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self.path)!r})"

    # -- storage primitives (backend-specific) --------------------------

    @abstractmethod
    def exists(self) -> bool:
        """Whether any persisted state exists at :attr:`path`."""

    @abstractmethod
    def write_grid(self, grid: CampaignGrid) -> None:
        """Record the sweep's grid header (keep-first; see class docs)."""

    @abstractmethod
    def append(self, record: CampaignRecord) -> None:
        """Durably append one finished campaign (the checkpoint step)."""

    @abstractmethod
    def _load_uncached(
        self,
    ) -> Tuple[Optional[CampaignGrid], Dict[str, CampaignRecord]]:
        """One full pass over storage: ``(grid_or_None, records_by_id)``.

        Records are de-duplicated by campaign ID, last write winning.
        """

    @abstractmethod
    def _freshness_token(self) -> Optional[tuple]:
        """Snapshot cache key; ``None`` disables memoisation entirely."""

    # -- locking and sidecars -------------------------------------------

    def exclusive(self) -> StoreLock:
        """An (unacquired) sweep-level writer lock; use as a context manager.

        :class:`repro.campaigns.runner.CampaignRunner` holds it for the
        duration of a sweep so a second concurrent sweep on the same store
        fails fast instead of silently interleaving appends.
        """
        return StoreLock(self.path)

    def sidecar_path(self, kind: str) -> Path:
        """Where this store's ``kind`` sidecar lives (see module constants)."""
        return self.path.with_name(f"{self.path.name}.{kind}")

    # -- memoised read API ----------------------------------------------

    def invalidate(self) -> None:
        """Drop the cached snapshot (appends call this automatically)."""
        self._snapshot = None
        self._snapshot_token = None

    def _indexed(self) -> Tuple[Optional[CampaignGrid], Dict[str, CampaignRecord]]:
        """The memoised ``(grid, records_by_id)`` snapshot, refreshed on change."""
        token = self._freshness_token()
        if (
            token is None
            or self._snapshot is None
            or token != self._snapshot_token
        ):
            snapshot = self._load_uncached()
            if token is not None:
                self._snapshot = snapshot
                self._snapshot_token = token
            return snapshot
        return self._snapshot

    def load(self) -> tuple:
        """One (cached) pass over storage: ``(grid_or_None, records)``.

        Records are de-duplicated by campaign ID (last write wins — e.g. a
        failed campaign retried on resume).
        """
        grid, by_id = self._indexed()
        return grid, list(by_id.values())

    def read_grid(self) -> Optional[CampaignGrid]:
        """The grid this sweep was launched with, if one was recorded."""
        return self._indexed()[0]

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

    def close(self) -> None:
        """Release any backend handles (no-op for the plain-file backend)."""
