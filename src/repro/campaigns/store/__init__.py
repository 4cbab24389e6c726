"""Pluggable on-disk stores of campaign outcomes (the sweep checkpoint).

A sweep over thousands of campaigns is long-running; the store makes it
*restartable*.  Each completed campaign is appended the moment it
finishes, so an interrupted sweep loses at most the campaigns that were
in flight.  On resume, :class:`repro.campaigns.runner.CampaignRunner`
skips every campaign ID already recorded as done and re-runs only the
rest; reports aggregate over everything stored.

Persistence is a *backend* behind one :class:`ResultStore` protocol
(:mod:`~repro.campaigns.store.base`); two ship built in:

* :class:`CampaignStore` (``jsonl``) — one append-only JSONL file, the
  zero-setup default; byte-compatible with every store written before
  backends existed.
* :class:`SqliteStore` (``sqlite``) — one indexed table in WAL mode;
  for stores big enough that reparsing JSONL on every
  resume/status/report hurts.

:func:`open_store` picks the backend from what is on disk (or, for fresh
paths, the suffix); :func:`migrate_store` moves a store between backends
losslessly.  Both backends persist identical JSON payloads, tolerate torn
writes, keep the first grid header, and resolve duplicate campaign IDs
last-write-wins — the cross-backend contract suite in
``tests/test_store_backends.py`` holds them to it.
"""

from repro.campaigns.store.base import (
    PathLike,
    ResultStore,
    SIDECAR_LEDGER,
    SIDECAR_PROFILES,
    SIDECAR_TELEMETRY,
    StoreLock,
)
from repro.campaigns.store.factory import (
    BACKEND_NAMES,
    STORE_BACKENDS,
    migrate_store,
    open_store,
    sniff_backend,
)
from repro.campaigns.store.jsonl import CampaignStore
from repro.campaigns.store.record import (
    FORMAT_VERSION,
    STATUS_DONE,
    STATUS_FAILED,
    CampaignRecord,
)
from repro.campaigns.store.sqlite import SqliteStore

__all__ = [
    "BACKEND_NAMES",
    "CampaignRecord",
    "CampaignStore",
    "FORMAT_VERSION",
    "PathLike",
    "ResultStore",
    "SIDECAR_LEDGER",
    "SIDECAR_PROFILES",
    "SIDECAR_TELEMETRY",
    "STATUS_DONE",
    "STATUS_FAILED",
    "STORE_BACKENDS",
    "SqliteStore",
    "StoreLock",
    "migrate_store",
    "open_store",
    "sniff_backend",
]
