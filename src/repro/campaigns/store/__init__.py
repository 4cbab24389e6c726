"""The on-disk store of campaign outcomes (the sweep checkpoint).

A sweep over thousands of campaigns is long-running; the store makes it
*restartable*.  Each completed campaign is appended the moment it
finishes, so an interrupted sweep loses at most the campaigns that were
in flight.  On resume, :class:`repro.campaigns.runner.CampaignRunner`
skips every campaign ID already recorded as done and re-runs only the
rest; reports aggregate over everything stored.

The store is one append-only JSONL file, :class:`CampaignStore`
(:mod:`~repro.campaigns.store.jsonl`): it tolerates torn writes, keeps
the first grid header, resolves duplicate campaign IDs last-write-wins
and memoises its parse until the file changes.  :func:`open_store` is
how entry points open one; it refuses the layouts of removed backends
(a sharded directory, a SQLite database) with the command that converts
them.
"""

from repro.campaigns.store.base import (
    PathLike,
    SIDECAR_LEDGER,
    SIDECAR_PROFILES,
    SIDECAR_TELEMETRY,
    StoreLock,
)
from repro.campaigns.store.factory import open_store
from repro.campaigns.store.jsonl import CampaignStore
from repro.campaigns.store.record import (
    FORMAT_VERSION,
    STATUS_DONE,
    STATUS_FAILED,
    CampaignRecord,
)

__all__ = [
    "CampaignRecord",
    "CampaignStore",
    "FORMAT_VERSION",
    "PathLike",
    "SIDECAR_LEDGER",
    "SIDECAR_PROFILES",
    "SIDECAR_TELEMETRY",
    "STATUS_DONE",
    "STATUS_FAILED",
    "StoreLock",
    "open_store",
]
