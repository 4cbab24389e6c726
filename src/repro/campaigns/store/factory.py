"""Backend selection (``open_store``) and cross-backend migration.

The factory is how every entry point — CLI, runner, status, report —
turns a ``--store`` path into the right :class:`~repro.campaigns.store.
base.ResultStore` without the operator naming a backend: existing stores
are sniffed from what is on disk (the SQLite magic header is a SQLite
store, anything else is JSONL), fresh paths from their suffix
(``.sqlite``/``.sqlite3``/``.db`` → SQLite, default JSONL).  An explicit
``backend=`` always wins.

``migrate_store`` copies one store's merged read view — grid header plus
last-write-wins records, attempt metadata included — into an empty store
of the other backend, so an operator can start on the zero-setup JSONL
default and move to SQLite when the sweep outgrows it (or back, to diff a
store with line tools).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Type

from repro.campaigns.store.base import PathLike, ResultStore
from repro.campaigns.store.jsonl import CampaignStore
from repro.campaigns.store.sqlite import SqliteStore
from repro.errors import ReproError

#: Registered backends, by the name ``--store-backend`` accepts.
STORE_BACKENDS: Dict[str, Type[ResultStore]] = {
    "jsonl": CampaignStore,
    "sqlite": SqliteStore,
}

BACKEND_NAMES = tuple(sorted(STORE_BACKENDS))

#: First bytes of every SQLite database file.
SQLITE_MAGIC = b"SQLite format 3\x00"

#: Fresh-path suffix convention (existing paths are sniffed by content).
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def sniff_backend(path: PathLike) -> str:
    """Which backend a store path holds (or, if fresh, implies).

    Existing files are judged by what is on disk — a file opening with the
    SQLite magic, or a line file — so stores keep working when renamed
    across suffix conventions.  Fresh paths fall back to the suffix
    convention above, defaulting to JSONL.
    """
    path = Path(path)
    if path.is_file():
        try:
            with path.open("rb") as handle:
                head = handle.read(len(SQLITE_MAGIC))
        except OSError:
            return "jsonl"
        return "sqlite" if head == SQLITE_MAGIC else "jsonl"
    if path.suffix.lower() in SQLITE_SUFFIXES:
        return "sqlite"
    return "jsonl"


def open_store(path: PathLike, backend: Optional[str] = None) -> ResultStore:
    """Open (or prepare to create) the result store at ``path``.

    ``backend`` forces one of :data:`BACKEND_NAMES`; ``None`` sniffs (see
    :func:`sniff_backend`).  A directory is refused with the one-line
    command that converts a directory store of the removed sharded backend
    into a JSONL store.
    """
    path = Path(path)
    if path.is_dir():
        target = path.parent / f"{path.stem or 'store'}.jsonl"
        raise ReproError(
            f"{path} is a directory, not a store file; the sharded store "
            f"backend was removed — convert it to a JSONL store with: "
            f"awk 1 {path}/grid.jsonl {path}/shard-*.jsonl > {target}"
        )
    name = backend if backend is not None else sniff_backend(path)
    cls = STORE_BACKENDS.get(name)
    if cls is None:
        raise ReproError(
            f"unknown store backend {name!r}; registered: {list(BACKEND_NAMES)}"
        )
    return cls(path)


def migrate_store(source: ResultStore, destination: ResultStore) -> int:
    """Copy ``source``'s merged read view into the empty ``destination``.

    Lossless for everything live: the grid header and every
    last-write-wins record — attempt metadata included — round-trip
    byte-identically (superseded duplicate entries, which no reader can
    observe, are compacted away).  Refuses a destination that already
    holds a grid or records: merging two sweeps' stores silently would
    make their provenance unrecoverable.  Returns the number of records
    copied.
    """
    if not source.exists():
        raise ReproError(f"no store to migrate at {source.path}")
    if source.path.resolve() == destination.path.resolve():
        raise ReproError(
            f"source and destination are the same store ({source.path})"
        )
    grid, records = source.load()
    if destination.exists() and (
        destination.read_grid() is not None or len(destination) > 0
    ):
        raise ReproError(
            f"destination store {destination.path} is not empty; migrate "
            f"into a fresh path (merging stores would lose provenance)"
        )
    with destination.exclusive():
        if grid is not None:
            destination.write_grid(grid)
        for record in records:
            destination.append(record)
    return len(records)
