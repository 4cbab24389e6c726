"""``open_store``: turn a ``--store`` path into a :class:`CampaignStore`.

Every entry point — the CLI, ``repro status``, the API facade and the
service — opens stores here, so the layouts this version cannot read are
refused in one place, each with one :class:`~repro.errors.ReproError`
line naming the command that converts it into a JSONL store: a directory
(the former sharded layout) and a SQLite database (the former SQLite
backend).  A fresh path or an empty file, whatever its suffix, is a new
JSONL store; any other existing file must already look like one, or it is
refused rather than appended to.
"""

from __future__ import annotations

import json
import shlex
import sys
from pathlib import Path

from repro.campaigns.store.base import PathLike
from repro.campaigns.store.jsonl import CampaignStore
from repro.campaigns.store.record import KIND_GRID, KIND_RECORD
from repro.errors import ReproError

#: First bytes of every SQLite database file.
SQLITE_MAGIC = b"SQLite format 3\x00"

#: Prints a former SQLite store as the JSONL store it mirrors: the grid
#: header row, then every record payload in first-insert order.
_SQLITE_EXPORT = (
    'import sys, sqlite3; db = sqlite3.connect(sys.argv[1]); '
    'rows = db.execute("SELECT value FROM store_meta WHERE key = ?", '
    '("campaign_grid",)).fetchall() + db.execute("SELECT payload FROM '
    'campaign_records ORDER BY rowid").fetchall(); '
    'sys.stdout.writelines(row[0] + "\\n" for row in rows)'
)


def _holds_sqlite(path: Path) -> bool:
    """Whether ``path`` is a file that opens with the SQLite magic."""
    if not path.is_file():
        return False
    try:
        with path.open("rb") as handle:
            return handle.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC
    except OSError:
        return False


def _holds_store(path: Path) -> bool:
    """Whether an existing file reads as a campaign store.

    True for an empty file, for a first line that is a JSON object whose
    ``kind`` is a store line kind, and for a store holding only a torn
    first write (no newline yet, starting ``{"``).
    """
    try:
        with path.open("rb") as handle:
            first = handle.readline()
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc.strerror}") from None
    if not first.endswith(b"\n"):
        return first == b"" or first.startswith(b'{"')
    try:
        payload = json.loads(first)
    except (ValueError, RecursionError):  # also UnicodeDecodeError
        return False
    return isinstance(payload, dict) and payload.get("kind") in (
        KIND_GRID, KIND_RECORD,
    )


def _jsonl_target(path: Path) -> Path:
    """Where a converted store goes: never the source, which a shell
    redirect would truncate before the converter reads it."""
    target = path.parent / f"{path.stem or 'store'}.jsonl"
    if target == path:
        target = path.parent / f"{path.stem}.converted.jsonl"
    return target


def open_store(path: PathLike) -> CampaignStore:
    """Open (or prepare to create) the campaign store at ``path``.

    A directory or a SQLite database is refused with the one-line command
    that converts it into a JSONL store; any other existing file that is
    not a store is refused before anything is written to it.
    """
    path = Path(path)
    if path.is_dir():
        raise ReproError(
            f"{path} is a directory, not a store file; the sharded store "
            f"backend was removed — convert it to a JSONL store with: "
            f"awk 1 {path}/grid.jsonl {path}/shard-*.jsonl > {_jsonl_target(path)}"
        )
    if _holds_sqlite(path):
        python = shlex.quote(sys.executable or "python3")
        raise ReproError(
            f"{path} is a SQLite database, not a JSONL store; the SQLite "
            f"store backend was removed — convert it to a JSONL store with: "
            f"{python} -c {shlex.quote(_SQLITE_EXPORT)} "
            f"{shlex.quote(str(path))} > {shlex.quote(str(_jsonl_target(path)))}"
        )
    if path.is_file() and not _holds_store(path):
        raise ReproError(
            f"{path} is not a campaign store (its first line is no campaign "
            f"grid or record); name a new file or an existing store"
        )
    return CampaignStore(path)
