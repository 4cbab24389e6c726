"""What a campaign store shares with its sidecars: locks and sidecar names.

:class:`~repro.campaigns.store.jsonl.CampaignStore` is the one store; this
module holds the pieces that are about the store's *file* rather than its
records:

* :class:`StoreLock` — the sweep-level advisory writer lock on a
  ``<store>.lock`` sidecar, so a second concurrent sweep on one store
  fails fast instead of interleaving appends;
* :func:`flocked` — the fine-grained per-write lock on the store file
  itself, which serialises concurrent appends and header checks;
* the sidecar kinds (``ledger``, ``telemetry``, ``profiles``) a store
  resolves for its consumers, each a file or directory next to the store
  (``sweep.jsonl.ledger``).
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.errors import ReproError

PathLike = Union[str, Path]

#: The sidecar kinds a store resolves for its consumers: the dispatcher's
#: lease journal, the telemetry event journal, and the cProfile dump
#: directory.  They live next to the store file (``sweep.jsonl.ledger``).
SIDECAR_LEDGER = "ledger"
SIDECAR_TELEMETRY = "telemetry"
SIDECAR_PROFILES = "profiles"


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
