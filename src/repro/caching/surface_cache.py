"""The on-disk cache of application surface tables.

Campaign fleets tune the *same* four applications thousands of times; the
surfaces those campaigns evaluate are deterministic functions of the
application definition.  This module persists each application's full
``true_time``/``sensitivity`` tables as content-addressed ``.npz`` files so
the expensive first-touch computation happens once per machine instead of
once per process.  The process's application tier
(:class:`~repro.caching.app_cache.ApplicationCache`) is the one place a
model meets this cache: it builds the model and installs the persisted
tables at once (:meth:`SurfaceCache.load`), and the model then holds them
for every campaign of the process and of the workers it forks.

Correctness rests on content addressing: an entry's file name and embedded
metadata carry the surface's :meth:`~repro.apps.surfaces.PerformanceSurface.
content_hash`, so a recalibrated or re-seeded surface can never be served
stale tables — it simply misses and recomputes.  Entries are validated on
open (metadata match + array shape/dtype); anything invalid or truncated is
treated as a miss and overwritten by the next :meth:`SurfaceCache.warm`.
Writes go through a temporary file and ``os.replace``, so readers never see
a partially written entry even with concurrent warmers.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.apps.model import ApplicationModel
from repro.caching.keys import CALIBRATION_VERSION, SurfaceKey, surface_key

PathLike = Union[str, Path]
Arrays = Tuple[np.ndarray, np.ndarray]

#: Statuses :meth:`SurfaceCache.warm` reports per application.
WARM_COMPUTED = "computed"
WARM_REUSED = "reused"
WARM_UNMEMOISABLE = "unmemoisable"


def default_cache_dir() -> Path:
    """Where surface tables live unless a directory is given explicitly.

    ``$REPRO_CACHE_DIR`` overrides the per-user default, so CI jobs and
    shared machines can point every process at one warm directory.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro/surfaces").expanduser()


@dataclass(frozen=True)
class SurfaceEntry:
    """One cache entry, as reported by :meth:`SurfaceCache.info` / ``warm``."""

    app: str
    scale: str
    points: int
    path: Path
    size_bytes: int
    fingerprint: str
    calibration_version: int
    status: str = ""


class SurfaceCache:
    """Surface cache over content-addressed ``.npz`` files.

    Args:
        directory: cache location; defaults to :func:`default_cache_dir`.
    """

    def __init__(self, directory: Optional[PathLike] = None) -> None:
        self.directory = (
            Path(directory) if directory is not None else default_cache_dir()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SurfaceCache({str(self.directory)!r})"

    def path_for(self, key: SurfaceKey) -> Path:
        return self.directory / key.filename

    # -- the read path (validated) ---------------------------------------

    def load(self, app: ApplicationModel) -> bool:
        """Install the persisted tables into ``app``; True on a hit.

        A miss, a corrupt or mismatched entry, or a space above the
        memoisation limit returns False and leaves ``app`` untouched, so
        it computes its surfaces as it goes.  Each lookup lands one
        telemetry counter — ``cache.hit`` (labelled ``tier="disk"``) or
        ``cache.miss`` — so a sweep's sidecar answers "did the cache
        actually carry the fleet?" after the fact.
        """
        from repro.telemetry.events import counter as _telemetry_counter

        if not app.memoisable:
            return False
        arrays = self._read(surface_key(app), app.space.size)
        if arrays is None:
            _telemetry_counter("cache.miss")
            return False
        _telemetry_counter("cache.hit", tier="disk")
        app.load_surfaces(*arrays)
        return True

    def _read(self, key: SurfaceKey, expected_points: int) -> Optional[Arrays]:
        """Validated disk read; any mismatch or corruption is a miss."""
        path = self.path_for(key)
        try:
            with np.load(path, allow_pickle=False) as npz:
                meta = json.loads(str(npz["meta"][()]))
                if (
                    meta.get("fingerprint") != key.fingerprint
                    or meta.get("calibration_version") != key.calibration_version
                    or meta.get("points") != expected_points
                ):
                    return None
                times = np.ascontiguousarray(npz["true_time"], dtype=np.float64)
                sens = np.ascontiguousarray(npz["sensitivity"], dtype=np.float64)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            return None
        if times.shape != (expected_points,) or sens.shape != (expected_points,):
            return None
        return times, sens

    # -- the write path (atomic) -----------------------------------------

    def store(self, app: ApplicationModel) -> Path:
        """Compute (if needed) and persist the application's full tables."""
        key = surface_key(app)
        arrays = app.export_surfaces()
        meta = {
            "app": key.app,
            "scale": key.scale,
            "fingerprint": key.fingerprint,
            "calibration_version": key.calibration_version,
            "points": int(app.space.size),
        }
        path = self.path_for(key)
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=key.filename, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(
                    handle,
                    meta=np.array(json.dumps(meta, sort_keys=True)),
                    true_time=arrays["true_time"],
                    sensitivity=arrays["sensitivity"],
                )
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    # -- operations (CLI: repro cache warm / info / clear) ----------------

    def warm(self, pairs: Iterable[Tuple[str, object]]) -> List[SurfaceEntry]:
        """Ensure a valid disk entry exists for every ``(app, scale)`` pair.

        Each application is built through this process's application tier
        (:func:`~repro.caching.app_cache.process_app_cache`), loading its
        tables from here, so the campaigns that follow in this process —
        and the workers it forks — are served complete tables.  Valid
        existing entries are reused untouched; missing or invalid ones are
        computed and persisted.  Spaces above the memoisation limit are
        reported as ``"unmemoisable"`` and skipped rather than failing the
        warm.
        """
        from repro.caching.app_cache import process_app_cache

        tier = process_app_cache()
        entries: List[SurfaceEntry] = []
        for name, scale in dict.fromkeys(pairs):
            built_here = (name, scale) not in tier
            app = tier.get(name, scale, self)
            if not app.memoisable:
                entries.append(
                    SurfaceEntry(
                        app=app.name,
                        scale=app.scale,
                        points=app.space.size,
                        path=self.directory,
                        size_bytes=0,
                        fingerprint="",
                        calibration_version=CALIBRATION_VERSION,
                        status=WARM_UNMEMOISABLE,
                    )
                )
                continue
            key = surface_key(app)
            path = self.path_for(key)
            if built_here:
                # The build just read the entry: the tables are complete
                # exactly when it was valid.
                valid = app.surfaces_complete
            else:
                # The tier held ``app`` already: validate the disk entry
                # anyway, since warm's contract is that workers can read
                # the persisted file, which another process may have
                # cleared since.
                valid = self._read(key, app.space.size) is not None
            if valid:
                status = WARM_REUSED
            else:
                path = self.store(app)
                status = WARM_COMPUTED
            entries.append(
                SurfaceEntry(
                    app=app.name,
                    scale=app.scale,
                    points=app.space.size,
                    path=path,
                    size_bytes=path.stat().st_size,
                    fingerprint=key.fingerprint,
                    calibration_version=key.calibration_version,
                    status=status,
                )
            )
        return entries

    def info(self) -> List[SurfaceEntry]:
        """Metadata of every cache entry (no table loads)."""
        entries: List[SurfaceEntry] = []
        if not self.directory.is_dir():
            return entries
        for path in sorted(self.directory.glob("*.npz")):
            try:
                with np.load(path, allow_pickle=False) as npz:
                    meta = json.loads(str(npz["meta"][()]))
            except (OSError, ValueError, KeyError, zipfile.BadZipFile):
                continue
            entries.append(
                SurfaceEntry(
                    app=str(meta.get("app", "?")),
                    scale=str(meta.get("scale", "?")),
                    points=int(meta.get("points", 0)),
                    path=path,
                    size_bytes=path.stat().st_size,
                    fingerprint=str(meta.get("fingerprint", "")),
                    calibration_version=int(meta.get("calibration_version", 0)),
                )
            )
        return entries

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.npz"):
                path.unlink()
                removed += 1
        return removed


def grid_app_pairs(specs: Sequence) -> List[Tuple[str, object]]:
    """Ordered-unique ``(app, scale)`` pairs of a list of campaign specs."""
    return list(dict.fromkeys((spec.app, spec.scale) for spec in specs))
