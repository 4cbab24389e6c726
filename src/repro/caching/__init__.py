"""Shared surface cache: persistent, prewarmed application surfaces.

The paper's sweeps run fleets of campaigns over the *same* four application
surfaces; recomputing those deterministic tables in every process is pure
overhead.  This subsystem caches them at two tiers:

* **disk** — :class:`SurfaceCache` persists each application's full
  ``true_time``/``sensitivity`` tables as content-addressed ``.npz`` files
  (keyed by app, scale, surface fingerprint and calibration version),
  validated on open and written atomically; and
* **memory** — :class:`ApplicationCache`, a bounded LRU of built
  application models (tables included) shared by every campaign in a
  process; given a :class:`SurfaceCache`, it loads a model's tables from
  disk as it builds the model, the one place an application meets the
  disk tier.

Quickstart::

    from repro.apps.registry import make_application
    from repro.caching import SurfaceCache

    cache = SurfaceCache("~/.cache/repro/surfaces")
    cache.warm([("redis", "bench"), ("lammps", "bench")])   # once per machine
    app = make_application("redis")
    cache.load(app)                                         # True: starts hot

or from the shell: ``python -m repro cache warm --apps redis,lammps``, then
``python -m repro sweep ... --cache-dir ~/.cache/repro/surfaces``.
"""

from repro.caching.app_cache import (
    ApplicationCache,
    clear_process_caches,
    process_app_cache,
)
from repro.caching.keys import CALIBRATION_VERSION, SurfaceKey, surface_key
from repro.caching.surface_cache import (
    SurfaceCache,
    SurfaceEntry,
    WARM_COMPUTED,
    WARM_REUSED,
    WARM_UNMEMOISABLE,
    default_cache_dir,
    grid_app_pairs,
)

__all__ = [
    "ApplicationCache",
    "CALIBRATION_VERSION",
    "SurfaceCache",
    "SurfaceEntry",
    "SurfaceKey",
    "WARM_COMPUTED",
    "WARM_REUSED",
    "WARM_UNMEMOISABLE",
    "clear_process_caches",
    "default_cache_dir",
    "grid_app_pairs",
    "process_app_cache",
    "surface_key",
]
